#ifndef PEPPER_COMMON_LOGGING_H_
#define PEPPER_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pepper {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

// Global minimum level; messages below it are discarded.  Default keeps the
// simulator quiet so tests and benchmarks stay readable.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

// Simulation execution context of the calling thread, set by the event
// dispatch loops (Simulator::ExecuteShardNext / the control barrier) so rare WARN/ERROR lines carry the sim time and node id they
// fired under — correlatable with trace dumps.  Raw integers on purpose:
// common/ must not depend on sim/ (time is microseconds; node 0xffffffff is
// the control context).
struct SimLogContext {
  bool active = false;
  uint64_t time_us = 0;
  uint32_t node = 0;
};

namespace internal {
inline thread_local SimLogContext tls_sim_log_ctx;
}  // namespace internal

inline void SetSimLogContext(uint64_t time_us, uint32_t node) {
  internal::tls_sim_log_ctx = SimLogContext{true, time_us, node};
}
inline void ClearSimLogContext() {
  internal::tls_sim_log_ctx.active = false;
}

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace pepper

#define PEPPER_LOG(level)                                              \
  ::pepper::internal::LogMessage(::pepper::LogLevel::k##level, __FILE__, \
                                 __LINE__)

// Invariant check that aborts with a message; used for conditions that are
// programming errors rather than recoverable failures.
#define PEPPER_CHECK(cond)                                                 \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "PEPPER_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

#endif  // PEPPER_COMMON_LOGGING_H_
