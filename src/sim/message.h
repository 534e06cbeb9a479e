#ifndef PEPPER_SIM_MESSAGE_H_
#define PEPPER_SIM_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace pepper::sim {

// Identifies a peer process.  Ids are dense and assigned by the Simulator.
using NodeId = uint32_t;
inline constexpr NodeId kNullNode = 0xffffffffu;

// Virtual time, in microseconds.
using SimTime = uint64_t;
inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;

// SimTime duration → seconds; the unit the latency metrics report in.
inline double ToSeconds(SimTime d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

// Base class for every protocol message body.  Concrete payloads are plain
// structs; dispatch is by a dense per-type id captured when the payload
// pointer is created (single-process simulation, so no serialization is
// needed or wanted).
struct Payload {
  virtual ~Payload() = default;
};

namespace detail {
// Registered payload type names, indexed by type id; id 0 is the null
// payload.
inline std::vector<std::string>& PayloadTypeNames() {
  static std::vector<std::string> names{"none"};
  return names;
}

// Ids are assigned on first use within a run: process-local and
// deterministic for a fixed binary + execution path; they index dispatch
// tables and are never serialized or compared across runs.  The name is
// what observability reports, so it is stable across runs and builds.
inline uint32_t AllocatePayloadTypeId(std::string name) {
  std::vector<std::string>& names = PayloadTypeNames();
  names.push_back(std::move(name));
  return static_cast<uint32_t>(names.size() - 1);
}

// The unqualified name of T ("ReplicaDeltaMsg"), read from the compiler's
// signature of this function ("... [with T = pepper::replication::
// ReplicaDeltaMsg; ...]"): readable where a typeid name is mangled.
template <typename T>
std::string UnqualifiedTypeName() {
  const std::string_view sig = __PRETTY_FUNCTION__;
  const size_t at = sig.find("T = ");
  if (at == std::string_view::npos) return "unknown";
  std::string_view name = sig.substr(at + 4);
  name = name.substr(0, name.find_first_of(";]"));
  // Drop the qualifier: everything up to the last "::" outside template
  // arguments.
  const size_t scope = name.substr(0, name.find('<')).rfind("::");
  if (scope != std::string_view::npos) name.remove_prefix(scope + 2);
  return std::string(name);
}
}  // namespace detail

template <typename T>
uint32_t PayloadTypeId() {
  static const uint32_t id =
      detail::AllocatePayloadTypeId(detail::UnqualifiedTypeName<T>());
  return id;
}

// The unqualified struct name registered for a payload type id ("none" for
// a null payload).  A copy: registering a type may move the stored names.
inline std::string PayloadTypeName(uint32_t type_id) {
  return detail::PayloadTypeNames().at(type_id);
}

// Shared pointer to an immutable payload plus the dense id of its concrete
// type.  The id is taken from the STATIC type at construction — always the
// concrete struct, enforced below — so Node::Deliver dispatches with one
// indexed load instead of a typeid hash lookup.  Forwarding a received
// payload (scan params, split handoffs, replica seeds) preserves the id.
class PayloadPtr {
 public:
  PayloadPtr() = default;
  PayloadPtr(std::nullptr_t) {}  // NOLINT(runtime/explicit)
  template <typename T,
            typename = std::enable_if_t<std::is_base_of_v<Payload, T>>>
  PayloadPtr(std::shared_ptr<T> p)  // NOLINT(runtime/explicit)
      : type_id_(p == nullptr
                     ? 0
                     : PayloadTypeId<std::remove_const_t<T>>()),
        ptr_(std::move(p)) {
    static_assert(!std::is_same_v<std::remove_const_t<T>, Payload>,
                  "construct PayloadPtr from the concrete payload type; an "
                  "upcast shared_ptr<Payload> would lose the dispatch id");
  }

  const Payload& operator*() const { return *ptr_; }
  const Payload* operator->() const { return ptr_.get(); }
  const Payload* get() const { return ptr_.get(); }
  explicit operator bool() const { return ptr_ != nullptr; }
  friend bool operator==(const PayloadPtr& a, std::nullptr_t) {
    return a.ptr_ == nullptr;
  }
  friend bool operator!=(const PayloadPtr& a, std::nullptr_t) {
    return a.ptr_ != nullptr;
  }

  uint32_t type_id() const { return type_id_; }

 private:
  uint32_t type_id_ = 0;
  std::shared_ptr<const Payload> ptr_;
};

namespace detail {
// Per-type free lists for payload control blocks.  A paper-scale run
// creates ~100M payloads; recycling the shared_ptr-with-object nodes keeps
// the hot path off malloc and reuses cache-warm blocks.  The lists are
// keyed by the concrete allocation type (the exact allocate_shared
// control-block layout), so a pop is always the right size with no bucket
// rounding.  kMaxDepth bounds a list after a burst of releases.
template <typename T>
struct PayloadFreeList {
  static constexpr size_t kMaxDepth = 4096;
  std::vector<void*> blocks;

  ~PayloadFreeList() {
    for (void* p : blocks) ::operator delete(p);
  }

  static PayloadFreeList& Get() {
    static thread_local PayloadFreeList list;
    return list;
  }
};
}  // namespace detail

template <typename U>
struct PayloadPoolAllocator {
  using value_type = U;
  PayloadPoolAllocator() = default;
  template <typename V>
  PayloadPoolAllocator(const PayloadPoolAllocator<V>&) {}  // NOLINT

  U* allocate(size_t n) {
    if (n == 1) {
      auto& list = detail::PayloadFreeList<std::remove_const_t<U>>::Get();
      if (!list.blocks.empty()) {
        void* p = list.blocks.back();
        list.blocks.pop_back();
        return static_cast<U*>(p);
      }
      return static_cast<U*>(::operator new(sizeof(U)));
    }
    return static_cast<U*>(::operator new(n * sizeof(U)));
  }
  void deallocate(U* p, size_t n) {
    if (n == 1) {
      auto& list = detail::PayloadFreeList<std::remove_const_t<U>>::Get();
      if (list.blocks.size() < detail::PayloadFreeList<
                                   std::remove_const_t<U>>::kMaxDepth) {
        list.blocks.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }
  template <typename V>
  bool operator==(const PayloadPoolAllocator<V>&) const {
    return true;
  }
  template <typename V>
  bool operator!=(const PayloadPoolAllocator<V>&) const {
    return false;
  }
};

template <typename T, typename... Args>
PayloadPtr MakePayload(Args&&... args) {
  return PayloadPtr(std::allocate_shared<const T>(
      PayloadPoolAllocator<const T>{}, T{std::forward<Args>(args)...}));
}

// Causal trace context riding on every message (see trace/tracer.h).
// trace_id == 0 marks an untraced message — the common case, costing one
// branch at each propagation point.  span_id is the span the sender was
// executing in when it sent (the parent of the delivery hop); sent_at is
// the send instant, so the hop span is [sent_at, delivery].  Ids are pure
// functions of (origin node, per-origin counter) — never wall clock — so
// the same seed produces the same ids at any shard count.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  SimTime sent_at = 0;
  bool active() const { return trace_id != 0; }
};

// A network message.  rpc_id == 0 marks a one-way message; otherwise the
// message belongs to a request/response exchange.
struct Message {
  NodeId from = kNullNode;
  NodeId to = kNullNode;
  uint64_t rpc_id = 0;
  bool is_response = false;
  PayloadPtr payload;
  TraceContext trace;
};

}  // namespace pepper::sim

#endif  // PEPPER_SIM_MESSAGE_H_
