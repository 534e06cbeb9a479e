// Unit tests for the small common utilities: Status, MetricsHub, Counters,
// and log levels.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "common/status.h"

namespace pepper {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::FailedPrecondition().IsFailedPrecondition());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Internal().IsInternal());

  Status s = Status::NotFound("no such key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "no such key");
  EXPECT_EQ(s.ToString(), "NotFound: no such key");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Aborted());
}

TEST(CountersTest, IncrementAndSnapshot) {
  Counters c;
  c.Inc("a");
  c.Inc("a", 4);
  c.Inc("b");
  EXPECT_EQ(c.Get("a"), 5u);
  EXPECT_EQ(c.Get("b"), 1u);
  EXPECT_EQ(c.Get("missing"), 0u);
  auto snap = c.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");  // sorted
  c.Clear();
  EXPECT_EQ(c.Get("a"), 0u);
}

TEST(MetricsHubTest, LatencySeriesAreStableReferences) {
  MetricsHub hub;
  Histogram& s = hub.Latency("op");
  s.Add(1.0);
  hub.RecordLatency("op", 3.0);
  // Creating other series must not invalidate the first.
  for (int i = 0; i < 50; ++i) hub.Latency("series" + std::to_string(i));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_EQ(hub.FindLatency("op"), &s);
  EXPECT_EQ(hub.FindLatency("nope"), nullptr);
}

TEST(MetricsHubTest, ReportListsEverything) {
  MetricsHub hub;
  hub.RecordLatency("lat", 0.5);
  hub.counters().Inc("cnt", 7);
  const std::string report = hub.Report();
  EXPECT_NE(report.find("lat"), std::string::npos);
  EXPECT_NE(report.find("cnt = 7"), std::string::npos);
}

TEST(LoggingTest, LevelGatesOutput) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  PEPPER_LOG(Info) << "suppressed";  // must not crash, produces nothing
  SetLogLevel(before);
}

}  // namespace
}  // namespace pepper
