//===- tests/trace_test.cpp - Trace layer unit tests -----------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/Schedule.h"
#include "trace/TraceWriter.h"
#include "trace/VectorClock.h"
#include <gtest/gtest.h>

using namespace icb;
using namespace icb::trace;

namespace {

TEST(VectorClockTest, TickAndGet) {
  VectorClock C(3);
  EXPECT_EQ(C.get(0), 0u);
  C.tick(0);
  C.tick(0);
  C.tick(2);
  EXPECT_EQ(C.get(0), 2u);
  EXPECT_EQ(C.get(1), 0u);
  EXPECT_EQ(C.get(2), 1u);
}

TEST(VectorClockTest, JoinTakesPointwiseMax) {
  VectorClock A(3), B(3);
  A.tick(0);
  A.tick(0);
  B.tick(1);
  A.join(B);
  EXPECT_EQ(A.get(0), 2u);
  EXPECT_EQ(A.get(1), 1u);
}

TEST(VectorClockTest, LeqIsPartialOrder) {
  VectorClock A(2), B(2);
  EXPECT_TRUE(A.leq(B));
  A.tick(0);
  EXPECT_FALSE(A.leq(B));
  EXPECT_TRUE(B.leq(A));
  B.tick(1);
  EXPECT_FALSE(A.leq(B));
  EXPECT_FALSE(B.leq(A)); // Incomparable.
}

TEST(VectorClockTest, HashAndStr) {
  VectorClock A(3), B(3);
  EXPECT_EQ(A.hash(), B.hash());
  A.tick(1);
  EXPECT_NE(A.hash(), B.hash());
  EXPECT_EQ(A.str(), "<0,1,0>");
}

TEST(ScheduleTest, PreemptionCounting) {
  Schedule S;
  S.append(0, false, false);
  S.append(1, true, true);
  S.append(1, false, false);
  S.append(0, false, true);
  EXPECT_EQ(S.length(), 4u);
  EXPECT_EQ(S.preemptions(), 1u);
  EXPECT_EQ(S.contextSwitches(), 2u);
}

TEST(ScheduleTest, StrAndParseRoundTrip) {
  Schedule S;
  S.append(0, false, false);
  S.append(2, true, true);
  S.append(1, false, true);
  std::string Text = S.str();
  EXPECT_EQ(Text, "0 2* 1^");
  Schedule Parsed;
  ASSERT_TRUE(Schedule::parse(Text, Parsed));
  EXPECT_TRUE(S == Parsed);
}

TEST(ScheduleTest, ParseRejectsGarbage) {
  Schedule S;
  EXPECT_FALSE(Schedule::parse("1 x 2", S));
  EXPECT_FALSE(Schedule::parse("*", S));
}

TEST(ScheduleTest, ParseRejectsMalformedTokens) {
  // parse() guards checkpoint and .icbrepro loading, so corrupt tokens
  // must be rejected outright, never silently truncated or wrapped.
  const char *Bad[] = {
      "^",          // bare marker
      "1**",        // doubled marker
      "1^*",        // both markers
      "*1",         // marker before digits
      "+1",         // sign prefix
      "-1",         // negative
      "1.5",        // fraction
      "0x1f",       // hex
      "1 2 3x",     // bad trailing token
      "4294967296", // Tid past UINT32_MAX
      "99999999999999999999", // past UINT64_MAX too
  };
  for (const char *Text : Bad) {
    SCOPED_TRACE(Text);
    Schedule S;
    S.append(7, false, false); // Rejection must also clear stale state.
    EXPECT_FALSE(Schedule::parse(Text, S));
    EXPECT_TRUE(S.empty());
  }
}

TEST(ScheduleTest, ParseAcceptsBoundaryAndWhitespace) {
  Schedule S;
  ASSERT_TRUE(Schedule::parse("  4294967295*   0 \n 1^\t", S));
  ASSERT_EQ(S.length(), 3u);
  EXPECT_EQ(S.entry(0).Tid, 4294967295u);
  EXPECT_TRUE(S.entry(0).Preemption);
  EXPECT_TRUE(S.entry(0).ContextSwitch);
  EXPECT_EQ(S.entry(1).Tid, 0u);
  EXPECT_FALSE(S.entry(1).ContextSwitch);
  EXPECT_TRUE(S.entry(2).ContextSwitch);
  EXPECT_FALSE(S.entry(2).Preemption);

  // The empty schedule round-trips too.
  Schedule Empty;
  ASSERT_TRUE(Schedule::parse("", Empty));
  EXPECT_TRUE(Empty.empty());
  ASSERT_TRUE(Schedule::parse(Schedule().str(), Empty));
  EXPECT_TRUE(Empty.empty());
}

TEST(ScheduleTest, RoundTripPreservesEveryEntry) {
  // Property-style sweep: a pseudo-random mix of runs, nonpreempting
  // switches, and preemptions survives str() -> parse() exactly.
  Schedule S;
  uint32_t Prev = 0;
  uint32_t X = 12345;
  for (int I = 0; I != 200; ++I) {
    X = X * 1664525u + 1013904223u; // LCG; deterministic across platforms.
    uint32_t Tid = (X >> 16) % 5;
    bool Switch = I != 0 && Tid != Prev;
    bool Preempt = Switch && (X & 1);
    S.append(Tid, Preempt, Switch);
    Prev = Tid;
  }
  Schedule Back;
  ASSERT_TRUE(Schedule::parse(S.str(), Back));
  EXPECT_TRUE(S == Back);
}

TEST(ScheduleTest, Truncate) {
  Schedule S;
  for (int I = 0; I != 5; ++I)
    S.append(static_cast<uint32_t>(I), false, false);
  S.truncate(2);
  EXPECT_EQ(S.length(), 2u);
  S.truncate(10); // No-op beyond current length.
  EXPECT_EQ(S.length(), 2u);
}

TEST(TraceWriterTest, RendersCountsAndMarkers) {
  std::vector<TraceStep> Steps;
  Steps.push_back({0, "main", "lock m", false, false, true});
  Steps.push_back({1, "worker", "set e", true, true, false});
  Steps.push_back({0, "main", "wait e", false, true, true});
  std::string Text = TraceWriter::render("assertion failed: boom", Steps);
  EXPECT_NE(Text.find("assertion failed: boom"), std::string::npos);
  EXPECT_NE(Text.find("3 steps"), std::string::npos);
  EXPECT_NE(Text.find("(1 preempting, 1 nonpreempting)"), std::string::npos);
  EXPECT_NE(Text.find(">>>"), std::string::npos);
  EXPECT_NE(Text.find("(blocking)"), std::string::npos);
}

} // namespace
