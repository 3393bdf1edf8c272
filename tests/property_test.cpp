//===- tests/property_test.cpp - Cross-engine property sweeps --------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style sweeps across programs and parameters:
///
///   * **Histogram equivalence** — uncached ICB and uncached DFS both
///     enumerate every execution of a terminating program exactly once,
///     so their executions-per-preemption-count histograms must be
///     identical. This cross-validates Algorithm 1's work-queue structure
///     against an independently implemented search, on both engines (the
///     model VM and the stateless runtime).
///   * **Order invariance** — ICB's per-bound execution counts equal the
///     DFS histogram prefix sums, i.e. ICB really enumerates in
///     nondecreasing preemption order.
///   * **Coverage equivalence** — exhaustive searches agree on distinct
///     state counts regardless of strategy.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Ape.h"
#include "benchmarks/Bluetooth.h"
#include "benchmarks/TxnManagerModel.h"
#include "benchmarks/WorkStealingQueue.h"
#include "rt/Explore.h"
#include "search/Checker.h"
#include "testutil/TestPrograms.h"
#include <gtest/gtest.h>

using namespace icb;

namespace {

//===----------------------------------------------------------------------===//
// VM engine: ICB vs DFS histograms
//===----------------------------------------------------------------------===//

struct VmProgramCase {
  std::string Name;
  std::function<vm::Program()> Make;
};

std::vector<VmProgramCase> vmPrograms() {
  return {
      {"racy_counter_2", [] { return testutil::racyCounter(2); }},
      {"racy_counter_3", [] { return testutil::racyCounter(3); }},
      {"atomic_counter_3", [] { return testutil::atomicCounter(3); }},
      {"ping_pong_2", [] { return testutil::eventPingPong(2); }},
      {"sem_buffer_2_2", [] { return testutil::semaphoreBuffer(2, 2); }},
      {"lock_deadlock", [] { return testutil::lockOrderDeadlock(); }},
      {"ladder_3", [] { return testutil::preemptionLadder(3); }},
      {"txnmgr_1round",
       [] { return bench::txnManagerModel({1, bench::TxnBug::None}); }},
  };
}

std::string vmCaseName(const ::testing::TestParamInfo<VmProgramCase> &Info) {
  return Info.param.Name;
}

// Without a PrintTo, gtest prints a parameter as its raw bytes, heap
// addresses included, and gtest_discover_tests copies that text into the
// ctest name; the case name keeps the name the same in every build.
void PrintTo(const VmProgramCase &Case, std::ostream *OS) { *OS << Case.Name; }

class VmHistogramTest : public ::testing::TestWithParam<VmProgramCase> {};

TEST_P(VmHistogramTest, IcbAndDfsEnumerateTheSameExecutionMultiset) {
  vm::Program Prog = GetParam().Make();

  search::SearchOptions DfsOpts;
  DfsOpts.Kind = search::StrategyKind::Dfs;
  DfsOpts.Limits.MaxExecutions = 500000;
  search::SearchResult Dfs = search::checkProgram(Prog, DfsOpts);
  ASSERT_TRUE(Dfs.Stats.Completed) << "program too large for this sweep";

  search::SearchOptions IcbOpts;
  IcbOpts.Kind = search::StrategyKind::Icb;
  IcbOpts.Limits.MaxExecutions = 500000;
  search::SearchResult Icb = search::checkProgram(Prog, IcbOpts);
  ASSERT_TRUE(Icb.Stats.Completed);

  // Same number of executions, same per-preemption distribution, same
  // total steps, same distinct states.
  EXPECT_EQ(Dfs.Stats.Executions, Icb.Stats.Executions);
  EXPECT_EQ(Dfs.Stats.TotalSteps, Icb.Stats.TotalSteps);
  EXPECT_EQ(Dfs.Stats.DistinctStates, Icb.Stats.DistinctStates);
  size_t Buckets = std::max(Dfs.Stats.PreemptionHistogram.size(),
                            Icb.Stats.PreemptionHistogram.size());
  for (size_t C = 0; C != Buckets; ++C)
    EXPECT_EQ(Dfs.Stats.PreemptionHistogram.at(C),
              Icb.Stats.PreemptionHistogram.at(C))
        << "preemption count " << C;

  // ICB's per-bound cumulative executions are the histogram prefix sums:
  // the enumeration really is ordered by preemptions.
  uint64_t Cumulative = 0;
  for (const search::BoundCoverage &B : Icb.Stats.PerBound) {
    Cumulative += Dfs.Stats.PreemptionHistogram.at(B.Bound);
    EXPECT_EQ(B.Executions, Cumulative) << "bound " << B.Bound;
  }

  // And the same bugs (if any), with ICB's exposure minimal.
  ASSERT_EQ(Dfs.Bugs.size(), Icb.Bugs.size());
  for (const search::Bug &IcbBug : Icb.Bugs) {
    bool Matched = false;
    for (const search::Bug &DfsBug : Dfs.Bugs)
      if (DfsBug.Message == IcbBug.Message) {
        Matched = true;
        EXPECT_GE(DfsBug.Preemptions, IcbBug.Preemptions);
      }
    EXPECT_TRUE(Matched) << IcbBug.Message;
  }
}

INSTANTIATE_TEST_SUITE_P(VmPrograms, VmHistogramTest,
                         ::testing::ValuesIn(vmPrograms()), vmCaseName);

//===----------------------------------------------------------------------===//
// Runtime engine: ICB vs DFS histograms
//===----------------------------------------------------------------------===//

struct RtProgramCase {
  std::string Name;
  std::function<rt::TestCase()> Make;
};

std::vector<RtProgramCase> rtPrograms() {
  return {
      {"bluetooth_1w_fixed",
       [] { return bench::bluetoothTest({1, false}); }},
      {"bluetooth_1w_bug", [] { return bench::bluetoothTest({1, true}); }},
      {"wsq_1item",
       [] { return bench::workStealingTest({1, 2, bench::WsqBug::None}); }},
      {"ape_1w_1i",
       [] { return bench::apeTest({1, 1, bench::ApeBug::None}); }},
  };
}

std::string rtCaseName(const ::testing::TestParamInfo<RtProgramCase> &Info) {
  return Info.param.Name;
}

void PrintTo(const RtProgramCase &Case, std::ostream *OS) { *OS << Case.Name; }

class RtHistogramTest : public ::testing::TestWithParam<RtProgramCase> {};

TEST_P(RtHistogramTest, IcbAndDfsEnumerateTheSameExecutionMultiset) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxExecutions = 500000;

  rt::DfsExplorer Dfs(Opts);
  rt::ExploreResult DfsR = Dfs.explore(GetParam().Make());
  ASSERT_TRUE(DfsR.Stats.Completed) << "program too large for this sweep";

  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult IcbR = Icb.explore(GetParam().Make());
  ASSERT_TRUE(IcbR.Stats.Completed);

  EXPECT_EQ(DfsR.Stats.Executions, IcbR.Stats.Executions);
  EXPECT_EQ(DfsR.Stats.TotalSteps, IcbR.Stats.TotalSteps);
  EXPECT_EQ(DfsR.Stats.DistinctStates, IcbR.Stats.DistinctStates);
  EXPECT_EQ(DfsR.Stats.DistinctTerminalStates,
            IcbR.Stats.DistinctTerminalStates);
  size_t Buckets = std::max(DfsR.Stats.PreemptionHistogram.size(),
                            IcbR.Stats.PreemptionHistogram.size());
  for (size_t C = 0; C != Buckets; ++C)
    EXPECT_EQ(DfsR.Stats.PreemptionHistogram.at(C),
              IcbR.Stats.PreemptionHistogram.at(C))
        << "preemption count " << C;

  uint64_t Cumulative = 0;
  for (const rt::BoundCoverage &B : IcbR.Stats.PerBound) {
    Cumulative += DfsR.Stats.PreemptionHistogram.at(B.Bound);
    EXPECT_EQ(B.Executions, Cumulative) << "bound " << B.Bound;
  }
}

INSTANTIATE_TEST_SUITE_P(RtPrograms, RtHistogramTest,
                         ::testing::ValuesIn(rtPrograms()), rtCaseName);

//===----------------------------------------------------------------------===//
// WSQ parameter sweep: the correct queue is clean at every size
//===----------------------------------------------------------------------===//

struct WsqParams {
  unsigned Items;
  unsigned Capacity;
};

class WsqSweepTest : public ::testing::TestWithParam<WsqParams> {};

TEST_P(WsqSweepTest, CorrectQueueCleanWithinBoundTwo) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxExecutions = 40000;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 2;
  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult R = Icb.explore(bench::workStealingTest(
      {GetParam().Items, GetParam().Capacity, bench::WsqBug::None}));
  EXPECT_FALSE(R.foundBug()) << R.Bugs[0].str();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, WsqSweepTest,
    ::testing::Values(WsqParams{1, 2}, WsqParams{2, 2}, WsqParams{2, 4},
                      WsqParams{3, 4}, WsqParams{4, 4}, WsqParams{4, 8}),
    [](const ::testing::TestParamInfo<WsqParams> &Info) {
      return "items" + std::to_string(Info.param.Items) + "_cap" +
             std::to_string(Info.param.Capacity);
    });

//===----------------------------------------------------------------------===//
// Ladder sweep: minimal preemption counts scale as constructed
//===----------------------------------------------------------------------===//

class LadderSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LadderSweepTest, MinimalBoundMatchesConstruction) {
  unsigned Needed = GetParam();
  search::SearchOptions Opts;
  Opts.Kind = search::StrategyKind::Icb;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = Needed + 1;
  search::SearchResult R =
      search::checkProgram(testutil::preemptionLadder(Needed), Opts);
  ASSERT_TRUE(R.foundBug());
  EXPECT_EQ(R.simplestBug()->Preemptions, Needed);
}

INSTANTIATE_TEST_SUITE_P(Depths, LadderSweepTest,
                         ::testing::Values(1u, 3u, 5u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           std::string Name("p");
                           Name += std::to_string(Info.param);
                           return Name;
                         });

} // namespace
