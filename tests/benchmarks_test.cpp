//===- tests/benchmarks_test.cpp - Benchmark suite tests -------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the benchmark suite against the paper:
///   * every seeded bug is exposed by ICB at *exactly* the preemption
///     bound Table 2 reports for it (parameterized over the registry);
///   * no bug is exposed below that bound;
///   * the correct variants survive a bounded exhaustive search;
///   * benchmark-specific behaviours (Figure 3's trace shape, the race
///     report for Dryad's statistics, ...).
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Ape.h"
#include "benchmarks/Bluetooth.h"
#include "benchmarks/BluetoothModel.h"
#include "benchmarks/DryadChannels.h"
#include "benchmarks/FileSystemModel.h"
#include "benchmarks/Registry.h"
#include "benchmarks/TxnManagerModel.h"
#include "benchmarks/WorkStealingQueue.h"
#include "rt/Explore.h"
#include "search/Checker.h"
#include <gtest/gtest.h>
#include <cctype>
#include <optional>

using namespace icb;
using namespace icb::bench;

namespace {

struct BugCase {
  std::string Benchmark;
  std::string Label;
  unsigned PaperBound;
  std::function<rt::TestCase()> MakeRt;
  std::function<vm::Program()> MakeVm;
};

std::vector<BugCase> allBugCases() {
  std::vector<BugCase> Cases;
  for (const BenchmarkEntry &E : allBenchmarks())
    for (const BugVariant &B : E.Bugs)
      Cases.push_back({E.Name, B.Label, B.PaperBound, B.MakeRt, B.MakeVm});
  return Cases;
}

std::string bugCaseName(const ::testing::TestParamInfo<BugCase> &Info) {
  std::string Name = Info.param.Benchmark + "_" + Info.param.Label;
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

// Without a PrintTo, gtest prints a parameter as its raw bytes, heap
// addresses included, and gtest_discover_tests copies that text into the
// ctest name; the case name keeps the name the same in every build.
void PrintTo(const BugCase &Case, std::ostream *OS) {
  *OS << bugCaseName({Case, 0});
}

/// Finds the bug with ICB and returns its minimal preemption count, or
/// nullopt when no bug exists within the bound.
std::optional<unsigned> icbBugBound(const BugCase &Case, unsigned MaxBound,
                                    bool StopAtFirst = true) {
  if (Case.MakeRt) {
    rt::ExploreOptions Opts;
    Opts.Limits.MaxExecutions = 2000000;
    Opts.Limits.StopAtFirstBug = StopAtFirst;
    Opts.Limits.MaxPreemptionBound = MaxBound;
    rt::IcbExplorer Icb(Opts);
    rt::ExploreResult R = Icb.explore(Case.MakeRt());
    if (!R.foundBug())
      return std::nullopt;
    return R.simplestBug()->Preemptions;
  }
  search::SearchOptions Opts;
  Opts.Kind = search::StrategyKind::Icb;
  Opts.Limits.MaxExecutions = 2000000;
  Opts.Limits.StopAtFirstBug = StopAtFirst;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  search::SearchResult R = search::checkProgram(Case.MakeVm(), Opts);
  if (!R.foundBug())
    return std::nullopt;
  return R.simplestBug()->Preemptions;
}

class BugBoundTest : public ::testing::TestWithParam<BugCase> {};

TEST_P(BugBoundTest, ExposedAtExactlyThePaperBound) {
  const BugCase &Case = GetParam();
  std::optional<unsigned> Bound = icbBugBound(Case, Case.PaperBound + 1);
  ASSERT_TRUE(Bound.has_value())
      << Case.Benchmark << "/" << Case.Label << ": bug not found";
  EXPECT_EQ(*Bound, Case.PaperBound)
      << Case.Benchmark << "/" << Case.Label;
}

TEST_P(BugBoundTest, NotExposedBelowThePaperBound) {
  const BugCase &Case = GetParam();
  if (Case.PaperBound == 0)
    GTEST_SKIP() << "bound-0 bugs have no lower bound to check";
  std::optional<unsigned> Bound =
      icbBugBound(Case, Case.PaperBound - 1, /*StopAtFirst=*/true);
  EXPECT_FALSE(Bound.has_value())
      << Case.Benchmark << "/" << Case.Label << ": found below paper bound";
}

INSTANTIATE_TEST_SUITE_P(AllTable2Bugs, BugBoundTest,
                         ::testing::ValuesIn(allBugCases()), bugCaseName);

//===----------------------------------------------------------------------===//
// Correct variants stay clean
//===----------------------------------------------------------------------===//

struct CleanCase {
  std::string Benchmark;
  std::function<rt::TestCase()> MakeRt;
  std::function<vm::Program()> MakeVm;
};

std::vector<CleanCase> allCleanCases() {
  std::vector<CleanCase> Cases;
  for (const BenchmarkEntry &E : allBenchmarks())
    Cases.push_back({E.Name, E.MakeDefaultRt, E.MakeDefaultVm});
  return Cases;
}

std::string cleanCaseName(const ::testing::TestParamInfo<CleanCase> &Info) {
  std::string Name = Info.param.Benchmark;
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

void PrintTo(const CleanCase &Case, std::ostream *OS) {
  *OS << cleanCaseName({Case, 0});
}

class CleanBenchmarkTest : public ::testing::TestWithParam<CleanCase> {};

TEST_P(CleanBenchmarkTest, NoBugWithinBoundTwo) {
  const CleanCase &Case = GetParam();
  if (Case.MakeRt) {
    rt::ExploreOptions Opts;
    Opts.Limits.MaxExecutions = 30000;
    Opts.Limits.StopAtFirstBug = true;
    Opts.Limits.MaxPreemptionBound = 2;
    rt::IcbExplorer Icb(Opts);
    rt::ExploreResult R = Icb.explore(Case.MakeRt());
    EXPECT_FALSE(R.foundBug())
        << Case.Benchmark << ": " << R.Bugs[0].str();
    return;
  }
  search::SearchOptions Opts;
  Opts.Kind = search::StrategyKind::Icb;
  Opts.Limits.MaxExecutions = 30000;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 2;
  search::SearchResult R = search::checkProgram(Case.MakeVm(), Opts);
  EXPECT_FALSE(R.foundBug()) << Case.Benchmark << ": " << R.Bugs[0].str();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CleanBenchmarkTest,
                         ::testing::ValuesIn(allCleanCases()), cleanCaseName);

//===----------------------------------------------------------------------===//
// Registry shape
//===----------------------------------------------------------------------===//

TEST(Registry, MatchesThePaperStructure) {
  // Five Table 1 rows, five Table 2 rows, and Table 2's per-bound bug
  // distribution: 3 bugs at bound 0, 7 at 1, 5 at 2, 1 at 3. (The table's
  // rows sum to 16 even though the paper's text says "a total of 14 bugs"
  // — a known internal inconsistency of the paper; we reproduce the rows.)
  unsigned Table1Rows = 0, Table2Rows = 0, Bugs = 0;
  unsigned PerBound[4] = {0, 0, 0, 0};
  for (const BenchmarkEntry &E : allBenchmarks()) {
    Table1Rows += E.InTable1 ? 1 : 0;
    Table2Rows += E.InTable2 ? 1 : 0;
    for (const BugVariant &B : E.Bugs) {
      ++Bugs;
      ASSERT_LE(B.PaperBound, 3u);
      ++PerBound[B.PaperBound];
    }
  }
  EXPECT_EQ(Table1Rows, 5u);
  EXPECT_EQ(Table2Rows, 5u);
  EXPECT_EQ(Bugs, 16u);
  EXPECT_EQ(PerBound[0], 3u);
  EXPECT_EQ(PerBound[1], 7u);
  EXPECT_EQ(PerBound[2], 5u);
  EXPECT_EQ(PerBound[3], 1u);
}

TEST(Registry, FindByNameWorks) {
  EXPECT_NE(findBenchmark("Bluetooth"), nullptr);
  EXPECT_NE(findBenchmark("Dryad Channels"), nullptr);
  EXPECT_EQ(findBenchmark("No Such Benchmark"), nullptr);
}

//===----------------------------------------------------------------------===//
// Benchmark-specific behaviours
//===----------------------------------------------------------------------===//

TEST(Fig3Trace, HasOnePreemptionAndSeveralNonpreemptingSwitches) {
  // Section 4.2: "an error that requires only one preempting context
  // switch, but 6 nonpreempting context switches."
  const BenchmarkEntry *Dryad = findBenchmark("Dryad Channels");
  ASSERT_NE(Dryad, nullptr);
  const BugVariant *Fig3 = nullptr;
  for (const BugVariant &B : Dryad->Bugs)
    if (B.Label == "fig3-use-after-free")
      Fig3 = &B;
  ASSERT_NE(Fig3, nullptr);

  rt::ExploreOptions Opts;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 1;
  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult R = Icb.explore(Fig3->MakeRt());
  ASSERT_TRUE(R.foundBug());
  const rt::RtBug &Bug = *R.simplestBug();
  EXPECT_EQ(Bug.Kind, search::BugKind::UseAfterFree);
  EXPECT_EQ(Bug.Preemptions, 1u);
  EXPECT_GE(Bug.ContextSwitches - Bug.Preemptions, 5u)
      << "the Figure 3 trace involves many nonpreempting switches";
}

TEST(WsqHarness, CorrectQueueNeverLosesOrDuplicates) {
  // Push counts other than the default, exhaustive within bound 2.
  for (unsigned Items : {1u, 2u, 4u}) {
    rt::ExploreOptions Opts;
    Opts.Limits.MaxExecutions = 60000;
    Opts.Limits.StopAtFirstBug = true;
    Opts.Limits.MaxPreemptionBound = 2;
    rt::IcbExplorer Icb(Opts);
    rt::ExploreResult R =
        Icb.explore(workStealingTest({Items, 8, WsqBug::None}));
    EXPECT_FALSE(R.foundBug()) << "items=" << Items << ": "
                               << R.Bugs[0].str();
  }
}

TEST(BluetoothHarness, FixedProtocolSurvivesDeepBounds) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxExecutions = 60000;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 3;
  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult R = Icb.explore(bluetoothTest({2, false}));
  EXPECT_FALSE(R.foundBug()) << R.Bugs[0].str();
}

TEST(FileSystemHarness, CompletesExhaustivelyAtSmallScale) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxExecutions = 2000000;
  rt::DfsExplorer Dfs(Opts);
  rt::ExploreResult R = Dfs.explore(fileSystemTest({2, 2, 2}));
  EXPECT_FALSE(R.foundBug());
  EXPECT_TRUE(R.Stats.Completed);
  EXPECT_GT(R.Stats.DistinctStates, 0u);
}

TEST(TxnModel, ValidatesAndDisassembles) {
  for (TxnBug Bug : {TxnBug::None, TxnBug::CommitStomp,
                     TxnBug::ReapCollision, TxnBug::CommitUpsert}) {
    vm::Program Prog = txnManagerModel({2, Bug});
    EXPECT_EQ(Prog.validate(), "") << txnBugName(Bug);
    EXPECT_EQ(Prog.numThreads(), 2u);
  }
}

TEST(DryadStatsRace, ReportsARaceNotAnAssert) {
  rt::ExploreOptions Opts;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 0;
  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult R = Icb.explore(dryadTest({3, 2, DryadBug::StatsRace}));
  ASSERT_TRUE(R.foundBug());
  EXPECT_EQ(R.Bugs[0].Kind, search::BugKind::DataRace);
  EXPECT_NE(R.Bugs[0].Message.find("itemsWritten"), std::string::npos);
}

TEST(ApeEagerTeardown, ReportsUseAfterFree) {
  rt::ExploreOptions Opts;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 0;
  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult R = Icb.explore(apeTest({2, 2, ApeBug::EagerTeardown}));
  ASSERT_TRUE(R.foundBug());
  EXPECT_EQ(R.Bugs[0].Kind, search::BugKind::UseAfterFree);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Cross-checker validation: the two engines agree on Bluetooth
//===----------------------------------------------------------------------===//

TEST(CrossChecker, BothEnginesExposeBluetoothAtBoundOne) {
  // Stateless runtime form.
  rt::ExploreOptions RtOpts;
  RtOpts.Limits.StopAtFirstBug = true;
  RtOpts.Limits.MaxPreemptionBound = 2;
  rt::IcbExplorer RtIcb(RtOpts);
  rt::ExploreResult RtR = RtIcb.explore(bluetoothTest({2, true}));
  ASSERT_TRUE(RtR.foundBug());
  EXPECT_EQ(RtR.simplestBug()->Preemptions, 1u);

  // Explicit-state model form.
  search::SearchOptions VmOpts;
  VmOpts.Kind = search::StrategyKind::Icb;
  VmOpts.Limits.StopAtFirstBug = true;
  VmOpts.Limits.MaxPreemptionBound = 2;
  search::SearchResult VmR =
      search::checkProgram(bluetoothModel(2, true), VmOpts);
  ASSERT_TRUE(VmR.foundBug());
  EXPECT_EQ(VmR.simplestBug()->Preemptions, 1u);
  EXPECT_NE(VmR.simplestBug()->Message.find("after stop"),
            std::string::npos);
}

TEST(CrossChecker, BothEnginesCertifyTheFixedProtocol) {
  rt::ExploreOptions RtOpts;
  RtOpts.Limits.MaxExecutions = 60000;
  RtOpts.Limits.StopAtFirstBug = true;
  RtOpts.Limits.MaxPreemptionBound = 2;
  rt::IcbExplorer RtIcb(RtOpts);
  rt::ExploreResult RtR = RtIcb.explore(bluetoothTest({2, false}));
  EXPECT_FALSE(RtR.foundBug()) << RtR.Bugs[0].str();

  search::SearchOptions VmOpts;
  VmOpts.Kind = search::StrategyKind::Icb;
  VmOpts.Limits.MaxExecutions = 60000;
  VmOpts.Limits.StopAtFirstBug = true;
  VmOpts.Limits.MaxPreemptionBound = 2;
  search::SearchResult VmR =
      search::checkProgram(bluetoothModel(2, false), VmOpts);
  EXPECT_FALSE(VmR.foundBug()) << VmR.Bugs[0].str();
}

TEST(CrossChecker, VmModelCompletesExhaustively) {
  // The explicit-state form with one worker is small enough to exhaust;
  // ICB with the state cache completes and certifies it bug-free.
  search::SearchOptions Opts;
  Opts.Kind = search::StrategyKind::Icb;
  Opts.UseStateCache = true;
  Opts.Limits.MaxExecutions = 2000000;
  search::SearchResult R =
      search::checkProgram(bluetoothModel(1, false), Opts);
  EXPECT_FALSE(R.foundBug());
  EXPECT_TRUE(R.Stats.Completed);
  EXPECT_GT(R.Stats.DistinctStates, 0u);
}

} // namespace
