//===- tests/cross_engine_test.cpp - Stateless vs model-VM agreement ------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-engine agreement: the paper runs the same Algorithm 1 inside the
/// explicit-state ZING checker and the stateless CHESS checker, and both
/// expose each seeded bug at the same minimal preemption bound (Table 2).
/// Our reproduction has the same split — ReplayExecutor over the fiber
/// runtime, VmExecutor over the model VM — driven by one shared engine.
///
/// For every registry bug variant that exists in both forms this test
/// asserts the Table 2 signature: both engines expose the bug with exactly
/// the paper's preemption count and neither exposes it below that bound.
/// Raw per-bound execution counts are *not* comparable across forms (the
/// model VM is a coarser abstraction with fewer scheduling points), but
/// within each form they are exact: with state caching off, one worker and
/// several workers of either executor must report identical per-bound
/// execution and coverage counts. Within each form the one-worker order is
/// pinned too: the executions a `--jobs 1` check spends before its first
/// bug are fixed by perfbench/reference.json.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Registry.h"
#include "obs/Metrics.h"
#include "rt/Explore.h"
#include "search/BoundPolicy.h"
#include "search/Checker.h"
#include "search/IcbSearch.h"
#include "testutil/ResultChecks.h"
#include "vm/Interp.h"
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace icb;
using namespace icb::bench;
using icb::testutil::expectSamePerBound;

namespace {

/// Registry bug variants present in both the runtime and model-VM form.
std::vector<const BugVariant *> bothFormVariants() {
  std::vector<const BugVariant *> Variants;
  for (const BenchmarkEntry &E : allBenchmarks())
    for (const BugVariant &B : E.Bugs)
      if (B.MakeRt && B.MakeVm)
        Variants.push_back(&B);
  return Variants;
}

rt::ExploreResult runRtIcb(const rt::TestCase &Test, unsigned MaxBound,
                           unsigned Jobs, bool Por = false) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Jobs = Jobs;
  Opts.Por = Por;
  rt::IcbExplorer Icb(Opts);
  return Icb.explore(Test);
}

search::SearchResult runVmIcb(const vm::Program &Prog, unsigned MaxBound,
                              bool Por = false) {
  search::IcbSearch::Options Opts;
  Opts.UseStateCache = false;
  Opts.UseSleepSets = Por;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  search::IcbSearch Search(Opts);
  vm::Interp VM(Prog);
  return Search.run(VM);
}

search::SearchResult runVmIcbParallel(const vm::Program &Prog,
                                      unsigned MaxBound, unsigned Jobs,
                                      bool Por = false) {
  search::IcbSearch::Options Opts;
  Opts.Jobs = Jobs;
  Opts.UseStateCache = false;
  Opts.UseSleepSets = Por;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  search::IcbSearch Search(Opts);
  vm::Interp VM(Prog);
  return Search.run(VM);
}

/// Canonical (kind, message) -> minimal preemption count map of a bug
/// list, the signature bounded POR must preserve exactly.
template <typename BugList>
std::map<std::pair<int, std::string>, unsigned> bugSignature(const BugList &Bugs) {
  std::map<std::pair<int, std::string>, unsigned> Sig;
  for (const auto &B : Bugs) {
    std::pair<int, std::string> Key{static_cast<int>(B.Kind), B.Message};
    auto It = Sig.find(Key);
    if (It == Sig.end() || B.Preemptions < It->second)
      Sig[Key] = B.Preemptions;
  }
  return Sig;
}

TEST(CrossEngine, RegistryHasBothFormVariants) {
  // Bluetooth and the work-stealing queue carry both forms; if this
  // shrinks, the agreement tests below silently lose their subjects.
  EXPECT_GE(bothFormVariants().size(), 4u);
}

TEST(CrossEngine, SameMinimalPreemptionBound) {
  for (const BugVariant *B : bothFormVariants()) {
    SCOPED_TRACE(B->Label);
    rt::ExploreResult Rt = runRtIcb(B->MakeRt(), B->PaperBound, /*Jobs=*/1);
    search::SearchResult Vm = runVmIcb(B->MakeVm(), B->PaperBound);
    ASSERT_TRUE(Rt.foundBug());
    ASSERT_TRUE(Vm.foundBug());
    EXPECT_EQ(Rt.simplestBug()->Preemptions, B->PaperBound);
    EXPECT_EQ(Vm.simplestBug()->Preemptions, B->PaperBound);
  }
}

TEST(CrossEngine, NoExposureBelowPaperBound) {
  for (const BugVariant *B : bothFormVariants()) {
    if (B->PaperBound == 0)
      continue;
    SCOPED_TRACE(B->Label);
    EXPECT_FALSE(runRtIcb(B->MakeRt(), B->PaperBound - 1, 1).foundBug());
    EXPECT_FALSE(runVmIcb(B->MakeVm(), B->PaperBound - 1).foundBug());
  }
}

TEST(CrossEngine, RtPerBoundCountsInvariantAcrossJobs) {
  // The stateless executor caches no states, so sequential and parallel
  // drivers enumerate exactly the same executions per bound.
  for (const BugVariant *B : bothFormVariants()) {
    SCOPED_TRACE(B->Label);
    rt::ExploreResult Seq = runRtIcb(B->MakeRt(), B->PaperBound, 1);
    rt::ExploreResult Par = runRtIcb(B->MakeRt(), B->PaperBound, 3);
    expectSamePerBound(Seq.Stats.PerBound, Par.Stats.PerBound);
    EXPECT_EQ(Seq.Stats.Executions, Par.Stats.Executions);
    EXPECT_EQ(Seq.Stats.DistinctStates, Par.Stats.DistinctStates);
  }
}

TEST(CrossEngine, VmPerBoundCountsInvariantAcrossJobs) {
  for (const BugVariant *B : bothFormVariants()) {
    SCOPED_TRACE(B->Label);
    search::SearchResult Seq = runVmIcb(B->MakeVm(), B->PaperBound);
    search::SearchResult Par =
        runVmIcbParallel(B->MakeVm(), B->PaperBound, 3);
    expectSamePerBound(Seq.Stats.PerBound, Par.Stats.PerBound);
    EXPECT_EQ(Seq.Stats.Executions, Par.Stats.Executions);
    EXPECT_EQ(Seq.Stats.DistinctStates, Par.Stats.DistinctStates);
  }
}

// --- Bounded POR regressions -------------------------------------------
//
// Sleep sets must be *bound-exact*: pruning an interleaving is sound only
// if a covering interleaving with no more preemptions survives. The tests
// below assert the observable half of that contract over the whole seed
// registry: with POR on, every bug variant is still found, with the same
// (kind, message) set, each at the same minimal preemption count — on both
// executors — while never exploring more executions than POR off.

rt::ExploreResult runRtIcbFirstBug(const rt::TestCase &Test,
                                   unsigned MaxBound, bool Por) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Jobs = 1;
  Opts.Por = Por;
  rt::IcbExplorer Icb(Opts);
  return Icb.explore(Test);
}

TEST(CrossEngine, PorFindsSameBugsAtSameMinimalBoundEverywhere) {
  // Every registry bug variant, both forms. Narrow benchmarks get the
  // strong check — identical (kind, message) -> minimal-preemptions map
  // over a full keep-going sweep of the paper bound. The 5-thread Dryad
  // harness is too wide to sweep exhaustively in a unit test; there ICB's
  // bound-ordering guarantee lets a stop-at-first run stand in: the first
  // exposure *is* a minimal one, so POR must reproduce its kind and count.
  for (const BenchmarkEntry &E : allBenchmarks()) {
    bool Sweep = E.DriverThreads <= 3;
    for (const BugVariant &B : E.Bugs) {
      SCOPED_TRACE(B.Label);
      if (B.MakeRt && Sweep) {
        rt::ExploreResult Off = runRtIcb(B.MakeRt(), B.PaperBound, 1);
        rt::ExploreResult On =
            runRtIcb(B.MakeRt(), B.PaperBound, 1, /*Por=*/true);
        EXPECT_EQ(bugSignature(Off.Bugs), bugSignature(On.Bugs))
            << "rt form: POR changed the bug set or a minimal bound";
        EXPECT_LE(On.Stats.Executions, Off.Stats.Executions);
      } else if (B.MakeRt) {
        rt::ExploreResult Off =
            runRtIcbFirstBug(B.MakeRt(), B.PaperBound, false);
        rt::ExploreResult On =
            runRtIcbFirstBug(B.MakeRt(), B.PaperBound, true);
        ASSERT_TRUE(Off.foundBug());
        ASSERT_TRUE(On.foundBug()) << "rt form: POR lost the bug";
        EXPECT_EQ(Off.simplestBug()->Kind, On.simplestBug()->Kind);
        EXPECT_EQ(Off.simplestBug()->Preemptions, B.PaperBound);
        EXPECT_EQ(On.simplestBug()->Preemptions, B.PaperBound)
            << "rt form: POR moved the minimal preemption bound";
      }
      if (B.MakeVm) {
        search::SearchResult Off = runVmIcb(B.MakeVm(), B.PaperBound);
        search::SearchResult On =
            runVmIcb(B.MakeVm(), B.PaperBound, /*Por=*/true);
        EXPECT_EQ(bugSignature(Off.Bugs), bugSignature(On.Bugs))
            << "vm form: POR changed the bug set or a minimal bound";
        EXPECT_LE(On.Stats.Executions, Off.Stats.Executions);
      }
    }
  }
}

TEST(CrossEngine, PorNoExposureBelowPaperBound) {
  // Waking slept threads too late could also push a bug *above* its bound;
  // sleeping too aggressively must never surface one *below* it.
  for (const BugVariant *B : bothFormVariants()) {
    if (B->PaperBound == 0)
      continue;
    SCOPED_TRACE(B->Label);
    EXPECT_FALSE(runRtIcb(B->MakeRt(), B->PaperBound - 1, 1, true).foundBug());
    EXPECT_FALSE(runVmIcb(B->MakeVm(), B->PaperBound - 1, true).foundBug());
  }
}

TEST(CrossEngine, RtPerBoundCountsInvariantAcrossJobsWithPor) {
  // Sleep sets travel inside work items, so several workers prune exactly
  // what one does.
  for (const BugVariant *B : bothFormVariants()) {
    SCOPED_TRACE(B->Label);
    rt::ExploreResult Seq = runRtIcb(B->MakeRt(), B->PaperBound, 1, true);
    rt::ExploreResult Par = runRtIcb(B->MakeRt(), B->PaperBound, 3, true);
    expectSamePerBound(Seq.Stats.PerBound, Par.Stats.PerBound);
    EXPECT_EQ(Seq.Stats.Executions, Par.Stats.Executions);
    EXPECT_EQ(Seq.Stats.DistinctStates, Par.Stats.DistinctStates);
    EXPECT_EQ(bugSignature(Seq.Bugs), bugSignature(Par.Bugs));
  }
}

TEST(CrossEngine, VmPerBoundCountsInvariantAcrossJobsWithPor) {
  for (const BugVariant *B : bothFormVariants()) {
    SCOPED_TRACE(B->Label);
    search::SearchResult Seq = runVmIcb(B->MakeVm(), B->PaperBound, true);
    search::SearchResult Par =
        runVmIcbParallel(B->MakeVm(), B->PaperBound, 3, true);
    expectSamePerBound(Seq.Stats.PerBound, Par.Stats.PerBound);
    EXPECT_EQ(Seq.Stats.Executions, Par.Stats.Executions);
    EXPECT_EQ(Seq.Stats.DistinctStates, Par.Stats.DistinctStates);
    EXPECT_EQ(bugSignature(Seq.Bugs), bugSignature(Par.Bugs));
  }
}

/// The cost of one `--jobs 1` check to its first bug under icb_check's
/// defaults, as perfbench/reference.json pins it.
struct PinnedFirstBug {
  const char *Benchmark;
  const char *Bug;
  unsigned Bound; ///< Preemption bound of the first (and only) bug.
  uint64_t Executions, Steps, States, Deferred, Branched;
  std::vector<uint64_t> ExecutionsPerBound;
};

/// icb_check's defaults: POR on, preemption bound 4, stop at the first bug,
/// the vector-clock detector, 2^20 executions; the runtime form wherever a
/// bug has one.
search::SearchResult runFirstBug(const BugVariant &V,
                                 obs::MetricsRegistry &Reg) {
  std::unique_ptr<search::BoundPolicy> Policy =
      search::makeBoundPolicy({"preemption", 4, 0});
  search::SearchLimits Limits;
  Limits.MaxExecutions = 1u << 20;
  Limits.MaxPreemptionBound = 4;
  Limits.StopAtFirstBug = true;
  if (V.MakeRt) {
    rt::ExploreOptions O;
    O.Limits = Limits;
    O.Policy = Policy.get();
    O.Jobs = 1;
    O.Por = true;
    O.Exec.Detector = rt::DetectorKind::VectorClock;
    O.Metrics = &Reg;
    return rt::IcbExplorer(O).explore(V.MakeRt());
  }
  search::SearchOptions O;
  O.Kind = search::StrategyKind::Icb;
  O.Policy = Policy.get();
  O.Jobs = 1;
  O.UseSleepSets = true;
  O.Limits = Limits;
  O.Metrics = &Reg;
  return search::checkProgram(V.MakeVm(), O);
}

TEST(OneWorkerOrder, FirstBugCostsMatchPinnedCounts) {
  // One worker explores each bound's queue front to back and each item's
  // nonpreempting branches depth-first. Any other order reaches these
  // bugs after a different number of executions.
  const PinnedFirstBug Checks[] = {
      {"Dryad Channels", "late-write", 1, 9505, 1107597, 8589, 232100, 9508,
       {2544, 9505}},
      {"APE", "broken-stats-latch", 2, 1594, 98413, 7859, 5701, 377,
       {12, 323, 1594}},
      {"Work Stealing Queue", "pop-retry-no-lock", 2, 209, 12385, 3090, 2470,
       88, {3, 67, 209}},
      {"Bluetooth", "stop-vs-work check-then-act", 1, 63, 1094, 255, 198, 40,
       {13, 63}},
      // The model-VM form (Transaction Manager has no runtime form).
      {"Transaction Manager", "commit-upsert", 3, 304, 3198, 1153, 886, 0,
       {2, 30, 184, 304}},
  };
  for (const PinnedFirstBug &C : Checks) {
    SCOPED_TRACE(std::string(C.Benchmark) + "/" + C.Bug);
    const BenchmarkEntry *B = findBenchmark(C.Benchmark);
    ASSERT_NE(B, nullptr);
    const BugVariant *V = nullptr;
    for (const BugVariant &Candidate : B->Bugs)
      if (Candidate.Label == C.Bug)
        V = &Candidate;
    ASSERT_NE(V, nullptr);
    obs::MetricsRegistry Reg;
    search::SearchResult R = runFirstBug(*V, Reg);
    ASSERT_EQ(R.Bugs.size(), 1u);
    EXPECT_EQ(R.Bugs[0].Kind, search::BugKind::AssertFailure);
    EXPECT_EQ(R.Bugs[0].Preemptions, C.Bound);
    EXPECT_FALSE(R.Stats.Completed);
    EXPECT_EQ(R.Stats.Executions, C.Executions);
    EXPECT_EQ(R.Stats.TotalSteps, C.Steps);
    EXPECT_EQ(R.Stats.DistinctStates, C.States);
    std::vector<uint64_t> PerBound;
    for (const search::BoundCoverage &Row : R.Stats.PerBound)
      PerBound.push_back(Row.Executions);
    EXPECT_EQ(PerBound, C.ExecutionsPerBound);
#ifndef ICB_NO_METRICS
    obs::MetricsSnapshot M = Reg.snapshot();
    auto Count = [&M](obs::Counter K) {
      return M.Counters[static_cast<size_t>(K)];
    };
    EXPECT_EQ(Count(obs::Counter::Chains), C.Executions);
    EXPECT_EQ(Count(obs::Counter::DeferredItems), C.Deferred);
    EXPECT_EQ(Count(obs::Counter::BranchedItems), C.Branched);
#endif
  }
}

} // namespace
