//===- tests/obs_test.cpp - Observability subsystem tests -----------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability subsystem: shard merging, snapshot/restore algebra,
/// scaled-integer means, phase timers, the progress meter, the metrics
/// JSON dialect, and — the property everything above exists to protect —
/// byte-identical work-derived metrics between `--jobs 1` and `--jobs N`
/// runs of both executors.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Bluetooth.h"
#include "benchmarks/WorkStealingQueue.h"
#include "benchmarks/WsqModel.h"
#include "obs/Metrics.h"
#include "obs/PhaseTimer.h"
#include "obs/Progress.h"
#include "obs/TraceLog.h"
#include "rt/Explore.h"
#include "search/IcbSearch.h"
#include "session/Json.h"
#include "session/Serial.h"
#include "testutil/ResultChecks.h"
#include "vm/Interp.h"
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <string>

using namespace icb;
using namespace icb::bench;
using icb::testutil::expectSameDeterministicMetrics;
using icb::testutil::expectSameHistogram;

namespace {

[[maybe_unused]] uint64_t counterOf(const obs::MetricsSnapshot &Snap,
                                    obs::Counter C) {
  size_t I = static_cast<size_t>(C);
  return I < Snap.Counters.size() ? Snap.Counters[I] : 0;
}

//===----------------------------------------------------------------------===//
// MinMax::meanMilli
//===----------------------------------------------------------------------===//

TEST(MeanMilli, RoundsToNearest) {
  MinMax M;
  M.observe(1);
  M.observe(2);
  EXPECT_EQ(M.meanMilli(), 1500u); // 1.5 exactly.
  M.observe(2);
  EXPECT_EQ(M.meanMilli(), 1667u); // 5/3 = 1.666... rounds up.
  MinMax Down;
  Down.observe(1);
  Down.observe(1);
  Down.observe(2);
  EXPECT_EQ(Down.meanMilli(), 1333u); // 4/3 = 1.333... rounds down.
}

TEST(MeanMilli, EmptyIsZero) { EXPECT_EQ(MinMax().meanMilli(), 0u); }

TEST(MeanMilli, ExactBeyondDoublePrecision) {
  // Sum * 1000 overflows uint64 and Sum itself exceeds 2^53, where a
  // double-based mean would already be lossy; the widened multiply must
  // stay exact.
  // Odd and above 2^53 (doubles are lossy), with Sum * 1000 above 2^64
  // (the naive unwidened multiply would wrap) while the result still
  // fits a uint64.
  uint64_t Big = (uint64_t(1) << 54) + 1;
  MinMax M = MinMax::restore(Big, Big, /*Sum=*/Big * 3, /*Count=*/3);
  EXPECT_EQ(M.meanMilli(), Big * 1000);
  // A non-exact division at the same magnitude still rounds to nearest.
  MinMax N = MinMax::restore(1, Big, /*Sum=*/Big * 3 + 2, /*Count=*/3);
  EXPECT_EQ(N.meanMilli(), Big * 1000 + 667);
}

TEST(MeanMilli, RoundingStableAcrossEquivalentSplits) {
  // The same observations merged in any grouping give the same mean.
  MinMax A, B, All;
  for (uint64_t V : {7u, 11u, 13u}) {
    A.observe(V);
    All.observe(V);
  }
  for (uint64_t V : {17u, 19u}) {
    B.observe(V);
    All.observe(V);
  }
  A.merge(B);
  EXPECT_EQ(A.meanMilli(), All.meanMilli());
  EXPECT_EQ(A.meanMilli(), 13400u); // 67/5 = 13.4.
}

//===----------------------------------------------------------------------===//
// Shard and snapshot algebra
//===----------------------------------------------------------------------===//

TEST(MetricShard, MergeIsElementWise) {
  obs::MetricShard A, B;
  A.Counters[static_cast<size_t>(obs::Counter::SeenHit)] = 3;
  B.Counters[static_cast<size_t>(obs::Counter::SeenHit)] = 4;
  B.Counters[static_cast<size_t>(obs::Counter::Chains)] = 9;
  A.Phases[static_cast<size_t>(obs::Phase::Execute)].observe(100);
  B.Phases[static_cast<size_t>(obs::Phase::Execute)].observe(50);
  A.ReplayDepth.observe(2);
  B.ReplayDepth.observe(8);
  A.ExecutionsPerBound.increment(0, 5);
  B.ExecutionsPerBound.increment(2, 7);
  A.Worker.BusyNanos = 10;
  B.Worker.BusyNanos = 20;
  B.Worker.IdleNanos = 30;

  A.merge(B);
  EXPECT_EQ(A.Counters[static_cast<size_t>(obs::Counter::SeenHit)], 7u);
  EXPECT_EQ(A.Counters[static_cast<size_t>(obs::Counter::Chains)], 9u);
  const MinMax &Exec = A.Phases[static_cast<size_t>(obs::Phase::Execute)];
  EXPECT_EQ(Exec.count(), 2u);
  EXPECT_EQ(Exec.min(), 50u);
  EXPECT_EQ(Exec.max(), 100u);
  EXPECT_EQ(A.ReplayDepth.sum(), 10u);
  EXPECT_EQ(A.ExecutionsPerBound.at(0), 5u);
  EXPECT_EQ(A.ExecutionsPerBound.at(2), 7u);
  EXPECT_EQ(A.Worker.BusyNanos, 30u);
  EXPECT_EQ(A.Worker.IdleNanos, 30u);

  A.reset();
  EXPECT_EQ(A.Counters[static_cast<size_t>(obs::Counter::SeenHit)], 0u);
  EXPECT_TRUE(A.ReplayDepth.empty());
  EXPECT_EQ(A.ExecutionsPerBound.total(), 0u);
  EXPECT_EQ(A.Worker.BusyNanos, 0u);
}

TEST(MetricsRegistry, SnapshotMergesAllShardsCommutatively) {
  obs::MetricsRegistry Reg(3);
  ASSERT_EQ(Reg.shards(), 3u);
  for (unsigned I = 0; I != 3; ++I) {
    obs::count(&Reg.shard(I), obs::Counter::Chains, I + 1);
    Reg.shard(I).ReplayDepth.observe(10 * (I + 1));
    Reg.shard(I).ExecutionsPerBound.increment(I, 2);
    Reg.shard(I).Worker.BusyNanos = 100 * (I + 1);
  }
  obs::MetricsSnapshot Snap = Reg.snapshot();
#ifndef ICB_NO_METRICS
  EXPECT_EQ(counterOf(Snap, obs::Counter::Chains), 6u);
#endif
  EXPECT_EQ(Snap.ReplayDepth.count(), 3u);
  EXPECT_EQ(Snap.ReplayDepth.min(), 10u);
  EXPECT_EQ(Snap.ReplayDepth.max(), 30u);
  EXPECT_EQ(Snap.ExecutionsPerBound.total(), 6u);
  // Per-worker accounting is per shard, not summed into one.
  ASSERT_EQ(Snap.Workers.size(), 3u);
  EXPECT_EQ(Snap.Workers[1].BusyNanos, 200u);
}

TEST(MetricsRegistry, RestoreSeedsTheNextSnapshot) {
  obs::MetricsRegistry First(2);
  obs::count(&First.shard(0), obs::Counter::SeenMiss, 5);
  obs::count(&First.shard(1), obs::Counter::SeenMiss, 7);
  First.shard(0).ExecutionsPerBound.increment(1, 4);
  First.shard(0).Worker.BusyNanos = 50;
  obs::MetricsSnapshot Mid = First.snapshot();

  // A "resumed" registry continues from the checkpointed image; the
  // merged result equals one uninterrupted run's.
  obs::MetricsRegistry Second(2);
  Second.restore(Mid);
  obs::count(&Second.shard(0), obs::Counter::SeenMiss, 10);
  Second.shard(0).ExecutionsPerBound.increment(2, 1);
  Second.shard(1).Worker.IdleNanos = 9;
  obs::MetricsSnapshot End = Second.snapshot();
#ifndef ICB_NO_METRICS
  EXPECT_EQ(counterOf(End, obs::Counter::SeenMiss), 22u);
  EXPECT_EQ(End.ExecutionsPerBound.at(1), 4u);
  EXPECT_EQ(End.ExecutionsPerBound.at(2), 1u);
  ASSERT_EQ(End.Workers.size(), 2u);
  EXPECT_EQ(End.Workers[0].BusyNanos, 50u);
  EXPECT_EQ(End.Workers[1].IdleNanos, 9u);
#else
  (void)End;
#endif
}

TEST(MetricsSnapshot, EmptyDetectsAnyContent) {
  obs::MetricsSnapshot S;
  EXPECT_TRUE(S.empty());
  S.Workers.push_back({0, 0});
  EXPECT_TRUE(S.empty()) << "all-zero workers carry no information";
  S.Workers[0].IdleNanos = 1;
  EXPECT_FALSE(S.empty());
  obs::MetricsSnapshot C;
  C.Counters.assign(obs::NumCounters, 0);
  C.Counters[0] = 1;
  EXPECT_FALSE(C.empty());
}

//===----------------------------------------------------------------------===//
// ScopedPhase
//===----------------------------------------------------------------------===//

TEST(ScopedPhase, ObservesShardAndAccumulator) {
  obs::MetricShard Shard;
  uint64_t Also = 0;
  {
    obs::ScopedPhase Timer(&Shard, obs::Phase::Hash, &Also);
  }
  {
    obs::ScopedPhase Timer(&Shard, obs::Phase::Hash);
  }
#ifndef ICB_NO_METRICS
  const MinMax &Hash = Shard.Phases[static_cast<size_t>(obs::Phase::Hash)];
  EXPECT_EQ(Hash.count(), 2u);
  EXPECT_GE(Also, Hash.min());
#else
  EXPECT_TRUE(
      Shard.Phases[static_cast<size_t>(obs::Phase::Hash)].empty());
  EXPECT_EQ(Also, 0u);
#endif
}

TEST(ScopedPhase, NullShardIsSafeAndAccumulatorOnlyWorks) {
  uint64_t Idle = 0;
  {
    obs::ScopedPhase Wait(nullptr, obs::Phase::Execute, &Idle);
  }
  {
    obs::ScopedPhase Nothing(nullptr, obs::Phase::Execute);
  }
  SUCCEED(); // No crash; Idle may be 0 or tiny — both fine.
  (void)Idle;
}

#ifdef ICB_NO_METRICS
TEST(NoMetricsBuild, CountIsANoOp) {
  obs::MetricShard Shard;
  obs::count(&Shard, obs::Counter::Chains, 100);
  EXPECT_EQ(Shard.Counters[static_cast<size_t>(obs::Counter::Chains)], 0u);
  ICB_OBS(&Shard, Shard.ReplayDepth.observe(5));
  EXPECT_TRUE(Shard.ReplayDepth.empty());
}
#endif

//===----------------------------------------------------------------------===//
// TraceBuf ring and intern table
//===----------------------------------------------------------------------===//

TEST(TraceBuf, RingKeepsTheNewestWindow) {
  obs::TraceBuf Buf(4);
  EXPECT_EQ(Buf.capacity(), 4u);
  EXPECT_EQ(Buf.size(), 0u);
  for (uint64_t I = 0; I != 6; ++I) {
    obs::TraceEvent E;
    E.Nanos = I;
    E.Kind = obs::TraceEventKind::ExecBegin;
    Buf.append(E);
  }
  EXPECT_EQ(Buf.size(), 4u);
  EXPECT_EQ(Buf.dropped(), 2u) << "the two oldest events were overwritten";
  for (size_t I = 0; I != 4; ++I)
    EXPECT_EQ(Buf.at(I).Nanos, I + 2) << "at() is chronological from oldest";
}

TEST(TraceBuf, InternIdsAreStableAndZeroIsEmpty) {
  obs::TraceBuf Buf(1);
  EXPECT_EQ(Buf.intern(""), 0u);
  uint32_t Lock = Buf.intern("lock m_baseCS");
  EXPECT_NE(Lock, 0u);
  EXPECT_EQ(Buf.intern("lock m_baseCS"), Lock) << "repeat intern reuses";
  uint32_t Free = Buf.intern("free conn");
  EXPECT_NE(Free, Lock);
  EXPECT_EQ(Buf.string(Lock), "lock m_baseCS");
  EXPECT_EQ(Buf.string(0), "");
  EXPECT_EQ(Buf.string(9999), "") << "unknown ids read as the empty string";
}

TEST(TraceBuf, ZeroCapacityDropsSilently) {
  obs::TraceBuf Buf(0);
  Buf.append(obs::TraceEvent{});
  EXPECT_EQ(Buf.size(), 0u);
  EXPECT_EQ(Buf.dropped(), 0u);
}

//===----------------------------------------------------------------------===//
// ProgressMeter
//===----------------------------------------------------------------------===//

TEST(ProgressMeter, FirstDeadlineIsImmediateAndClaimedOnce) {
  FILE *Out = tmpfile();
  ASSERT_NE(Out, nullptr);
  obs::ProgressMeter Meter(/*PeriodMillis=*/3600 * 1000, Out);
  EXPECT_TRUE(Meter.due()) << "construction arms an immediate first tick";
  EXPECT_FALSE(Meter.due()) << "the next deadline is a period away";
  obs::ProgressSample S;
  S.Bound = 1;
  S.MaxBound = 2;
  S.Executions = 10;
  Meter.tick(S);
  Meter.finish(S);
  long Size = std::ftell(Out);
  EXPECT_GT(Size, 0) << "tick and finish render lines";
  std::fclose(Out);
}

TEST(ProgressMeter, RendersEstimatorColumnsWhenMassCredited) {
  FILE *Out = tmpfile();
  ASSERT_NE(Out, nullptr);
  obs::ProgressMeter Meter(/*PeriodMillis=*/3600 * 1000, Out);
  obs::ProgressSample S;
  S.Bound = 1;
  S.MaxBound = 4;
  S.Executions = 25;
  S.EstMass = obs::EstimateOne / 4; // 25% explored -> 100 projected total.
  Meter.finish(S);
  long Size = std::ftell(Out);
  ASSERT_GT(Size, 0);
  std::rewind(Out);
  std::string Text(static_cast<size_t>(Size), '\0');
  ASSERT_EQ(std::fread(Text.data(), 1, Text.size(), Out), Text.size());
  std::fclose(Out);
  EXPECT_NE(Text.find("est 100"), std::string::npos) << Text;
  EXPECT_NE(Text.find("25.00%"), std::string::npos) << Text;
}

TEST(ProgressMeter, OmitsEstimateWhileUncredited) {
  FILE *Out = tmpfile();
  ASSERT_NE(Out, nullptr);
  obs::ProgressMeter Meter(/*PeriodMillis=*/3600 * 1000, Out);
  obs::ProgressSample S;
  S.Bound = 0;
  S.Executions = 3; // EstMass = 0: estimator dark, no est column.
  Meter.finish(S);
  long Size = std::ftell(Out);
  ASSERT_GT(Size, 0);
  std::rewind(Out);
  std::string Text(static_cast<size_t>(Size), '\0');
  ASSERT_EQ(std::fread(Text.data(), 1, Text.size(), Out), Text.size());
  std::fclose(Out);
  EXPECT_EQ(Text.find("est "), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// JSON round trip
//===----------------------------------------------------------------------===//

obs::MetricsSnapshot sampleSnapshot() {
  obs::MetricsRegistry Reg(2);
  for (size_t I = 0; I != obs::NumCounters; ++I)
    Reg.shard(0).Counters[I] = 100 + I;
  Reg.shard(1).Counters[0] = 1;
  Reg.shard(0).Phases[static_cast<size_t>(obs::Phase::Replay)].observe(42);
  Reg.shard(1).Phases[static_cast<size_t>(obs::Phase::Execute)].observe(7);
  Reg.shard(0).ReplayDepth.observe(3);
  Reg.shard(0).ReplayDepth.observe(5);
  Reg.shard(1).ExecutionsPerBound.increment(0, 2);
  Reg.shard(1).ExecutionsPerBound.increment(3, 1);
  Reg.shard(0).SleepSavedPerBound.increment(1, 6);
  Reg.shard(0).EstMassPerBound.increment(0, obs::EstimateOne / 2);
  Reg.shard(1).EstMassPerBound.increment(1, obs::EstimateOne / 4);
  obs::SiteStat &Site = Reg.shard(0).Sites["lock m_baseCS"];
  Site.Taken.increment(1, 4);
  Site.Execs.increment(1, 3);
  Site.Bugs.increment(1, 1);
  Site.NewStates.increment(1, 2);
  // A NewStates-only site: tree-empty, so it travels in the timing half.
  Reg.shard(1).Sites["free conn"].NewStates.increment(2, 5);
  Reg.shard(0).Worker = {123456, 789};
  Reg.shard(1).Worker = {42, 0};
  return Reg.snapshot();
}

TEST(MetricsJson, RoundTripsExactly) {
  obs::MetricsSnapshot In = sampleSnapshot();
  session::JsonValue V = session::metricsToJson(In);
  obs::MetricsSnapshot Out;
  ASSERT_TRUE(session::metricsFromJson(V, Out));
  ASSERT_EQ(Out.Counters.size(), obs::NumCounters);
  for (size_t I = 0; I != obs::NumCounters; ++I)
    EXPECT_EQ(Out.Counters[I], In.Counters[I])
        << obs::counterName(static_cast<obs::Counter>(I));
  ASSERT_EQ(Out.Phases.size(), obs::NumPhases);
  for (size_t I = 0; I != obs::NumPhases; ++I) {
    EXPECT_EQ(Out.Phases[I].count(), In.Phases[I].count());
    EXPECT_EQ(Out.Phases[I].sum(), In.Phases[I].sum());
  }
  EXPECT_EQ(Out.ReplayDepth.sum(), In.ReplayDepth.sum());
  EXPECT_EQ(Out.ExecutionsPerBound.at(0), In.ExecutionsPerBound.at(0));
  EXPECT_EQ(Out.ExecutionsPerBound.at(3), In.ExecutionsPerBound.at(3));
  EXPECT_EQ(Out.SleepSavedPerBound.at(1), 6u);
  EXPECT_EQ(Out.EstMassPerBound.at(0), obs::EstimateOne / 2);
  EXPECT_EQ(Out.EstMassPerBound.at(1), obs::EstimateOne / 4);
  EXPECT_EQ(Out.estMassTotal(), In.estMassTotal());
  ASSERT_TRUE(Out.Sites.count("lock m_baseCS"));
  const obs::SiteStat &Site = Out.Sites.at("lock m_baseCS");
  EXPECT_EQ(Site.Taken.at(1), 4u);
  EXPECT_EQ(Site.Execs.at(1), 3u);
  EXPECT_EQ(Site.Bugs.at(1), 1u);
  EXPECT_EQ(Site.NewStates.at(1), 2u);
  // The tree-empty site still round-trips its NewStates through the
  // timing half.
  ASSERT_TRUE(Out.Sites.count("free conn"));
  EXPECT_EQ(Out.Sites.at("free conn").NewStates.at(2), 5u);
  EXPECT_EQ(Out.Sites.at("free conn").Taken.total(), 0u);
  ASSERT_EQ(Out.Workers.size(), In.Workers.size());
  for (size_t I = 0; I != Out.Workers.size(); ++I) {
    EXPECT_EQ(Out.Workers[I].BusyNanos, In.Workers[I].BusyNanos);
    EXPECT_EQ(Out.Workers[I].IdleNanos, In.Workers[I].IdleNanos);
  }
}

TEST(MetricsJson, SectionsSortCountersByClass) {
  session::JsonValue V = session::metricsToJson(sampleSnapshot());
  const session::JsonValue *Det = V.find("counters");
  const session::JsonValue *Timing = V.find("timing");
  ASSERT_NE(Det, nullptr);
  ASSERT_NE(Timing, nullptr);
  EXPECT_NE(Det->find("seen_hit"), nullptr);
  EXPECT_EQ(Det->find("steal_attempts"), nullptr)
      << "timing-class counters must not pollute the deterministic section";
  const session::JsonValue *TCounters = Timing->find("counters");
  ASSERT_NE(TCounters, nullptr);
  EXPECT_NE(TCounters->find("steal_attempts"), nullptr);
  // Site profiles split the same way: Taken/Execs are tree-derived and
  // deterministic; Bugs and NewStates attribution is timing-class (the
  // claim winner observes them), and a site with only timing-class data
  // must not surface in the deterministic section at all.
  const session::JsonValue *Sites = V.find("sites");
  ASSERT_NE(Sites, nullptr);
  const session::JsonValue *LockRow = Sites->find("lock m_baseCS");
  ASSERT_NE(LockRow, nullptr);
  EXPECT_NE(LockRow->find("taken"), nullptr);
  EXPECT_NE(LockRow->find("execs"), nullptr);
  EXPECT_EQ(LockRow->find("bugs"), nullptr)
      << "bug attribution is timing-class and must not pollute the "
         "deterministic site rows";
  EXPECT_EQ(Sites->find("free conn"), nullptr)
      << "NewStates-only sites are attribution-dependent";
  const session::JsonValue *SiteNew = Timing->find("site_new_states");
  ASSERT_NE(SiteNew, nullptr);
  EXPECT_NE(SiteNew->find("free conn"), nullptr);
  const session::JsonValue *SiteBugs = Timing->find("site_bugs");
  ASSERT_NE(SiteBugs, nullptr);
  EXPECT_NE(SiteBugs->find("lock m_baseCS"), nullptr);
  // Every minmax export carries the scaled mean for generic readers.
  const session::JsonValue *Depth = V.find("replay_depth");
  ASSERT_NE(Depth, nullptr);
  uint64_t MeanMilli = 0;
  EXPECT_TRUE(Depth->getU64("mean_milli", MeanMilli));
  EXPECT_EQ(MeanMilli, 4000u); // (3 + 5) / 2 = 4.
}

TEST(MetricsJson, StrictParseRejectsMissingPieces) {
  session::JsonValue V = session::metricsToJson(sampleSnapshot());
  obs::MetricsSnapshot Out;
  session::JsonValue NoDepth = V;
  NoDepth.set("replay_depth", session::JsonValue::null());
  EXPECT_FALSE(session::metricsFromJson(NoDepth, Out));
  session::JsonValue NoTiming = V;
  NoTiming.set("timing", session::JsonValue::null());
  EXPECT_FALSE(session::metricsFromJson(NoTiming, Out));
  EXPECT_FALSE(session::metricsFromJson(session::JsonValue::null(), Out));
}

//===----------------------------------------------------------------------===//
// Determinism across worker counts, both executors
//===----------------------------------------------------------------------===//

#ifndef ICB_NO_METRICS

obs::MetricsSnapshot runVmIcb(const vm::Program &Prog, unsigned Jobs,
                              bool UseCache) {
  obs::MetricsRegistry Reg;
  vm::Interp VM(Prog);
  search::IcbSearch::Options Opts;
  Opts.Jobs = Jobs;
  Opts.UseStateCache = UseCache;
  Opts.Limits.MaxPreemptionBound = 2;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Metrics = &Reg;
  search::IcbSearch(Opts).run(VM);
  return Reg.snapshot();
}

TEST(MetricsDeterminism, VmExecutorJobsOneVsN) {
  for (bool UseCache : {false, true}) {
    SCOPED_TRACE(UseCache ? "state cache on" : "state cache off");
    vm::Program Prog = wsqModel({2, WsqBug::PopCheckThenAct});
    obs::MetricsSnapshot Seq = runVmIcb(Prog, 1, UseCache);
    EXPECT_GT(counterOf(Seq, obs::Counter::Chains), 0u);
    if (UseCache) {
      EXPECT_GT(counterOf(Seq, obs::Counter::ItemMiss), 0u);
    }
    for (unsigned Jobs : {2u, 4u}) {
      SCOPED_TRACE("jobs " + std::to_string(Jobs));
      expectSameDeterministicMetrics(Seq, runVmIcb(Prog, Jobs, UseCache));
    }
  }
}

obs::MetricsSnapshot runRtIcb(const rt::TestCase &Test, unsigned Jobs) {
  obs::MetricsRegistry Reg;
  rt::ExploreOptions Opts;
  Opts.Limits.MaxPreemptionBound = 2;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Jobs = Jobs;
  Opts.Metrics = &Reg;
  rt::IcbExplorer(Opts).explore(Test);
  return Reg.snapshot();
}

TEST(MetricsDeterminism, RtExecutorJobsOneVsN) {
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopRetryNoLock});
  obs::MetricsSnapshot Seq = runRtIcb(Test, 1);
  EXPECT_GT(counterOf(Seq, obs::Counter::Chains), 0u);
  EXPECT_GT(counterOf(Seq, obs::Counter::ReplaySteps), 0u);
  EXPECT_GT(counterOf(Seq, obs::Counter::TerminalMiss), 0u);
  for (unsigned Jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    expectSameDeterministicMetrics(Seq, runRtIcb(Test, Jobs));
  }
}

TEST(MetricsDeterminism, RtCleanTestToo) {
  rt::TestCase Test = bluetoothTest({2, /*WithBug=*/false});
  obs::MetricsSnapshot Seq = runRtIcb(Test, 1);
  expectSameDeterministicMetrics(Seq, runRtIcb(Test, 3));
}

//===----------------------------------------------------------------------===//
// Schedule-space estimator
//===----------------------------------------------------------------------===//

// Pruned configurations (state cache + sleep sets) keep the full spaces
// small enough to exhaust; the estimator must conserve mass under pruning
// too, since skipped subtrees credit their mass on the chain that skips.
search::SearchResult runVmBounded(const vm::Program &Prog, unsigned MaxBound,
                                  obs::MetricsRegistry *Reg) {
  vm::Interp VM(Prog);
  search::IcbSearch::Options Opts;
  Opts.UseStateCache = true;
  Opts.UseSleepSets = true;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Metrics = Reg;
  return search::IcbSearch(Opts).run(VM);
}

rt::ExploreResult runRtBounded(const rt::TestCase &Test, unsigned MaxBound,
                               obs::MetricsRegistry *Reg, unsigned Jobs = 1) {
  rt::ExploreOptions Opts;
  Opts.Por = true;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Jobs = Jobs;
  Opts.Metrics = Reg;
  return rt::IcbExplorer(Opts).explore(Test);
}

TEST(ScheduleEstimator, CompletedVmSearchCreditsAllMassExactly) {
  obs::MetricsRegistry Reg;
  search::SearchResult R =
      runVmBounded(wsqModel({2, WsqBug::PopCheckThenAct}), 64, &Reg);
  ASSERT_TRUE(R.Stats.Completed) << "space must be exhausted for exactness";
  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.estMassTotal(), obs::EstimateOne);
  EXPECT_EQ(Snap.estimatedTotalExecutions(R.Stats.Executions),
            R.Stats.Executions);
  EXPECT_EQ(Snap.exploredPpm(), 1000000u);
}

TEST(ScheduleEstimator, CompletedRtSearchCreditsAllMassExactly) {
  obs::MetricsRegistry Reg;
  rt::ExploreResult R = runRtBounded(
      workStealingTest({2, 2, WsqBug::PopRetryNoLock}), 64, &Reg);
  ASSERT_TRUE(R.Stats.Completed);
  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.estMassTotal(), obs::EstimateOne);
  EXPECT_EQ(Snap.estimatedTotalExecutions(R.Stats.Executions),
            R.Stats.Executions);
}

TEST(ScheduleEstimator, ParallelMassHistogramMatchesSequentialExactly) {
  rt::TestCase Test = workStealingTest({2, 2, WsqBug::PopRetryNoLock});
  obs::MetricsRegistry Seq, Par;
  rt::ExploreResult RS = runRtBounded(Test, 64, &Seq);
  rt::ExploreResult RP = runRtBounded(Test, 64, &Par, /*Jobs=*/4);
  ASSERT_TRUE(RS.Stats.Completed);
  ASSERT_TRUE(RP.Stats.Completed);
  obs::MetricsSnapshot S = Seq.snapshot();
  obs::MetricsSnapshot P = Par.snapshot();
  EXPECT_EQ(P.estMassTotal(), obs::EstimateOne);
  expectSameHistogram("estimator mass", S.EstMassPerBound, P.EstMassPerBound);
}

/// Exhausts \p Run's space for the true count, then walks bounds 1..
/// until a bound covers the space, checking the Knuth-style estimate at
/// each truncated bound. A uniform-split estimator systematically
/// undershoots at shallow preemption bounds — a deferred subtree is far
/// larger than an even share of its parent's mass — so the honest
/// contract is: estimates are positive, never more than 2x above the
/// truth, converge monotonically from below as the bound deepens, and
/// every truncated estimate is within \p Factor of the truth — with the
/// shallowest bound the worst case (measured per-model ratios that
/// EXPERIMENTS.md records).
template <typename Runner>
void checkTruncatedEstimateAccuracy(Runner Run, uint64_t Factor) {
  obs::MetricsRegistry FullReg;
  auto Full = Run(64u, &FullReg, 1u);
  ASSERT_TRUE(Full.Stats.Completed);
  uint64_t Truth = Full.Stats.Executions;
  uint64_t Prev = 0;
  bool Checked = false;
  for (unsigned Bound = 1; Bound <= 8; ++Bound) {
    SCOPED_TRACE("bound " + std::to_string(Bound));
    obs::MetricsRegistry Reg;
    auto R = Run(Bound, &Reg, 1u);
    if (R.Stats.Completed) {
      // The bound covers the whole space; the estimate is exact there
      // (CompletedSearchCreditsAllMassExactly) and no longer truncated.
      EXPECT_EQ(Reg.snapshot().estimatedTotalExecutions(R.Stats.Executions),
                Truth);
      break;
    }
    uint64_t Est = Reg.snapshot().estimatedTotalExecutions(R.Stats.Executions);
    std::printf("  [estimator] bound %u: estimate %llu, truth %llu "
                "(%.1f%% of space explored)\n",
                Bound, static_cast<unsigned long long>(Est),
                static_cast<unsigned long long>(Truth),
                1e-4 * Reg.snapshot().exploredPpm());
    ASSERT_GT(Est, 0u);
    EXPECT_LE(Est, Truth * 2) << "estimate " << Est << " vs truth " << Truth;
    EXPECT_GE(Est, Prev) << "a deeper bound must not lose estimate mass";
    EXPECT_GE(Est * Factor, Truth)
        << "estimate " << Est << " vs truth " << Truth;
    Prev = Est;
    Checked = true;
  }
  EXPECT_TRUE(Checked) << "space trivially exhausted; pick a deeper model";
}

TEST(ScheduleEstimator, TruncatedVmEstimateConvergesFromBelow) {
  vm::Program Prog = wsqModel({2, WsqBug::PopCheckThenAct});
  checkTruncatedEstimateAccuracy(
      [&](unsigned Bound, obs::MetricsRegistry *Reg, unsigned) {
        return runVmBounded(Prog, Bound, Reg);
      },
      /*Factor=*/8);
}

TEST(ScheduleEstimator, TruncatedRtEstimateConvergesFromBelow) {
  rt::TestCase Test = workStealingTest({2, 2, WsqBug::PopRetryNoLock});
  checkTruncatedEstimateAccuracy(
      [&](unsigned Bound, obs::MetricsRegistry *Reg, unsigned Jobs) {
        return runRtBounded(Test, Bound, Reg, Jobs);
      },
      /*Factor=*/512);
}

TEST(ScheduleEstimator, TruncatedBluetoothEstimateConvergesFromBelow) {
  rt::TestCase Test = bluetoothTest({1, /*WithBug=*/true});
  checkTruncatedEstimateAccuracy(
      [&](unsigned Bound, obs::MetricsRegistry *Reg, unsigned Jobs) {
        return runRtBounded(Test, Bound, Reg, Jobs);
      },
      /*Factor=*/8);
}

//===----------------------------------------------------------------------===//
// Preemption-site profiles
//===----------------------------------------------------------------------===//

TEST(PreemptionSites, BuggyRunAttributesBugsToConcreteSites) {
  obs::MetricsRegistry Reg;
  rt::ExploreResult R =
      runRtBounded(bluetoothTest({2, /*WithBug=*/true}), 2, &Reg);
  ASSERT_FALSE(R.Bugs.empty());
  obs::MetricsSnapshot Snap = Reg.snapshot();
  ASSERT_FALSE(Snap.Sites.empty());
  uint64_t Taken = 0, Execs = 0, BugHits = 0;
  size_t Concrete = 0;
  for (const auto &[Name, S] : Snap.Sites) {
    EXPECT_FALSE(Name.empty());
    Taken += S.Taken.total();
    Execs += S.Execs.total();
    BugHits += S.Bugs.total();
    // Bound-0 chains descend from the pseudo-site "root"; every concrete
    // site is born from a deferred preemption, which executes at >= 1.
    if (Name == "root")
      continue;
    ++Concrete;
    EXPECT_EQ(S.Execs.at(0), 0u) << Name;
    EXPECT_EQ(S.Bugs.at(0), 0u) << Name;
  }
  EXPECT_GT(Concrete, 0u) << "a bounded run must name concrete sites";
  EXPECT_GT(Taken, 0u);
  EXPECT_GT(Execs, 0u);
  EXPECT_LE(Execs, R.Stats.Executions)
      << "every chain is owned by exactly one seeding site";
  EXPECT_GT(BugHits, 0u)
      << "the seeded bug needs a preemption, so its chain names a site";
}

//===----------------------------------------------------------------------===//
// Perfetto trace export
//===----------------------------------------------------------------------===//

TEST(PerfettoTrace, ExportIsSchemaConsistent) {
  obs::MetricsRegistry Reg;
  Reg.enableTracing(1 << 16);
  ASSERT_TRUE(Reg.tracingEnabled());
  rt::TestCase Test = workStealingTest({2, 2, WsqBug::PopRetryNoLock});
  runRtBounded(Test, 2, &Reg, /*Jobs=*/2);
  ASSERT_EQ(Reg.traceBufs(), 2u);

  std::string Path = testing::TempDir() + "icb_obs_trace_test.json";
  std::string Error;
  ASSERT_TRUE(obs::writePerfettoTrace(Reg, Path, &Error)) << Error;
  std::string Text;
  ASSERT_TRUE(session::readFile(Path, Text, &Error)) << Error;
  std::remove(Path.c_str());

  ASSERT_EQ(Text.rfind("{\"traceEvents\":[", 0), 0u) << "envelope";
  // One event object per line. The flow invariant ui.perfetto.dev needs:
  // every flow finish ("f") id was emitted by some flow start ("s").
  auto FieldOf = [](const std::string &Line, const char *Key) {
    size_t P = Line.find(Key);
    if (P == std::string::npos)
      return std::string();
    P += std::strlen(Key);
    return Line.substr(P, Line.find('"', P) - P);
  };
  std::set<std::string> Starts, Finishes;
  size_t Slices = 0, Instants = 0, Metas = 0;
  for (size_t At = 0; At < Text.size();) {
    size_t End = Text.find('\n', At);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(At, End - At);
    At = End + 1;
    std::string Ph = FieldOf(Line, "\"ph\":\"");
    if (Ph == "X") {
      ++Slices;
      EXPECT_NE(Line.find("\"dur\":"), std::string::npos) << Line;
    } else if (Ph == "i") {
      ++Instants;
    } else if (Ph == "M") {
      ++Metas;
    } else if (Ph == "s") {
      Starts.insert(FieldOf(Line, "\"id\":\""));
    } else if (Ph == "f") {
      Finishes.insert(FieldOf(Line, "\"id\":\""));
    } else {
      EXPECT_TRUE(Ph.empty()) << "unexpected event kind: " << Line;
    }
  }
  EXPECT_GT(Slices, 0u) << "phase slices";
  EXPECT_GT(Instants, 0u) << "exec/branch instants";
  EXPECT_EQ(Metas, 2u) << "one thread_name record per worker track";
  EXPECT_FALSE(Starts.empty());
  EXPECT_FALSE(Finishes.empty());
  for (const std::string &Id : Finishes)
    EXPECT_TRUE(Starts.count(Id)) << "flow finish without a start: " << Id;
}

#endif // !ICB_NO_METRICS

} // namespace
