//===- tests/parallel_test.cpp - Parallel ICB engine tests ----------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the ICB search engine's workers and the concurrency
/// infrastructure under them: determinism across worker counts, agreement
/// between one worker and many, the sharded state cache under
/// concurrent inserts, the incremental state digest against a full rescan,
/// and the work-stealing deque / striped queue / worker pool primitives.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/BluetoothModel.h"
#include "benchmarks/TxnManagerModel.h"
#include "benchmarks/WsqModel.h"
#include "search/Checker.h"
#include "search/IcbSearch.h"
#include "search/ShardedStateCache.h"
#include "support/StripedQueue.h"
#include "support/WorkStealingDeque.h"
#include "support/WorkerPool.h"
#include "testutil/TestPrograms.h"
#include "vm/Interp.h"
#include <algorithm>
#include <atomic>
#include <deque>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <vector>

using namespace icb;
using namespace icb::bench;
using namespace icb::search;
using namespace icb::testutil;

namespace {

SearchResult runSequentialIcb(const vm::Program &Prog, unsigned MaxBound,
                              bool UseCache) {
  IcbSearch::Options Opts;
  Opts.UseStateCache = UseCache;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  IcbSearch Search(Opts);
  vm::Interp VM(Prog);
  return Search.run(VM);
}

SearchResult runParallelIcb(const vm::Program &Prog, unsigned Jobs,
                            unsigned MaxBound, bool UseCache) {
  IcbSearch::Options Opts;
  Opts.Jobs = Jobs;
  Opts.UseStateCache = UseCache;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  IcbSearch Search(Opts);
  vm::Interp VM(Prog);
  return Search.run(VM);
}

std::vector<Bug> sortedBugs(std::vector<Bug> Bugs) {
  std::sort(Bugs.begin(), Bugs.end(), [](const Bug &L, const Bug &R) {
    return std::tie(L.Kind, L.Message, L.Preemptions) <
           std::tie(R.Kind, R.Message, R.Preemptions);
  });
  return Bugs;
}

void expectSameHistogram(const Histogram &L, const Histogram &R) {
  EXPECT_EQ(L.total(), R.total());
  size_t Buckets = std::max(L.size(), R.size());
  for (size_t I = 0; I != Buckets; ++I)
    EXPECT_EQ(L.at(I), R.at(I)) << "bucket " << I;
}

void expectSameMinMax(const MinMax &L, const MinMax &R) {
  EXPECT_EQ(L.count(), R.count());
  EXPECT_EQ(L.min(), R.min());
  EXPECT_EQ(L.max(), R.max());
  EXPECT_EQ(L.sum(), R.sum());
}

/// Compares what the engines guarantee to agree on. With the item cache
/// off, everything is comparable. With the cache on, *which* chain claims
/// a shared (state, thread) node is timing-dependent (several workers) or
/// LIFO-order-dependent (one worker), so the per-execution step/blocking
/// distributions and the exposing schedules are attribution-dependent and
/// excluded (PerExecution = false); the aggregate counts, per-bound
/// snapshots, preemption histogram, and bug sets with minimal preemption
/// counts must still match exactly.
void expectSameSearch(const SearchResult &L, const SearchResult &R,
                      bool PerExecution) {
  EXPECT_EQ(L.Stats.Executions, R.Stats.Executions);
  EXPECT_EQ(L.Stats.TotalSteps, R.Stats.TotalSteps);
  EXPECT_EQ(L.Stats.DistinctStates, R.Stats.DistinctStates);
  EXPECT_EQ(L.Stats.Completed, R.Stats.Completed);
  if (PerExecution) {
    expectSameMinMax(L.Stats.StepsPerExecution, R.Stats.StepsPerExecution);
    expectSameMinMax(L.Stats.BlockingPerExecution,
                     R.Stats.BlockingPerExecution);
  }
  expectSameMinMax(L.Stats.PreemptionsPerExecution,
                   R.Stats.PreemptionsPerExecution);
  expectSameHistogram(L.Stats.PreemptionHistogram,
                      R.Stats.PreemptionHistogram);
  ASSERT_EQ(L.Stats.PerBound.size(), R.Stats.PerBound.size());
  for (size_t I = 0; I != L.Stats.PerBound.size(); ++I) {
    EXPECT_EQ(L.Stats.PerBound[I].Bound, R.Stats.PerBound[I].Bound);
    EXPECT_EQ(L.Stats.PerBound[I].States, R.Stats.PerBound[I].States);
    EXPECT_EQ(L.Stats.PerBound[I].Executions,
              R.Stats.PerBound[I].Executions);
  }
  std::vector<Bug> LB = sortedBugs(L.Bugs), RB = sortedBugs(R.Bugs);
  ASSERT_EQ(LB.size(), RB.size());
  for (size_t I = 0; I != LB.size(); ++I) {
    EXPECT_EQ(LB[I].Kind, RB[I].Kind);
    EXPECT_EQ(LB[I].Message, RB[I].Message);
    EXPECT_EQ(LB[I].Preemptions, RB[I].Preemptions);
  }
}

// --- Parallel engine vs sequential reference -----------------------------

TEST(ParallelIcb, MatchesSequentialOnCorrectWsq) {
  vm::Program Prog = wsqModel({3, WsqBug::None});
  for (bool Cache : {false, true}) {
    SearchResult Seq = runSequentialIcb(Prog, 2, Cache);
    SearchResult Par = runParallelIcb(Prog, 4, 2, Cache);
    EXPECT_FALSE(Seq.foundBug());
    EXPECT_FALSE(Par.foundBug());
    expectSameSearch(Seq, Par, /*PerExecution=*/!Cache);
  }
}

TEST(ParallelIcb, MatchesSequentialOnBuggyWsqVariants) {
  for (WsqBug Bug : {WsqBug::PopCheckThenAct, WsqBug::PopRetryNoLock,
                     WsqBug::UnsynchronizedSteal}) {
    vm::Program Prog = wsqModel({2, Bug});
    for (bool Cache : {false, true}) {
      SearchResult Seq = runSequentialIcb(Prog, 2, Cache);
      SearchResult Par = runParallelIcb(Prog, 4, 2, Cache);
      EXPECT_TRUE(Seq.foundBug()) << wsqBugName(Bug);
      EXPECT_TRUE(Par.foundBug()) << wsqBugName(Bug);
      expectSameSearch(Seq, Par, /*PerExecution=*/!Cache);
    }
  }
}

TEST(ParallelIcb, MatchesSequentialOnRegistryModels) {
  // Every registry benchmark with a model-VM form.
  const vm::Program Programs[] = {
      bluetoothModel(2, /*WithBug=*/false), bluetoothModel(2, true),
      txnManagerModel({2, TxnBug::None}),
      txnManagerModel({2, TxnBug::CommitStomp}),
      wsqModel({3, WsqBug::None})};
  for (const vm::Program &Prog : Programs) {
    for (bool Cache : {false, true}) {
      SearchResult Seq = runSequentialIcb(Prog, 2, Cache);
      SearchResult Par = runParallelIcb(Prog, 4, 2, Cache);
      expectSameSearch(Seq, Par, /*PerExecution=*/!Cache);
    }
  }
}

TEST(ParallelIcb, MatchesSequentialOnTestPrograms) {
  const vm::Program Programs[] = {racyCounter(2), lockOrderDeadlock(),
                                  eventPingPong(2), preemptionLadder(2)};
  for (const vm::Program &Prog : Programs) {
    for (bool Cache : {false, true}) {
      SearchResult Seq = runSequentialIcb(Prog, 3, Cache);
      SearchResult Par = runParallelIcb(Prog, 3, 3, Cache);
      expectSameSearch(Seq, Par, /*PerExecution=*/!Cache);
    }
  }
}

TEST(ParallelIcb, DeterministicAcrossWorkerCounts) {
  // With the item cache off the engine enumerates the complete bounded
  // tree, so results — including the exposing schedules — are identical
  // no matter how many workers race over the state space: several
  // workers canonicalize duplicate bug reports to the minimal exposure,
  // which here is also the one a lone worker, running inline on the
  // calling thread, meets first.
  vm::Program Prog = wsqModel({3, WsqBug::PopCheckThenAct});
  SearchResult Ref = runParallelIcb(Prog, 1, 2, /*UseCache=*/false);
  ASSERT_TRUE(Ref.foundBug());
  for (unsigned Jobs : {2u, 4u, 8u}) {
    SearchResult R = runParallelIcb(Prog, Jobs, 2, /*UseCache=*/false);
    expectSameSearch(Ref, R, /*PerExecution=*/true);
    ASSERT_EQ(Ref.Bugs.size(), R.Bugs.size());
    for (size_t I = 0; I != Ref.Bugs.size(); ++I) {
      EXPECT_EQ(Ref.Bugs[I].Steps, R.Bugs[I].Steps) << "jobs " << Jobs;
      EXPECT_EQ(Ref.Bugs[I].Schedule, R.Bugs[I].Schedule)
          << "jobs " << Jobs;
    }
  }
}

TEST(ParallelIcb, DeterministicAggregatesWithCacheAcrossWorkerCounts) {
  // With the item cache on, the claimed-node set — hence every aggregate
  // count and the bug set — is still identical at any worker count; only
  // chain-length attribution may move (excluded by PerExecution=false).
  vm::Program Prog = wsqModel({3, WsqBug::PopCheckThenAct});
  SearchResult Ref = runParallelIcb(Prog, 1, 2, /*UseCache=*/true);
  ASSERT_TRUE(Ref.foundBug());
  for (unsigned Jobs : {2u, 4u, 8u})
    expectSameSearch(Ref, runParallelIcb(Prog, Jobs, 2, /*UseCache=*/true),
                     /*PerExecution=*/false);
}

TEST(ParallelIcb, FindsMinimalPreemptionBugs) {
  SearchResult R = runParallelIcb(racyCounter(2), 4, 2, /*UseCache=*/true);
  ASSERT_TRUE(R.foundBug());
  EXPECT_EQ(R.simplestBug()->Preemptions, 1u);

  R = runParallelIcb(lockOrderDeadlock(), 4, 2, /*UseCache=*/true);
  ASSERT_TRUE(R.foundBug());
  EXPECT_EQ(R.Bugs.front().Kind, BugKind::Deadlock);
  EXPECT_EQ(R.simplestBug()->Preemptions, 1u);
}

TEST(ParallelIcb, RespectsPreemptionBound) {
  // The ladder needs 3 preemptions; below that bound four workers must
  // report a clean (and non-exhausted) search, exactly like one.
  vm::Program Prog = preemptionLadder(3);
  SearchResult Low = runParallelIcb(Prog, 4, 2, /*UseCache=*/true);
  EXPECT_FALSE(Low.foundBug());
  SearchResult High = runParallelIcb(Prog, 4, 3, /*UseCache=*/true);
  ASSERT_TRUE(High.foundBug());
  EXPECT_EQ(High.simplestBug()->Preemptions, 3u);
  expectSameSearch(runSequentialIcb(Prog, 3, true), High,
                   /*PerExecution=*/false);
}

TEST(ParallelIcb, CheckerDispatchesOnJobs) {
  // Through the public checkProgram() entry point: Jobs picks a worker
  // count, not a strategy; results agree.
  SearchOptions Opts;
  Opts.Kind = StrategyKind::Icb;
  Opts.Limits.MaxPreemptionBound = 2;
  Opts.Limits.StopAtFirstBug = false;
  vm::Program Prog = wsqModel({3, WsqBug::None});
  Opts.Jobs = 1;
  SearchResult Seq = checkProgram(Prog, Opts);
  Opts.Jobs = 4;
  SearchResult Par = checkProgram(Prog, Opts);
  expectSameSearch(Seq, Par, /*PerExecution=*/true);
  EXPECT_STREQ(makeStrategy(Opts)->name().c_str(), "icb");
}

// --- Sharded state cache --------------------------------------------------

TEST(ShardedStateCache, BasicsAndGrowth) {
  ShardedStateCache Cache(4);
  EXPECT_EQ(Cache.shards(), 4u);
  EXPECT_TRUE(Cache.insert(42));
  EXPECT_FALSE(Cache.insert(42));
  EXPECT_TRUE(Cache.contains(42));
  EXPECT_FALSE(Cache.contains(43));
  // Digest 0 must behave like any other value (it is the empty-slot
  // sentinel internally).
  EXPECT_TRUE(Cache.insert(0));
  EXPECT_FALSE(Cache.insert(0));
  EXPECT_TRUE(Cache.contains(0));
  EXPECT_EQ(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.contains(42));

  // Low-bit-only digests all map to shard 0: exercises open-addressing
  // growth well past the initial capacity of a single shard.
  for (uint64_t I = 1; I <= 10000; ++I)
    EXPECT_TRUE(Cache.insert(I));
  for (uint64_t I = 1; I <= 10000; ++I)
    EXPECT_TRUE(Cache.contains(I));
  EXPECT_EQ(Cache.size(), 10000u);
}

TEST(ShardedStateCache, ShardCountRounding) {
  EXPECT_EQ(ShardedStateCache(0).shards(), 64u);
  EXPECT_EQ(ShardedStateCache(1).shards(), 1u);
  EXPECT_EQ(ShardedStateCache(3).shards(), 4u);
  EXPECT_EQ(ShardedStateCache(65).shards(), 128u);
}

TEST(ShardedStateCache, ConcurrentInsertUniqueness) {
  // Every digest is attempted by every thread; exactly one attempt may win.
  constexpr unsigned Threads = 4;
  constexpr uint64_t Digests = 20000;
  ShardedStateCache Cache(8);
  std::atomic<uint64_t> Wins{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Cache, &Wins, T] {
      uint64_t Local = 0;
      // Different visit orders per thread maximize same-digest collisions.
      for (uint64_t I = 0; I != Digests; ++I) {
        uint64_t D = (T % 2) ? Digests - I : I + 1;
        if (Cache.insert(hashMix(D)))
          ++Local;
      }
      Wins.fetch_add(Local, std::memory_order_relaxed);
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_EQ(Wins.load(), Digests);
  EXPECT_EQ(Cache.size(), Digests);
  for (uint64_t I = 1; I <= Digests; ++I)
    EXPECT_TRUE(Cache.contains(hashMix(I)));
}

// --- Incremental state digest ---------------------------------------------

TEST(IncrementalHash, MatchesFullRescanUnderRandomSchedules) {
  const vm::Program Programs[] = {racyCounter(3), lockOrderDeadlock(),
                                  eventPingPong(3), semaphoreBuffer(2, 4),
                                  wsqModel({3, WsqBug::None}),
                                  wsqModel({3, WsqBug::UnsynchronizedSteal})};
  uint64_t Rng = 0x9e3779b97f4a7c15ULL;
  auto Next = [&Rng] {
    Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return Rng >> 33;
  };
  for (const vm::Program &Prog : Programs) {
    vm::Interp VM(Prog);
    for (unsigned Run = 0; Run != 40; ++Run) {
      vm::State S = VM.initialState();
      ASSERT_EQ(S.hash(), S.computeHash());
      for (unsigned Step = 0; Step != 400; ++Step) {
        std::vector<vm::ThreadId> Enabled = VM.enabledThreads(S);
        if (Enabled.empty())
          break;
        vm::StepResult R = VM.step(S, Enabled[Next() % Enabled.size()]);
        ASSERT_EQ(S.hash(), S.computeHash())
            << Prog.Name << " run " << Run << " step " << Step;
        if (R.Status != vm::StepStatus::Ok)
          break;
      }
    }
  }
}

TEST(IncrementalHash, MutatorsComposeSymmetrically) {
  vm::Program Prog = racyCounter(2);
  vm::Interp VM(Prog);
  vm::State S = VM.initialState();
  uint64_t Before = S.hash();
  int64_t Old = S.Globals[0];
  S.setGlobal(0, Old + 7);
  EXPECT_NE(S.hash(), Before);
  EXPECT_EQ(S.hash(), S.computeHash());
  S.setGlobal(0, Old);
  EXPECT_EQ(S.hash(), Before); // XOR pairs cancel exactly.
}

// --- Concurrency primitives -----------------------------------------------

TEST(WorkStealingDeque, OwnerLifoThiefFifo) {
  WorkStealingDeque<int> D;
  D.pushBottom(1);
  D.pushBottom(2);
  D.pushBottom(3);
  int V = 0;
  ASSERT_TRUE(D.tryPopBottom(V));
  EXPECT_EQ(V, 3); // Owner pops newest.
  ASSERT_TRUE(D.trySteal(V));
  EXPECT_EQ(V, 1); // Thief steals oldest.
  ASSERT_TRUE(D.tryPopBottom(V));
  EXPECT_EQ(V, 2);
  EXPECT_FALSE(D.tryPopBottom(V));
  EXPECT_FALSE(D.trySteal(V));
  EXPECT_EQ(D.sizeHint(), 0u);
}

TEST(WorkStealingDeque, ConcurrentConservation) {
  // Owner pushes N and pops; thieves steal; every item is consumed exactly
  // once.
  constexpr int N = 20000;
  WorkStealingDeque<int> D;
  std::atomic<int64_t> Consumed{0};
  std::atomic<int> Popped{0};
  std::thread Owner([&] {
    int V = 0;
    for (int I = 1; I <= N; ++I) {
      D.pushBottom(int(I));
      if (I % 3 == 0 && D.tryPopBottom(V)) {
        Consumed.fetch_add(V);
        Popped.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> Thieves;
  std::atomic<bool> Done{false};
  for (int T = 0; T != 2; ++T)
    Thieves.emplace_back([&] {
      int V = 0;
      while (!Done.load() || D.sizeHint() != 0)
        if (D.trySteal(V)) {
          Consumed.fetch_add(V);
          Popped.fetch_add(1);
        }
    });
  Owner.join();
  Done.store(true);
  for (std::thread &T : Thieves)
    T.join();
  EXPECT_EQ(Popped.load(), N);
  EXPECT_EQ(Consumed.load(), int64_t(N) * (N + 1) / 2);
}

TEST(WorkStealingDeque, GrowthUnderConcurrentStealing) {
  // Bursts far past the initial ring capacity force repeated growth while
  // thieves are reading the old rings; every item must still be consumed
  // exactly once.
  constexpr int Bursts = 50;
  constexpr int BurstSize = 1000; // >> initial capacity of 64.
  constexpr int N = Bursts * BurstSize;
  WorkStealingDeque<int> D;
  std::atomic<int64_t> Consumed{0};
  std::atomic<int> Count{0};
  std::atomic<bool> Done{false};
  std::vector<std::thread> Thieves;
  for (int T = 0; T != 3; ++T)
    Thieves.emplace_back([&] {
      int V = 0;
      while (!Done.load() || D.sizeHint() != 0)
        if (D.trySteal(V)) {
          Consumed.fetch_add(V);
          Count.fetch_add(1);
        }
    });
  int V = 0;
  for (int Burst = 0; Burst != Bursts; ++Burst) {
    for (int I = 0; I != BurstSize; ++I)
      D.pushBottom(Burst * BurstSize + I + 1);
    // Pop a few back so Bottom wanders both ways across ring boundaries.
    for (int I = 0; I != 10 && D.tryPopBottom(V); ++I) {
      Consumed.fetch_add(V);
      Count.fetch_add(1);
    }
  }
  Done.store(true);
  for (std::thread &T : Thieves)
    T.join();
  EXPECT_EQ(Count.load(), N);
  EXPECT_EQ(Consumed.load(), int64_t(N) * (N + 1) / 2);
}

TEST(WorkStealingDeque, LastItemPopStealRace) {
  // The deque hovers around a single item, hammering the owner-vs-thief
  // CAS on the last slot: exactly one side may win each item.
  constexpr int N = 30000;
  WorkStealingDeque<int> D;
  std::atomic<int64_t> Consumed{0};
  std::atomic<int> Count{0};
  std::atomic<bool> Done{false};
  std::thread Thief([&] {
    int V = 0;
    while (!Done.load() || D.sizeHint() != 0)
      if (D.trySteal(V)) {
        Consumed.fetch_add(V);
        Count.fetch_add(1);
      }
  });
  int V = 0;
  for (int I = 1; I <= N; ++I) {
    D.pushBottom(int(I));
    if (D.tryPopBottom(V)) {
      Consumed.fetch_add(V);
      Count.fetch_add(1);
    }
  }
  Done.store(true);
  Thief.join();
  EXPECT_EQ(Count.load(), N);
  EXPECT_EQ(Consumed.load(), int64_t(N) * (N + 1) / 2);
}

TEST(WorkStealingDeque, MoveOnlyItems) {
  // Ownership transfers with the successful pop/steal; work items are
  // movable, not necessarily copyable.
  WorkStealingDeque<std::unique_ptr<int>> D;
  D.pushBottom(std::make_unique<int>(1));
  D.pushBottom(std::make_unique<int>(2));
  std::unique_ptr<int> P;
  ASSERT_TRUE(D.trySteal(P));
  EXPECT_EQ(*P, 1);
  ASSERT_TRUE(D.tryPopBottom(P));
  EXPECT_EQ(*P, 2);
  EXPECT_FALSE(D.tryPopBottom(P));
  // Leftovers are reclaimed by the destructor.
  D.pushBottom(std::make_unique<int>(3));
}

TEST(StripedQueue, PushDrainConservation) {
  StripedQueue<int> Q(4);
  EXPECT_EQ(Q.stripes(), 4u);
  EXPECT_TRUE(Q.empty());
  constexpr int N = 1000;
  std::vector<std::thread> Pushers;
  for (int T = 0; T != 4; ++T)
    Pushers.emplace_back([&Q, T] {
      for (int I = 0; I != N; ++I)
        Q.push(static_cast<unsigned>(T * 7 + I), T * N + I);
    });
  for (std::thread &T : Pushers)
    T.join();
  EXPECT_FALSE(Q.empty());
  std::deque<int> Items = Q.drain();
  EXPECT_TRUE(Q.empty());
  ASSERT_EQ(Items.size(), size_t(4) * N);
  std::sort(Items.begin(), Items.end());
  for (int I = 0; I != 4 * N; ++I)
    EXPECT_EQ(Items[I], I);
}

TEST(WorkerPool, RunsEveryWorkerEachRound) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.workers(), 4u);
  EXPECT_GE(WorkerPool::defaultWorkers(), 1u);
  std::vector<std::atomic<int>> Hits(4);
  for (int Round = 1; Round <= 3; ++Round) {
    Pool.run([&Hits](unsigned Index) { Hits[Index].fetch_add(1); });
    for (unsigned I = 0; I != 4; ++I)
      EXPECT_EQ(Hits[I].load(), Round) << "worker " << I;
  }
}

} // namespace
