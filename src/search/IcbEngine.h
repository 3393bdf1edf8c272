//===- search/IcbEngine.h - Algorithm 1 driver over an Executor -*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver of Algorithm 1, templated over an Executor (see Executor.h).
/// It owns everything that is *not* "execute one work item": the per-bound
/// queues and barrier, the visited-state and work-item caches, statistics,
/// coverage sampling, limit checking, and bug deduplication. The executors
/// own how a work item becomes an execution — stepping a model VM or
/// replaying a schedule prefix on the fiber runtime.
///
/// The driver runs one fork/join round per bound, with one worker (and one
/// executor) per entry of its executor list. Parallelizing ICB is natural
/// because the algorithm is a sequence of independent batches: every work
/// item queued for bound c can be explored in isolation — items only
/// communicate *forward*, by publishing deferred (preempting)
/// continuations for bound c + 1.
///
///   * the bound's items are dealt round-robin onto per-worker
///     work-stealing deques, last item first; workers pop their own bottom
///     (LIFO) and steal from others' tops (FIFO) when dry, so a bound with
///     few roots but deep subtrees still spreads — nonpreempting branches
///     discovered mid-execution go onto the owner's deque bottom where
///     they are stealable;
///   * deferred continuations are published to a lock-striped next queue
///     (one stripe per worker — steady-state pushes are uncontended);
///   * the visited-state set and the (state, thread) work-item cache are
///     ShardedStateCaches probed concurrently;
///   * statistics and bugs accumulate worker-locally and merge at the
///     bound barrier with commutative folds, so results are independent of
///     scheduling;
///   * the pool's join *is* Algorithm 1's per-bound barrier: bound c + 1
///     starts only after bound c is fully drained, preserving the minimal
///     preemption guarantee for every reported bug.
///
/// One worker runs inline on the calling thread (WorkerPool(1) spawns
/// nothing) in a fixed order: the bound's queue front to back, each item's
/// nonpreempting branches depth-first before the next item (the reversed
/// deal leaves the queue's front at the bottom of the deque). Every
/// `--jobs 1` result and checkpoint is defined by that order. A lone
/// worker also samples the coverage curve after every execution (several
/// workers sample it at bound barriers), takes periodic checkpoints
/// between chains (several workers: at bound barriers), and may keep the
/// first-exposure bug list (IcbEngineOptions::CanonicalBugs).
///
/// Determinism: with the work-item cache off the driver enumerates the
/// complete bounded tree, every exposure of every bug is recorded, and
/// (under canonical bug mode) duplicate reports collapse to the
/// lexicographically smallest (Preemptions, Steps, Schedule) exposure —
/// aggregate results and bug reports are identical for any worker count.
/// With the cache on, each (state, thread) node is claimed by exactly one
/// worker *before* being stepped; the *set* of claimed nodes is the same
/// whatever the timing, so the aggregate counts, per-bound snapshots,
/// histogram, and the distinct bugs with their minimal preemption counts
/// are identical for any worker count, while per-execution distributions
/// and exposing schedules are attribution-dependent. Runs that trip a
/// resource limit mid-bound are nondeterministic in the obvious way (the
/// limit fires at a timing-dependent point), exactly as a Ctrl-C would be.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_ICBENGINE_H
#define ICB_SEARCH_ICBENGINE_H

#include "obs/Metrics.h"
#include "obs/PhaseTimer.h"
#include "search/BoundPolicy.h"
#include "search/EngineObserver.h"
#include "search/Executor.h"
#include "search/SearchTypes.h"
#include "search/ShardedStateCache.h"
#include "support/Debug.h"
#include "support/Stats.h"
#include "support/StripedQueue.h"
#include "support/WorkStealingDeque.h"
#include "support/WorkerPool.h"
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

namespace icb::search {

/// Driver knobs.
struct IcbEngineOptions {
  SearchLimits Limits;
  /// The bound policy charging every scheduling decision (BoundPolicy.h).
  /// Null = preemption bounding at Limits.MaxPreemptionBound, the
  /// historical behavior. The policy must outlive the run; it is shared
  /// read-only across workers.
  const BoundPolicy *Policy = nullptr;
  /// Deduplicate bugs to the canonical minimal (Preemptions, Steps,
  /// Schedule) exposure, reported in (kind, message) order — what makes a
  /// one-worker run's bug report byte-comparable to a many-worker one.
  /// Off = the historical model-VM policy (first exposure wins at equal
  /// preemption counts, discovery order), kept for bit-for-bit
  /// compatibility; it needs a fixed discovery order, so several workers
  /// always report canonically.
  bool CanonicalBugs = false;
  /// Shards in the concurrent caches (0 = auto).
  unsigned Shards = 0;
  /// Session hooks: periodic checkpoints, cooperative stop, per-bound
  /// progress. Null = unobserved (the historical behavior).
  EngineObserver *Observer = nullptr;
  /// Observability registry: the driver hands each worker its MetricShard
  /// and folds the shards into every snapshot. Null = unmetered; under
  /// ICB_NO_METRICS the hot-path instrumentation is compiled out and the
  /// registry only ever reports zeros.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Continue from this resumable safe-point snapshot instead of the
  /// executor's root items. Must come from a run with the same executor,
  /// benchmark, and driver configuration; Final snapshots are re-emitted
  /// by the session layer without invoking the engine at all.
  const EngineSnapshot *Resume = nullptr;
  /// Distributed lease participation (see search::LeaseMode): Roots seeds
  /// and returns the bound-0 frontier without draining it; Drain executes
  /// exactly the resumed bound and returns the published continuations
  /// instead of advancing. In either lease mode the driver suppresses the
  /// per-bound rows and the coverage curve — the coordinator owns the
  /// bound barrier — and captures the remaining queues plus the
  /// lease-local digest sets in the result.
  LeaseMode Lease = LeaseMode::Off;
};

namespace detail {

#ifndef ICB_NO_METRICS
/// True when \p MS carries an attached trace ring (tracing enabled on the
/// registry). Emission sites branch on this once; the common case is one
/// null test.
inline bool tracing(const obs::MetricShard *MS) {
  return MS && MS->Trace;
}

/// Appends one decision-level event to \p MS's trace ring. Callers have
/// already checked tracing(MS).
inline void traceEvent(obs::MetricShard *MS, obs::TraceEventKind Kind,
                       uint64_t Arg0, uint64_t Arg1, const std::string &Str,
                       unsigned Extra) {
  obs::TraceEvent Ev;
  Ev.Kind = Kind;
  Ev.Nanos = obs::nowNanos();
  Ev.Arg0 = Arg0;
  Ev.Arg1 = Arg1;
  Ev.Str = MS->Trace->intern(Str);
  Ev.Extra = static_cast<uint16_t>(Extra);
  MS->Trace->append(Ev);
}

/// Splits the whole schedule-space mass (obs::EstimateOne) across the
/// surviving roots of both queues, the first root absorbing the integer
/// remainder so the total is exact (see obs::EstimateOne).
template <typename WorkItem>
inline void splitRootMass(std::deque<WorkItem> &Current,
                          std::vector<WorkItem> &Deferred) {
  uint64_t Kept = Current.size() + Deferred.size();
  if (Kept == 0)
    return;
  uint64_t Share = obs::EstimateOne / Kept;
  bool First = true;
  auto Assign = [&](WorkItem &W) {
    W.Est = First ? obs::EstimateOne - Share * (Kept - 1) : Share;
    First = false;
  };
  for (WorkItem &W : Current)
    Assign(W);
  for (WorkItem &W : Deferred)
    Assign(W);
}
#endif

/// The work-stealing driver; one executor per worker.
template <typename Executor> class EngineDriver {
public:
  using WorkItem = typename Executor::WorkItem;

  EngineDriver(std::vector<Executor *> Execs, const IcbEngineOptions &O)
      : Executors(std::move(Execs)), Opts(O),
        DefaultPolicy(O.Limits.MaxPreemptionBound),
        BP(O.Policy ? *O.Policy : DefaultPolicy),
        Jobs(static_cast<unsigned>(Executors.size())),
        Canonical(O.CanonicalBugs || Jobs != 1),
        Seen(shardCountFor(O.Shards, Jobs)),
        Terminal(shardCountFor(O.Shards, Jobs)),
        ItemCache(shardCountFor(O.Shards, Jobs)), NextQueue(Jobs),
        Workers(Jobs) {
    if (Opts.Metrics)
      Opts.Metrics->ensureShards(Jobs);
  }

  SearchResult run() {
    SearchResult Result;
    if (Opts.Resume) {
      deal(restore(*Opts.Resume));
    } else {
      WorkerCtx Ctx0{*this, 0};
      deal(seedRoots(Executors[0]->rootItems(Ctx0)));
    }

    if (Opts.Lease == LeaseMode::Roots) {
      // Roots lease: hand the seeded frontier back unexecuted. The
      // degenerate no-schedulable-thread program has already accounted its
      // single execution (and any deadlock) through rootItems.
      captureLease(Result);
      finalize(Result, true);
      return Result;
    }

    WorkerPool Pool(Jobs);
    while (true) {
      // One fork/join round drains the bound; the join is the barrier
      // that guarantees bound c is exhausted before bound c + 1 begins.
      Pool.run([this](unsigned Index) { workerMain(Index); });

      if (Opts.Lease != LeaseMode::Off) {
        // Drain lease: capture the remaining frontier (unexecuted items
        // only when a limit or stop cut the round short) instead of
        // advancing the bound — the coordinator owns the barrier.
        captureLease(Result);
        Result.Interrupted = ExternalStop.load();
        finalize(Result, !Stop.load() && Result.LeaseCurrent.empty());
        return Result;
      }

      if (ExternalStop.load()) {
        // Cooperative stop: every in-flight chain finished before its
        // worker exited, so the remaining frontier sits wholly in the
        // deques and the striped next queue.
        emitResumable();
        Result.Interrupted = true;
        finalize(Result, false);
        return Result;
      }

      // Quiescent: every count below is exact and schedule-independent.
      Base.PerBound.push_back({CurrBound, Seen.size(), Executions.load()});
      if (Jobs != 1)
        Base.Coverage.push_back({Executions.load(), Seen.size()});
      if (Opts.Observer)
        Opts.Observer->onBoundComplete(Base.PerBound.back());
      if (Stop.load() || NextQueue.empty() || CurrBound >= BP.frontierBound())
        break;
      ++CurrBound;
      DeferredCount.store(0, std::memory_order_relaxed);
      deal(NextQueue.drain());

      // Periodic checkpoints land on bound barriers too, where the dealt
      // deferred items are the (new) current bound's roots.
      if (Opts.Observer && Opts.Observer->checkpointDue(Executions.load()))
        emitResumable();
    }

    finalize(Result, !Stop.load() && NextQueue.empty());
    if (Opts.Observer)
      emitFinal(Result);
    return Result;
  }

private:
  /// Worker-local accumulation; folded into the global result at bound
  /// barriers / at the end. Padded to a cache line so neighbouring
  /// workers' hot counters do not false-share.
  struct alignas(64) WorkerState {
    WorkStealingDeque<WorkItem> Deque;

    // Worker-local slices of SearchStats (all merged with commutative
    // folds, so the merged totals are schedule-independent).
    MinMax StepsPerExecution;
    MinMax BlockingPerExecution;
    MinMax PreemptionsPerExecution;
    MinMax ThreadsPerExecution;
    Histogram PreemptionHistogram;

    /// Worker-local distinct bugs: (kind, message) -> canonical minimal
    /// exposure (see canonicalMergeBug).
    CanonicalBugMap Bugs;
  };

  /// The per-worker Ctx the executor drives. Thin: routes the hooks to
  /// the driver with the worker index attached, plus the worker's private
  /// metric shard (null when the run has no registry).
  struct WorkerCtx {
    EngineDriver &D;
    unsigned Index;
    obs::MetricShard *MS;
    /// Seeding preemption site of this worker's chain in flight (set by
    /// workerMain before runChain) — the attribution key for states,
    /// executions, and bugs discovered downstream.
    std::string ChainSite;
    /// Worker-local trace flow sequence; flow ids are namespaced by
    /// worker index so publications never collide across workers.
    uint64_t FlowSeq = 0;

    WorkerCtx(EngineDriver &D, unsigned Index)
        : D(D), Index(Index),
          MS(D.Opts.Metrics ? &D.Opts.Metrics->shard(Index) : nullptr) {}

    bool claimItem(uint64_t Digest) {
      obs::ScopedPhase Timer(MS, obs::Phase::CacheProbe);
      bool Claimed = D.ItemCache.insert(Digest);
      obs::count(MS,
                 Claimed ? obs::Counter::ItemMiss : obs::Counter::ItemHit);
      return Claimed;
    }
    void noteState(uint64_t Digest) {
      obs::ScopedPhase Timer(MS, obs::Phase::CacheProbe);
      bool New = D.Seen.insert(Digest);
      obs::count(MS, New ? obs::Counter::SeenMiss : obs::Counter::SeenHit);
#ifndef ICB_NO_METRICS
      // Honest but timing-class: under --jobs N, which worker first
      // reaches a shared state is attribution-dependent, so per-site
      // NewStates serializes with the timing half.
      if (New && MS && !ChainSite.empty())
        MS->Sites[ChainSite].NewStates.increment(D.CurrBound);
#endif
    }
    void noteTerminal(uint64_t Digest) {
      obs::ScopedPhase Timer(MS, obs::Phase::CacheProbe);
      bool New = D.Terminal.insert(Digest);
      obs::count(MS,
                 New ? obs::Counter::TerminalMiss : obs::Counter::TerminalHit);
    }
    void countSteps(uint64_t N) {
      D.TotalSteps.fetch_add(N, std::memory_order_relaxed);
    }
    void defer(WorkItem &&Item) {
      obs::count(MS, obs::Counter::DeferredItems);
#ifndef ICB_NO_METRICS
      if (MS && !Item.Site.empty())
        MS->Sites[Item.Site].Taken.increment(D.CurrBound + 1);
      if (tracing(MS)) {
        Item.Flow = nextFlow();
        traceEvent(MS, obs::TraceEventKind::Defer, Item.Flow, 0, Item.Site,
                   D.CurrBound + 1);
      }
#endif
      D.DeferredCount.fetch_add(1, std::memory_order_relaxed);
      D.NextQueue.push(Index, std::move(Item));
    }
    void branch(WorkItem &&Item) {
      // Onto the owner's bottom: popped LIFO by the owner (depth-first,
      // keeps memory bounded), stolen FIFO from the top by idle workers.
      obs::count(MS, obs::Counter::BranchedItems);
#ifndef ICB_NO_METRICS
      if (tracing(MS)) {
        Item.Flow = nextFlow();
        traceEvent(MS, obs::TraceEventKind::Branch, Item.Flow, 0, Item.Site,
                   D.CurrBound);
      }
#endif
      D.Pending.fetch_add(1, std::memory_order_relaxed);
      D.Workers[Index].Deque.pushBottom(std::move(Item));
    }
    unsigned bound() const { return D.CurrBound; }
    const BoundPolicy &policy() const { return D.BP; }
    obs::MetricShard *metrics() { return MS; }
    void recordBug(Bug NewBug) {
#ifndef ICB_NO_METRICS
      if (MS && !ChainSite.empty())
        MS->Sites[ChainSite].Bugs.increment(D.CurrBound);
      if (tracing(MS))
        traceEvent(MS, obs::TraceEventKind::Bug, 0, 0, NewBug.Message,
                   D.CurrBound);
#endif
      D.recordBug(Index, std::move(NewBug));
    }
    void endExecution(const ExecutionFacts &F) {
#ifndef ICB_NO_METRICS
      if (MS) {
        MS->EstMassPerBound.increment(D.CurrBound, F.EstMass);
        if (!ChainSite.empty())
          MS->Sites[ChainSite].Execs.increment(D.CurrBound);
      }
      if (tracing(MS))
        traceEvent(MS, obs::TraceEventKind::ExecEnd, F.Steps, 0, ChainSite,
                   D.CurrBound);
#endif
      D.endExecution(Index, MS, F);
    }

  private:
    /// Worker-namespaced flow id: the worker index in the high bits keeps
    /// ids unique without cross-worker coordination; sequence numbers stay
    /// far below 2^40 in any plausible run.
    uint64_t nextFlow() {
      return (static_cast<uint64_t>(Index + 1) << 40) | ++FlowSeq;
    }
  };

  /// Seeds the bound-0 frontier from the executor's root items. The first
  /// root is the default schedule; the policy charges every other root as
  /// a free-switch deviation from it (the delay policy defers them to
  /// bound 1; preemption and thread keep them all free). The surviving
  /// roots split the whole schedule-space mass between them (the
  /// estimator's invariant base). Returns the current bound's roots;
  /// NextBound-charged roots go to the striped next queue.
  std::deque<WorkItem> seedRoots(std::vector<WorkItem> Roots) {
    std::deque<WorkItem> Kept;
    std::vector<WorkItem> Deferred;
    for (size_t I = 0; I != Roots.size(); ++I) {
      if (I == 0) {
        Kept.push_back(std::move(Roots[I]));
        continue;
      }
      Decision D; // FreeSwitch.
      BoundState Charged;
      ChargeOutcome O = BP.chargeFor(D, Roots[I].BState, Charged);
      if (O == ChargeOutcome::Prune)
        continue;
      Roots[I].BState = std::move(Charged);
      if (O == ChargeOutcome::NextBound)
        Deferred.push_back(std::move(Roots[I]));
      else
        Kept.push_back(std::move(Roots[I]));
    }
#ifndef ICB_NO_METRICS
    splitRootMass(Kept, Deferred);
#endif
    for (WorkItem &W : Deferred) {
      DeferredCount.fetch_add(1, std::memory_order_relaxed);
      NextQueue.push(0, std::move(W));
    }
    return Kept;
  }

  /// Deals the current bound's roots round-robin onto the worker deques,
  /// last root first, so every worker pops its share front to back — one
  /// worker explores them exactly in queue order. The queue is freed as it
  /// is dealt.
  void deal(std::deque<WorkItem> Items) {
    Pending.store(Items.size(), std::memory_order_relaxed);
    for (size_t I = Items.size(); I-- != 0;) {
      Workers[I % Jobs].Deque.pushBottom(std::move(Items.back()));
      Items.pop_back();
    }
  }

  bool takeItem(unsigned Index, obs::MetricShard *MS, WorkItem &Out) {
    if (Workers[Index].Deque.tryPopBottom(Out))
      return true;
    for (unsigned Hop = 1; Hop < Jobs; ++Hop) {
      obs::count(MS, obs::Counter::StealAttempts);
      if (Workers[(Index + Hop) % Jobs].Deque.trySteal(Out)) {
        obs::count(MS, obs::Counter::StealHits);
        return true;
      }
    }
    return false;
  }

  void workerMain(unsigned Index) {
    WorkerCtx Ctx{*this, Index};
    obs::MetricShard *MS = Ctx.MS;
    uint64_t *Busy = MS ? &MS->Worker.BusyNanos : nullptr;
    uint64_t *Idle = MS ? &MS->Worker.IdleNanos : nullptr;
    Executor &E = *Executors[Index];
    WorkItem Item;
    while (!Stop.load(std::memory_order_relaxed)) {
      if (Opts.Observer && Opts.Observer->stopRequested()) {
        ExternalStop.store(true, std::memory_order_relaxed);
        Stop.store(true, std::memory_order_relaxed);
        return;
      }
      if (takeItem(Index, MS, Item)) {
        {
          obs::count(MS, obs::Counter::Chains);
#ifndef ICB_NO_METRICS
          Ctx.ChainSite = Item.Site;
          if (tracing(MS))
            traceEvent(MS, obs::TraceEventKind::ExecBegin, Item.Flow, 0,
                       Item.Site, CurrBound);
#endif
          obs::ScopedPhase Timer(MS, obs::Phase::Execute, Busy);
          E.runChain(std::move(Item), Ctx);
        }
        // The chain (and everything it pushed) is accounted; releasing
        // our claim last means Pending only hits zero once no work
        // remains.
        Pending.fetch_sub(1, std::memory_order_acq_rel);
        // A lone worker is quiescent between chains: a safe point.
        if (Jobs == 1 && Opts.Observer &&
            !Stop.load(std::memory_order_relaxed) &&
            Opts.Observer->checkpointDue(Executions.load()))
          emitResumable();
        continue;
      }
      if (Pending.load(std::memory_order_acquire) == 0)
        return; // Bound drained: no queued items, no running executions.
      obs::ScopedPhase Wait(nullptr, obs::Phase::Execute, Idle);
      std::this_thread::yield(); // Someone is still producing; retry.
    }
  }

  void recordBug(unsigned Index, Bug NewBug) {
    // Bound index == preemption count only under the preemption policy;
    // other policies keep the executor's measured count.
    if (BP.kind() == BoundKind::Preemption)
      NewBug.Preemptions = CurrBound;
    if (Canonical)
      canonicalMergeBug(Workers[Index].Bugs, std::move(NewBug));
    else
      FirstBugs.add(std::move(NewBug));
    BugCount.fetch_add(1, std::memory_order_relaxed);
    if (Opts.Limits.StopAtFirstBug)
      Stop.store(true, std::memory_order_relaxed);
  }

  void endExecution(unsigned Index, obs::MetricShard *MS,
                    const ExecutionFacts &F) {
    WorkerState &W = Workers[Index];
    uint64_t Execs = Executions.fetch_add(1, std::memory_order_relaxed) + 1;
    W.StepsPerExecution.observe(F.Steps);
    W.PreemptionsPerExecution.observe(CurrBound);
    W.PreemptionHistogram.increment(CurrBound);
    W.BlockingPerExecution.observe(F.Blocking);
    if (F.ThreadsUsed)
      W.ThreadsPerExecution.observe(F.ThreadsUsed);
    if (Jobs == 1 && Opts.Lease == LeaseMode::Off)
      Sampler.observe(Base.Coverage, Execs, Seen.size());
    ICB_OBS(MS, MS->ExecutionsPerBound.increment(CurrBound));
#ifndef ICB_NO_METRICS
    EstCredited.fetch_add(F.EstMass, std::memory_order_relaxed);
#endif
    if (Execs >= Opts.Limits.MaxExecutions ||
        TotalSteps.load(std::memory_order_relaxed) >= Opts.Limits.MaxSteps ||
        Seen.size() >= Opts.Limits.MaxStates)
      Stop.store(true, std::memory_order_relaxed);
    if (Opts.Observer && Opts.Observer->progressDue())
      Opts.Observer->onProgress(progressSample(Execs));
  }

  /// Coarse frontier sample assembled from the shared atomics; any worker
  /// may call this after claiming a progress tick.
  obs::ProgressSample progressSample(uint64_t Execs) const {
    obs::ProgressSample S;
    S.Bound = CurrBound;
    S.MaxBound = BP.frontierBound();
    S.Executions = Execs;
    S.TotalSteps = TotalSteps.load(std::memory_order_relaxed);
    S.States = Seen.size();
    S.FrontierRemaining = Pending.load(std::memory_order_relaxed);
    S.DeferredNext = DeferredCount.load(std::memory_order_relaxed);
    S.Bugs = BugCount.load(std::memory_order_relaxed);
    S.EstMass = EstCredited.load(std::memory_order_relaxed);
    return S;
  }

  /// Folds (and resets) every worker's local slices into the Base
  /// accumulators. Commutative merges: callable at any quiescent point
  /// (barrier, post-join stop, end) without double counting.
  void mergeWorkersIntoBase() {
    for (WorkerState &W : Workers) {
      Base.StepsPerExecution.merge(W.StepsPerExecution);
      Base.BlockingPerExecution.merge(W.BlockingPerExecution);
      Base.PreemptionsPerExecution.merge(W.PreemptionsPerExecution);
      Base.ThreadsPerExecution.merge(W.ThreadsPerExecution);
      Base.PreemptionHistogram.merge(W.PreemptionHistogram);
      W.StepsPerExecution = MinMax();
      W.BlockingPerExecution = MinMax();
      W.PreemptionsPerExecution = MinMax();
      W.ThreadsPerExecution = MinMax();
      W.PreemptionHistogram = Histogram();
      for (auto &Entry : W.Bugs)
        canonicalMergeBug(BaseBugs, std::move(Entry.second));
      W.Bugs.clear();
    }
  }

  void finalize(SearchResult &Result, bool Complete) {
    mergeWorkersIntoBase();
    if (Jobs == 1)
      Sampler.finish(Base.Coverage);
    Base.Executions = Executions.load();
    Base.TotalSteps = TotalSteps.load();
    Base.DistinctStates = Seen.size();
    Base.DistinctTerminalStates = Terminal.size();
    Base.Completed = Complete;
    Result.Stats = std::move(Base);
    Result.Bugs =
        Canonical ? takeCanonicalBugs(std::move(BaseBugs)) : FirstBugs.take();
  }

  /// Seeds the driver from a resumable snapshot and returns the current
  /// bound's roots. Item reconstruction (the model-VM executor replays
  /// each prefix through the interpreter) is timed as the replay phase but
  /// touches no counters — they must match an uninterrupted run's. Bugs
  /// are re-added in recorded order, so the first-exposure list's
  /// discovery order survives the round trip.
  std::deque<WorkItem> restore(const EngineSnapshot &Snap) {
    ICB_ASSERT(!Snap.Final, "resuming a finished run through the engine");
    if (Opts.Metrics)
      Opts.Metrics->restore(Snap.Metrics);
    obs::ScopedPhase Timer(shard0(), obs::Phase::Replay);
    CurrBound = Snap.Bound;
    std::deque<WorkItem> Items;
    for (const SavedWorkItem &S : Snap.CurrentQueue)
      Items.push_back(Executors[0]->loadItem(S));
    for (const SavedWorkItem &S : Snap.NextQueue) {
      DeferredCount.fetch_add(1, std::memory_order_relaxed);
      NextQueue.push(0, Executors[0]->loadItem(S));
    }
    for (uint64_t Digest : Snap.SeenDigests)
      Seen.insert(Digest);
    for (uint64_t Digest : Snap.TerminalDigests)
      Terminal.insert(Digest);
    for (uint64_t Digest : Snap.ItemDigests)
      ItemCache.insert(Digest);
    Base = Snap.Stats;
    Base.Completed = false;
#ifndef ICB_NO_METRICS
    // Progress-display seed only; the authoritative mass is the restored
    // registry base plus whatever this segment credits.
    EstCredited.store(Snap.Metrics.estMassTotal(),
                      std::memory_order_relaxed);
#endif
    Executions.store(Snap.Stats.Executions);
    TotalSteps.store(Snap.Stats.TotalSteps);
    Sampler.restoreState(Snap.Sampler);
    for (const Bug &B : Snap.Bugs) {
      if (Canonical)
        canonicalMergeBug(BaseBugs, B);
      else
        FirstBugs.add(B);
    }
    BugCount.store(Snap.Bugs.size(), std::memory_order_relaxed);
    return Items;
  }

  /// The current bound's frontier, worker by worker in pop order — for one
  /// worker, exactly the order it would have continued in. Quiescent
  /// callers only.
  std::vector<SavedWorkItem> saveCurrent() const {
    std::vector<SavedWorkItem> Out;
    for (const WorkerState &W : Workers)
      W.Deque.forEachFromBottom([&](const WorkItem &Item) {
        Out.push_back(Executors[0]->saveItem(Item));
      });
    return Out;
  }

  /// The items deferred to the next bound, in publication order per stripe.
  std::vector<SavedWorkItem> saveNext() const {
    std::vector<SavedWorkItem> Out;
    NextQueue.forEach([&](const WorkItem &Item) {
      Out.push_back(Executors[0]->saveItem(Item));
    });
    return Out;
  }

  /// Captures the lease output: the unexecuted frontier of both bounds
  /// plus the lease-local digest sets (fresh caches in lease mode, so
  /// these are exactly this lease's distinct probes).
  void captureLease(SearchResult &Result) {
    Result.LeaseCurrent = saveCurrent();
    Result.LeaseDeferred = saveNext();
    Result.LeaseSeen = Seen.digests();
    Result.LeaseTerminal = Terminal.digests();
    Result.LeaseItems = ItemCache.digests();
  }

  /// Emits a resumable snapshot at a safe point — a bound barrier, the
  /// join of a stopped round, or (one worker) between chains — where no
  /// chain is in flight, so the deques and the next queue hold the whole
  /// frontier.
  void emitResumable() {
    obs::ScopedPhase Timer(shard0(), obs::Phase::Snapshot);
    obs::count(shard0(), obs::Counter::Snapshots);
    mergeWorkersIntoBase();
    EngineSnapshot Snap;
    Snap.Bound = CurrBound;
    Snap.CurrentQueue = saveCurrent();
    Snap.NextQueue = saveNext();
    Snap.Stats = Base;
    Snap.Stats.Executions = Executions.load();
    Snap.Stats.TotalSteps = TotalSteps.load();
    Snap.Stats.DistinctStates = Seen.size();
    Snap.Stats.DistinctTerminalStates = Terminal.size();
    Snap.Sampler = Sampler.saveState();
    Snap.SeenDigests = Seen.digests();
    Snap.TerminalDigests = Terminal.digests();
    Snap.ItemDigests = ItemCache.digests();
    if (Canonical)
      for (const auto &Entry : BaseBugs)
        Snap.Bugs.push_back(Entry.second);
    else
      Snap.Bugs = FirstBugs.bugs();
    if (Opts.Metrics)
      Snap.Metrics = Opts.Metrics->snapshot();
    Opts.Observer->onCheckpoint(Snap);
  }

  /// Final snapshot of a run that ended on its own.
  void emitFinal(const SearchResult &Result) {
    obs::count(shard0(), obs::Counter::Snapshots);
    EngineSnapshot Snap;
    Snap.Bound = CurrBound;
    Snap.Final = true;
    Snap.Stats = Result.Stats;
    Snap.Bugs = Result.Bugs;
    if (Opts.Metrics)
      Snap.Metrics = Opts.Metrics->snapshot();
    Opts.Observer->onCheckpoint(Snap);
  }

  /// Registry shard 0, which the driving thread records into between
  /// rounds (null when the run has no registry).
  obs::MetricShard *shard0() const {
    return Opts.Metrics ? &Opts.Metrics->shard(0) : nullptr;
  }

  static unsigned shardCountFor(unsigned Requested, unsigned Jobs) {
    if (Requested)
      return Requested; // Cache rounds up to a power of two itself.
    unsigned Want = Jobs * 8;
    return Want < 64 ? 64 : Want;
  }

  std::vector<Executor *> Executors;
  IcbEngineOptions Opts;
  /// The preemption fallback when Opts.Policy is null (historical runs).
  PreemptionBoundPolicy DefaultPolicy;
  const BoundPolicy &BP;
  unsigned Jobs;
  /// Canonical bug reports; off only for one worker without
  /// Opts.CanonicalBugs, which keeps FirstBugs instead.
  bool Canonical;

  ShardedStateCache Seen;      ///< Distinct visited states.
  ShardedStateCache Terminal;  ///< Distinct terminal fingerprints (rt).
  ShardedStateCache ItemCache; ///< (state, thread) pruning when caching on.
  StripedQueue<WorkItem> NextQueue; ///< Deferred items for bound c + 1.
  std::vector<WorkerState> Workers;

  std::atomic<uint64_t> Executions{0};
  std::atomic<uint64_t> TotalSteps{0};
  /// Items in deques plus executions in flight this round; the round is
  /// over when it reaches zero (nothing queued, nobody producing).
  std::atomic<uint64_t> Pending{0};
  std::atomic<bool> Stop{false};
  /// Stop was externally requested (observer), not a resource limit —
  /// the frontier is snapshotted for resume instead of discarded.
  std::atomic<bool> ExternalStop{false};
  /// Progress-ticker feeds only (reset at barriers / seeded on resume);
  /// the authoritative counts live in the worker shards and bug maps.
  std::atomic<uint64_t> DeferredCount{0};
  std::atomic<uint64_t> BugCount{0};
  /// Credited schedule-space mass so far; progress-ticker feed only (the
  /// registry's merged EstMassPerBound is authoritative).
  std::atomic<uint64_t> EstCredited{0};

  /// Cross-round accumulated statistics and bugs: seeded by restore(),
  /// grown by mergeWorkersIntoBase() at quiescent points.
  SearchStats Base;
  CanonicalBugMap BaseBugs;
  /// First-exposure bugs in discovery order (one worker, non-canonical).
  BugCollector FirstBugs;
  /// Per-execution coverage curve (one worker outside leases; several
  /// workers append a point per bound barrier instead).
  CoverageSampler<CoveragePoint> Sampler;

  unsigned CurrBound = 0; ///< Written between rounds only.
};

} // namespace detail

/// Runs Algorithm 1 on one worker, inline on the calling thread, with \p E
/// executing the work items.
template <typename Executor>
SearchResult runSequentialIcbEngine(Executor &E,
                                    const IcbEngineOptions &Opts) {
  return detail::EngineDriver<Executor>({&E}, Opts).run();
}

/// Runs Algorithm 1 with one worker (and one executor) per entry of
/// \p Executors; the executor at index i runs on worker thread i only.
template <typename Executor>
SearchResult
runParallelIcbEngine(std::vector<std::unique_ptr<Executor>> &Executors,
                     const IcbEngineOptions &Opts) {
  std::vector<Executor *> Workers;
  for (std::unique_ptr<Executor> &E : Executors)
    Workers.push_back(E.get());
  return detail::EngineDriver<Executor>(std::move(Workers), Opts).run();
}

} // namespace icb::search

#endif // ICB_SEARCH_ICBENGINE_H
