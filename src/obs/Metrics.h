//===- obs/Metrics.h - Search telemetry registry ----------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability subsystem's metrics layer: named monotonic counters,
/// phase timers, and small distributions accumulated per worker and merged
/// commutatively — the same discipline as the engine's SearchStats, so the
/// merged totals of a `--jobs N` run are independent of scheduling.
///
/// The layout mirrors the parallel ICB driver: one cache-line-padded
/// MetricShard per worker, written by that worker only, read (and merged)
/// only at quiescent points — bound barriers, checkpoints, run end. There
/// is no atomic in the hot path; a counter increment is one add into a
/// worker-private slot.
///
/// Metrics come in two classes, reflected in the JSON export and the
/// determinism guarantees:
///
///   * *work-derived counters* (cache hits/misses, chains run, items
///     branched/deferred, replay depth, executions per bound) count events
///     of the bounded search tree itself. The tree is the same whatever
///     the worker count or interleaving, so the merged values are
///     byte-identical between `--jobs 1` and `--jobs N` runs, and between
///     an interrupted+resumed run and an uninterrupted one (snapshots
///     carry the counters; reconstruction work such as replaying a
///     checkpointed prefix through VmExecutor::loadItem is deliberately
///     not counted, mirroring how the engine keeps statistics
///     reconstruction-free);
///
///   * *timing metrics* (phase nanoseconds, worker busy/idle time, deque
///     steal attempts/hits, snapshot count) measure one particular run on
///     one particular machine and are never deterministic.
///
/// `ICB_NO_METRICS` compiles the hot-path instrumentation out entirely:
/// the helpers below become no-ops, ScopedPhase (PhaseTimer.h) reads no
/// clock, and every exported value is zero, while all types keep existing
/// so call sites and serialization build unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_OBS_METRICS_H
#define ICB_OBS_METRICS_H

#include "obs/TraceLog.h"
#include "support/Stats.h"
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace icb::obs {

/// The schedule-space mass of one whole exploration, in the fixed-point
/// units the online Knuth-style estimator works in. The root work items
/// split this between them; every decision point splits a chain's
/// remaining mass evenly between its published children and its own
/// continuation; every finished execution credits its residue to
/// MetricShard::EstMassPerBound. Summed over a *completed* exploration
/// the credits reconstitute EstimateOne exactly, so
/// executions * EstimateOne / credited-mass is both an online estimate of
/// the total execution count and exact at completion. 2^62 leaves
/// headroom to sum credits without overflow while surviving ~60 halvings
/// before integer division underflows a path's mass to zero (such paths
/// simply stop contributing — the estimator degrades, never wraps).
inline constexpr uint64_t EstimateOne = uint64_t(1) << 62;

/// Monotonic event counters. The order is the wire order of the JSON
/// export; countersDeterministic() documents which prefix is work-derived.
enum class Counter : unsigned {
  // Work-derived (deterministic across worker counts and resume).
  SeenHit,       ///< Visited-state probe found the digest already present.
  SeenMiss,      ///< Visited-state probe inserted a new digest.
  TerminalHit,   ///< Terminal-fingerprint probe hit (rt executor).
  TerminalMiss,  ///< Terminal-fingerprint probe inserted (rt executor).
  ItemHit,       ///< (state, thread) work-item cache pruned a revisit.
  ItemMiss,      ///< (state, thread) work-item cache claimed a new item.
  Chains,        ///< Work-item chains executed (one execution each).
  BranchedItems, ///< Nonpreempting branches published (same bound).
  DeferredItems, ///< Preempting continuations published (bound c + 1).
  ReplaySteps,   ///< Schedule-prefix steps replayed before divergence.
  TransitionsSlept, ///< Enabled transitions skipped because asleep (POR).
  WokenByBudget,    ///< Sleepers conservatively woken at a preemption
                    ///< (budget changed — the Coons-style correction).
  SleptExecutions,  ///< Chains cut short with every enabled thread asleep.
  IoBlock,          ///< Fibers parked on a modeled fd that was not ready.
  IoWake,           ///< Parked io waits resumed by a peer's readiness edge.
  IoSpurious,       ///< Timed multiplexer waits that expired with nothing
                    ///< ready (the modeled epoll/poll/select timeout branch).
  // Timing-class (run- and machine-specific).
  StealAttempts, ///< Chase-Lev trySteal() calls by idle workers.
  StealHits,     ///< trySteal() calls that returned an item.
  Snapshots,     ///< Engine snapshots emitted (periodic/stop/final).
  // Distributed checking (dist/). Lease placement depends on joiner
  // timing, so these are timing-class even though each lease's contents
  // are deterministic.
  DistLeases,      ///< Work-item leases granted (coordinator) or
                   ///< executed (joiner).
  DistLeaseItems,  ///< Work items carried by those leases.
  DistLeaseRevoked, ///< Leases revoked after joiner loss (items re-queued).
  DistReconnects,  ///< Joiner reconnect attempts that reached hello again.

  NumCounters,
};

inline constexpr size_t NumCounters =
    static_cast<size_t>(Counter::NumCounters);

/// Scoped phases of the hot path, timed by ScopedPhase (PhaseTimer.h).
/// `Execute` is the outer per-chain scope; the others are nested slices of
/// it (their sums overlap Execute's, not partition it).
enum class Phase : unsigned {
  Replay,     ///< Schedule-prefix replay (rt divergence-point split, vm
              ///< checkpoint-item reconstruction).
  Execute,    ///< Running one work-item chain end to end.
  Hash,       ///< Happens-before fingerprint maintenance (rt executor).
  CacheProbe, ///< Visited/terminal/work-item digest-set probes.
  RaceDetect, ///< Per-execution race detector work (rt executor).
  Snapshot,   ///< Building + handing off an engine snapshot.
  Por,        ///< Sleep-set maintenance (independence filtering, pruning).
  Io,         ///< Modeled-I/O syscall bodies (fd table, streams, epoll).

  NumPhases,
};

inline constexpr size_t NumPhases = static_cast<size_t>(Phase::NumPhases);

/// Stable wire/report name of a counter ("seen_hit", "steal_attempts", ...).
const char *counterName(Counter C);

/// True for the work-derived counters whose merged values are identical
/// across worker counts (and across checkpoint/resume).
bool counterIsDeterministic(Counter C);

/// Stable wire/report name of a phase ("replay", "cache_probe", ...).
const char *phaseName(Phase P);

/// Per-preemption-site profile: one row of the object-by-operation table
/// `icb_report --sites` renders and the Landslide-style preemption-point
/// search will consume. Keyed by the site's display name (the preempted
/// thread's pending operation — "lock m_baseCS", "free conn", "lock[3]"),
/// each histogram indexed by preemption bound.
///
/// Taken (counted at defer time) and Execs (counted at every item-start,
/// whether the chain runs or is cache-pruned) are tree-derived and live
/// in the deterministic snapshot half. Bugs and NewStates are
/// timing-class: the shared work-item cache admits exactly one of
/// several same-digest chains, so which site's chain runs past the claim
/// — and therefore detects the bugs and first sees the states downstream
/// of it — depends on worker timing under `--jobs N`. Both are honest
/// attribution but serialize with the timing half.
struct SiteStat {
  Histogram Taken;     ///< Preemptive continuations published at the site.
  Histogram Execs;     ///< Chains whose seeding preemption was this site.
  Histogram Bugs;      ///< Bugs found in such chains.
  Histogram NewStates; ///< New state digests discovered in such chains.

  void merge(const SiteStat &Other) {
    Taken.merge(Other.Taken);
    Execs.merge(Other.Execs);
    Bugs.merge(Other.Bugs);
    NewStates.merge(Other.NewStates);
  }
  bool empty() const {
    return Taken.buckets().empty() && Execs.buckets().empty() &&
           Bugs.buckets().empty() && NewStates.buckets().empty();
  }
};

/// Per-worker wall-clock split of one engine round-robin worker.
struct WorkerMetrics {
  uint64_t BusyNanos = 0; ///< Inside Executor::runChain.
  uint64_t IdleNanos = 0; ///< Spinning/yielding with an empty deque.

  void merge(const WorkerMetrics &Other) {
    BusyNanos += Other.BusyNanos;
    IdleNanos += Other.IdleNanos;
  }
};

/// One worker's private slice of every metric. Padded to a cache line so
/// neighbouring workers' hot counters do not false-share (the same layout
/// discipline as the engine's WorkerState).
struct alignas(64) MetricShard {
  uint64_t Counters[NumCounters] = {};
  /// Per-phase durations in nanoseconds: count = scopes entered,
  /// sum = total ns, min/max = extreme scope durations.
  MinMax Phases[NumPhases];
  /// Per-phase latency distributions: bucket b counts scopes whose
  /// duration had b significant bits (log2 buckets: bucket 0 = 0 ns,
  /// bucket b covers [2^(b-1), 2^b) ns). Together with the MinMax mean
  /// this gives icb_report percentile estimates without per-scope storage.
  Histogram PhaseHist[NumPhases];
  /// Schedule-prefix replay depth per chain (rt executor).
  MinMax ReplayDepth;
  /// Executions completed per preemption bound.
  Histogram ExecutionsPerBound;
  /// Same-bound branches pruned by sleep sets, per preemption bound — each
  /// would have seeded at least one whole execution chain.
  Histogram SleepSavedPerBound;
  /// Schedule-space mass credited by finished executions, per bound (see
  /// EstimateOne). Work-derived: the tree fixes every split, so the merged
  /// histogram is identical across worker counts and resume.
  Histogram EstMassPerBound;
  /// Per-preemption-site profiles, keyed by display name (see SiteStat).
  std::map<std::string, SiteStat> Sites;
  WorkerMetrics Worker;
  /// Attached trace ring (owned by the registry); null when tracing is
  /// off. Emission sites test for null — the common case costs one load.
  TraceBuf *Trace = nullptr;

  void merge(const MetricShard &Other);
  void reset();
};

/// A mergeable, serializable image of every metric — what the manifest's
/// `metrics` block and a checkpoint's snapshot carry. Field order matches
/// the enums above.
struct MetricsSnapshot {
  std::vector<uint64_t> Counters; ///< NumCounters entries (or empty).
  std::vector<MinMax> Phases;     ///< NumPhases entries (or empty).
  std::vector<Histogram> PhaseHist; ///< NumPhases entries (or empty).
  MinMax ReplayDepth;
  Histogram ExecutionsPerBound;
  Histogram SleepSavedPerBound;
  Histogram EstMassPerBound;
  std::map<std::string, SiteStat> Sites;
  /// One entry per worker of the segment(s); index-wise merged across
  /// resumed segments (the checkpoint pins the job count).
  std::vector<WorkerMetrics> Workers;

  bool empty() const;
  void merge(const MetricsSnapshot &Other);

  /// Total credited schedule-space mass, all bounds.
  uint64_t estMassTotal() const { return EstMassPerBound.total(); }
  /// The Knuth estimate of the total execution count at every bound ≤ the
  /// deepest credited one, given \p Executions completed so far. Zero when
  /// nothing has been credited yet (callers render "-").
  uint64_t estimatedTotalExecutions(uint64_t Executions) const {
    uint64_t Mass = estMassTotal();
    if (Mass == 0)
      return 0;
    unsigned __int128 Wide =
        static_cast<unsigned __int128>(Executions) * EstimateOne;
    return static_cast<uint64_t>(Wide / Mass);
  }
  /// Fraction of the schedule space explored, in parts per million.
  uint64_t exploredPpm() const {
    uint64_t Mass = estMassTotal();
    unsigned __int128 Wide = static_cast<unsigned __int128>(Mass) * 1000000;
    return static_cast<uint64_t>(Wide / EstimateOne);
  }
};

/// Owns the per-worker shards plus the restored base of earlier run
/// segments. Shard handout and snapshotting happen on the driving thread
/// at quiescent points; each shard is then written by exactly one worker.
class MetricsRegistry {
public:
  explicit MetricsRegistry(unsigned Shards = 1) { ensureShards(Shards); }

  /// Grows the shard pool to at least \p N shards. Must be called before
  /// workers hold shard references (addresses are stable afterwards).
  void ensureShards(unsigned N);

  unsigned shards() const { return static_cast<unsigned>(ShardList.size()); }

  MetricShard &shard(unsigned Index) { return ShardList[Index]; }

  /// Merged view of the restored base plus every shard. Callers must
  /// quiesce the workers first (the driver snapshots only at barriers or
  /// between chains).
  MetricsSnapshot snapshot() const;

  /// Seeds the registry from a checkpointed snapshot; the next
  /// snapshot() returns base + whatever the new segment accumulates.
  void restore(const MetricsSnapshot &Snap);

  /// Turns on decision-level tracing: every current and future shard gets
  /// a private TraceBuf of \p Capacity events attached. Must be called on
  /// the driving thread before workers hold shard references. No-op under
  /// ICB_NO_METRICS (the CLI rejects `--trace` there anyway).
  void enableTracing(size_t Capacity);
  bool tracingEnabled() const { return TraceCapacity != 0; }
  unsigned traceBufs() const {
    return static_cast<unsigned>(TraceList.size());
  }
  TraceBuf &traceBuf(unsigned Index) { return TraceList[Index]; }
  const TraceBuf &traceBuf(unsigned Index) const { return TraceList[Index]; }

private:
  std::deque<MetricShard> ShardList; ///< Stable addresses across growth.
  std::deque<TraceBuf> TraceList;    ///< Parallel to ShardList when on.
  size_t TraceCapacity = 0;
  MetricsSnapshot Base;
};

/// Adds \p N to a counter; no-op on a null shard or under ICB_NO_METRICS.
inline void count(MetricShard *S, Counter C, uint64_t N = 1) {
#ifndef ICB_NO_METRICS
  if (S)
    S->Counters[static_cast<size_t>(C)] += N;
#else
  (void)S;
  (void)C;
  (void)N;
#endif
}

/// Runs \p Stmt (an expression using shard pointer \p S) only when metrics
/// are compiled in and \p S is non-null. For the few call sites count()
/// does not cover (MinMax/Histogram observations).
#ifndef ICB_NO_METRICS
#define ICB_OBS(S, ...)                                                      \
  do {                                                                       \
    if ((S) != nullptr) {                                                    \
      __VA_ARGS__;                                                           \
    }                                                                        \
  } while (0)
#else
#define ICB_OBS(S, ...)                                                      \
  do {                                                                       \
    (void)(S);                                                               \
  } while (0)
#endif

} // namespace icb::obs

#endif // ICB_OBS_METRICS_H
