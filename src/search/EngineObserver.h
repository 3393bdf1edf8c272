//===- search/EngineObserver.h - Engine progress/checkpoint seam *- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the ICB driver and the session subsystem: an untyped
/// snapshot of the engine's frontier plus an observer interface the
/// driver polls. The driver stays ignorant of files, JSON, and signals —
/// session::CheckpointSink implements the observer and owns persistence.
///
/// A work item is saved uniformly as (schedule prefix, next thread),
/// whichever executor produced it: the stateless executor's PrefixItem is
/// exactly that pair, and the model-VM executor rebuilds its (state,
/// thread) item by replaying the prefix through the interpreter from the
/// initial state. That keeps checkpoints executor-portable in format even
/// though a checkpoint only ever resumes onto the executor that wrote it.
///
/// Snapshots are taken at *safe points* only, where no chain is in flight
/// and the snapshot plus the already-accumulated statistics describe the
/// run exactly:
///   * one worker: between any two chains — periodic checkpoints are
///     cheap and frequent;
///   * any worker count: at bound barriers (periodic), and mid-bound on a
///     cooperative stop after the pool joins.
/// Each worker's deque is saved in pop order, so re-running the work left
/// of a safe point reproduces an uninterrupted run's results exactly: one
/// worker continues in the very order it would have, several workers
/// because the driver's merges are commutative and bug reports canonical
/// (see IcbEngine.h).
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_ENGINEOBSERVER_H
#define ICB_SEARCH_ENGINEOBSERVER_H

#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "search/SearchTypes.h"
#include "support/Stats.h"
#include <cstdint>
#include <string>
#include <vector>

namespace icb::search {

// SavedWorkItem — the executor-neutral checkpoint/wire form of one work
// item — lives in SearchTypes.h so results (SearchResult's lease output)
// and snapshots share one definition.

/// A consistent safe-point image of one ICB driver. `Final` snapshots
/// describe a run that ended on its own (exhausted, limit, first bug) and
/// carry only the finished stats and bugs; resumable snapshots add the
/// frontier queues, the visited-digest sets, and the coverage-sampler
/// cursor needed to continue to results identical to an uninterrupted
/// run's.
struct EngineSnapshot {
  unsigned Bound = 0;
  bool Final = false;
  std::vector<SavedWorkItem> CurrentQueue; ///< This bound's remaining items.
  std::vector<SavedWorkItem> NextQueue;    ///< Deferred to bound + 1.
  SearchStats Stats;
  CoverageSamplerState Sampler;
  std::vector<uint64_t> SeenDigests;
  std::vector<uint64_t> TerminalDigests;
  std::vector<uint64_t> ItemDigests;
  /// First-exposure mode (one worker, non-canonical): discovery order
  /// (restoring re-adds in order, reproducing the historical report
  /// exactly). Canonical mode: (kind, message) order.
  std::vector<Bug> Bugs;
  /// Observability totals so far (empty when the run has no registry).
  /// Restored on resume so a resumed run's work-derived counters match an
  /// uninterrupted run's.
  obs::MetricsSnapshot Metrics;
};

/// Driver-side hooks. All methods are called from the driving thread only
/// (between or after rounds, or by a lone worker, which is that thread),
/// except stopRequested()/checkpointDue()/progressDue() which workers may
/// poll — session implementations back them with atomics.
class EngineObserver {
public:
  virtual ~EngineObserver() = default;

  /// Polled at safe points with the running execution total; returning
  /// true requests a snapshot now. Implementations typically fire every N
  /// executions since the last snapshot.
  virtual bool checkpointDue(uint64_t /*Executions*/) { return false; }

  /// Cooperative external stop (SIGINT/SIGTERM). The driver finishes
  /// in-flight chains, emits one resumable snapshot, and returns with
  /// SearchResult::Interrupted set.
  virtual bool stopRequested() { return false; }

  /// A safe-point snapshot (periodic, stop-triggered, or final).
  virtual void onCheckpoint(const EngineSnapshot & /*Snap*/) {}

  /// A preemption bound was fully explored (manifest progress).
  virtual void onBoundComplete(const BoundCoverage & /*Snapshot*/) {}

  /// Polled after each execution, possibly by any worker — implementations
  /// must be lock-free (obs::ProgressMeter::due is the intended backing).
  /// Returning true claims a progress tick; the driver follows up with
  /// onProgress from the same thread.
  virtual bool progressDue() { return false; }

  /// A claimed progress tick with a fresh frontier sample. Coarse by
  /// design: counts are read without quiescing the workers, so a sample
  /// is approximate in ways the checkpoint/result paths never are.
  virtual void onProgress(const obs::ProgressSample & /*Sample*/) {}
};

} // namespace icb::search

#endif // ICB_SEARCH_ENGINEOBSERVER_H
