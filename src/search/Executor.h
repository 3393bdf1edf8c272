//===- search/Executor.h - The engine/executor seam -------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper implements Algorithm 1 twice — inside the explicit-state ZING
/// checker and inside the stateless CHESS runtime. This repo implements it
/// once: the driver in IcbEngine.h walks the bounded tree and an
/// *executor* advances the search from one work item, publishing
/// continuations and accounting through the driver's context hooks.
///
/// An Executor provides:
///
///   using WorkItem = ...;     // movable; carries everything needed to
///                             // resume the search at one tree node
///
///   template <typename Ctx>
///   std::vector<WorkItem> rootItems(Ctx &C);
///       // Bound-0 roots. May record a degenerate execution (a program
///       // with no enabled thread at the initial state) directly on C and
///       // return an empty vector.
///
///   template <typename Ctx>
///   void runChain(WorkItem Item, Ctx &C);
///       // Runs one execution from Item: follow the item's thread while
///       // it stays enabled (Algorithm 1 lines 25-28), C.defer() every
///       // preemptive alternative (lines 29-32), C.branch() every free
///       // alternative at blocked/finished/yield points (lines 33-37),
///       // and account the finished execution on C.
///
/// Two executors exist:
///   * VmExecutor (VmExecutor.h) steps `vm::State`s of a model program —
///     a work item is a (state, thread) pair;
///   * rt::ReplayExecutor (rt/ReplayExecutor.h) deterministically replays
///     a schedule prefix on the fiber runtime — a work item is the prefix
///     plus the forced next thread, and each executor instance owns its
///     own Scheduler so prefixes replay concurrently on worker threads.
///
/// The Ctx hooks an executor drives (provided by the engine driver):
///
///   bool claimItem(uint64_t digest);  // (state, thread) work-item cache;
///                                     // true if new (ZING pruning mode)
///   void noteState(uint64_t digest);  // visited-state / fingerprint set
///   void noteTerminal(uint64_t digest); // terminal fingerprint (rt only)
///   void countSteps(uint64_t n);      // n more scheduler/VM steps ran
///   void branch(WorkItem &&item);     // nonpreempting: same bound
///   void defer(WorkItem &&item);      // preempting: bound c + 1
///   void recordBug(Bug bug);          // Preemptions overwritten with the
///                                     // current bound by the driver
///   void endExecution(const ExecutionFacts &facts);
///   unsigned bound();                 // current preemption bound
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_EXECUTOR_H
#define ICB_SEARCH_EXECUTOR_H

#include <cstdint>

namespace icb::search {

/// What an executor reports when one execution finishes.
struct ExecutionFacts {
  uint64_t Steps = 0;    ///< Length of the execution (K).
  uint64_t Blocking = 0; ///< Blocking operations executed (B).
  /// Threads used; 0 means "not tracked" (the model VM does not report
  /// it) and is excluded from the ThreadsPerExecution distribution.
  unsigned ThreadsUsed = 0;
  /// Residual schedule-space mass of the finished chain (the work item's
  /// mass minus everything split off to published children along the
  /// way), credited by the driver to EstMassPerBound — see
  /// obs::EstimateOne. Zero when the estimator is dark (ICB_NO_METRICS)
  /// or for facts built by paths that predate it (defaulted).
  uint64_t EstMass = 0;
};

} // namespace icb::search

#endif // ICB_SEARCH_EXECUTOR_H
