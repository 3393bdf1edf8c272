//===- search/IcbSearch.h - Iterative context bounding (Alg. 1) -*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 1: iterative context bounding over the model VM.
///
/// Two FIFO queues of work items (state, thread) are maintained. Items in
/// `workQueue` are explorable within the current preemption bound; whenever
/// the running thread remains enabled after a step, scheduling any *other*
/// enabled thread would preempt it, so those work items are deferred into
/// `nextWorkQueue` and processed only after everything at the current bound
/// is exhausted. Nonpreempting switches (the running thread blocked or
/// terminated) are explored immediately and exhaustively at the same bound.
///
/// Consequences implemented and tested here:
///   * executions are enumerated in nondecreasing preemption order, so the
///     first exposure of any bug uses the minimum number of preemptions;
///   * when bound c completes without an error, the program provably has no
///     error reachable with <= c preemptions (the coverage guarantee);
///   * execution depth is never bounded — with bound 0 the search already
///     drives every thread to completion.
///
/// State caching (the ZING configuration) is optional, exactly as the
/// paper describes: "State caching is orthogonal to the idea of
/// context-bounding; our algorithm may be used with or without it."
///
/// Each bound's queue is drained by `Jobs` workers (search/IcbEngine.h):
/// one worker runs inline in a fixed order, several steal work from each
/// other and merge their results commutatively, so aggregate results do
/// not depend on the worker count.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_ICBSEARCH_H
#define ICB_SEARCH_ICBSEARCH_H

#include "search/BoundPolicy.h"
#include "search/EngineObserver.h"
#include "search/Strategy.h"

namespace icb::search {

/// Iterative context-bounding search (Algorithm 1).
class IcbSearch final : public Strategy {
public:
  struct Options {
    /// Worker threads draining each bound. 0 picks the hardware
    /// concurrency.
    unsigned Jobs = 1;
    /// Shards in the concurrent state caches; 0 derives one from the
    /// worker count (at least 64, at least 8x jobs, power of two).
    unsigned Shards = 0;
    /// Prune (state, thread) work items already explored (ZING mode).
    bool UseStateCache = false;
    /// Carry full schedules in work items so bug reports are replayable.
    /// Disable for exhaustive coverage runs to save queue memory.
    bool RecordSchedules = true;
    /// Bounded POR: sleep sets composed with the preemption bound
    /// (VmExecutor::Options::UseSleepSets). Sleep sets travel inside the
    /// work items, so the worker count does not affect results.
    bool UseSleepSets = false;
    SearchLimits Limits;
    /// Bound policy (see BoundPolicy.h). Null = preemption bounding at
    /// Limits.MaxPreemptionBound. Must outlive the run.
    const BoundPolicy *Policy = nullptr;
    /// Session hooks and resume snapshot (see EngineObserver.h).
    EngineObserver *Observer = nullptr;
    const EngineSnapshot *Resume = nullptr;
    /// Observability registry (see obs/Metrics.h).
    obs::MetricsRegistry *Metrics = nullptr;
    /// Distributed lease participation (see search::LeaseMode). Any lease
    /// mode forces canonical bug reports — the coordinator's merge is
    /// canonical by construction — as does more than one worker.
    LeaseMode Lease = LeaseMode::Off;
  };

  explicit IcbSearch(Options Opts) : Opts(Opts) {}

  SearchResult run(const vm::Interp &Interp) override;
  std::string name() const override { return "icb"; }

private:
  Options Opts;
};

} // namespace icb::search

#endif // ICB_SEARCH_ICBSEARCH_H
