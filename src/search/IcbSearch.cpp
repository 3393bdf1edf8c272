//===- search/IcbSearch.cpp - Iterative context bounding (Alg. 1) ---------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "search/IcbSearch.h"
#include "search/IcbEngine.h"
#include "search/VmExecutor.h"
#include "support/WorkerPool.h"
#include <memory>
#include <vector>

using namespace icb;
using namespace icb::search;

SearchResult IcbSearch::run(const vm::Interp &Interp) {
  unsigned Jobs = Opts.Jobs ? Opts.Jobs : WorkerPool::defaultWorkers();
  // The interpreter is stateless w.r.t. the search, so the executors can
  // all share it; one instance per worker keeps the driver's "executor i
  // runs on worker i" contract uniform with the runtime executor, which
  // does carry per-thread state.
  std::vector<std::unique_ptr<VmExecutor>> Executors;
  Executors.reserve(Jobs);
  for (unsigned I = 0; I != Jobs; ++I)
    Executors.push_back(std::make_unique<VmExecutor>(
        Interp, VmExecutor::Options{Opts.UseStateCache, Opts.RecordSchedules,
                                    Opts.UseSleepSets}));

  IcbEngineOptions EngineOpts;
  EngineOpts.Limits = Opts.Limits;
  EngineOpts.Policy = Opts.Policy;
  // Historical model-VM bug policy: first exposure wins at equal
  // preemption counts, reported in discovery order. Several workers have
  // no fixed discovery order, and lease executions are merged by a
  // coordinator whose folds are canonical, so both report canonically.
  EngineOpts.CanonicalBugs = Opts.Jobs != 1 || Opts.Lease != LeaseMode::Off;
  EngineOpts.Shards = Opts.Shards;
  EngineOpts.Observer = Opts.Observer;
  EngineOpts.Resume = Opts.Resume;
  EngineOpts.Metrics = Opts.Metrics;
  EngineOpts.Lease = Opts.Lease;
  return runParallelIcbEngine(Executors, EngineOpts);
}
