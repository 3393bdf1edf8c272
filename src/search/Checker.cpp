//===- search/Checker.cpp - One-call model checking facade ----------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "search/Checker.h"
#include "search/Dfs.h"
#include "search/IcbSearch.h"
#include "search/RandomWalk.h"
#include "support/Debug.h"

using namespace icb;
using namespace icb::search;

std::unique_ptr<Strategy> icb::search::makeStrategy(const SearchOptions &Opts) {
  switch (Opts.Kind) {
  case StrategyKind::Icb: {
    IcbSearch::Options O;
    O.Jobs = Opts.Jobs;
    O.Shards = Opts.Shards;
    O.UseStateCache = Opts.UseStateCache;
    O.RecordSchedules = Opts.RecordSchedules;
    O.UseSleepSets = Opts.UseSleepSets;
    O.Limits = Opts.Limits;
    O.Policy = Opts.Policy;
    O.Observer = Opts.Observer;
    O.Resume = Opts.Resume;
    O.Metrics = Opts.Metrics;
    O.Lease = Opts.Lease;
    return std::make_unique<IcbSearch>(O);
  }
  case StrategyKind::Dfs: {
    DfsSearch::Options O;
    O.UseStateCache = Opts.UseStateCache;
    O.DepthBound = 0;
    O.Limits = Opts.Limits;
    O.Metrics = Opts.Metrics;
    return std::make_unique<DfsSearch>(O);
  }
  case StrategyKind::DepthBoundedDfs: {
    DfsSearch::Options O;
    O.UseStateCache = false;
    O.DepthBound = Opts.DepthBound;
    O.Limits = Opts.Limits;
    O.Metrics = Opts.Metrics;
    return std::make_unique<DfsSearch>(O);
  }
  case StrategyKind::IterativeDfs: {
    IterativeDeepeningSearch::Options O;
    O.InitialBound = Opts.DepthBound;
    O.Increment = Opts.DepthBound;
    O.Limits = Opts.Limits;
    O.Metrics = Opts.Metrics;
    return std::make_unique<IterativeDeepeningSearch>(O);
  }
  case StrategyKind::Random: {
    RandomWalk::Options O;
    O.Seed = Opts.Seed;
    O.Executions = Opts.RandomExecutions;
    O.Limits = Opts.Limits;
    O.Metrics = Opts.Metrics;
    return std::make_unique<RandomWalk>(O);
  }
  }
  ICB_UNREACHABLE("unknown strategy kind");
}

SearchResult icb::search::checkProgram(const vm::Program &Prog,
                                       const SearchOptions &Opts) {
  vm::Interp Interp(Prog);
  return makeStrategy(Opts)->run(Interp);
}
