//===- search/Checker.h - One-call model checking facade --------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience entry point used by examples, tests and benches: pick a
/// strategy by name/kind, run it over a model program, get bugs and stats.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_CHECKER_H
#define ICB_SEARCH_CHECKER_H

#include "search/BoundPolicy.h"
#include "search/EngineObserver.h"
#include "search/SearchTypes.h"
#include "search/Strategy.h"
#include "vm/Program.h"
#include <memory>

namespace icb::search {

/// Which algorithm explores the state space.
enum class StrategyKind : uint8_t {
  Icb,              ///< Iterative context bounding (Algorithm 1).
  Dfs,              ///< Depth-first search.
  DepthBoundedDfs,  ///< DFS truncated at a fixed depth ("db:N").
  IterativeDfs,     ///< Iterative depth-bounding ("idfs-N").
  Random,           ///< Uniform random walk.
};

/// All strategy knobs in one bag; each strategy reads the fields relevant
/// to it (documented per field).
struct SearchOptions {
  StrategyKind Kind = StrategyKind::Icb;
  SearchLimits Limits;
  /// Icb: the bound policy (see BoundPolicy.h). Null = preemption
  /// bounding at Limits.MaxPreemptionBound. Must outlive the run; other
  /// strategies ignore it.
  const BoundPolicy *Policy = nullptr;
  /// Icb, Dfs: prune revisited states / work items.
  bool UseStateCache = false;
  /// Icb: carry schedules in work items (replayable bug reports).
  bool RecordSchedules = true;
  /// Icb: bounded POR — sleep sets composed with the preemption bound.
  /// Prunes same-bound siblings covered by independence without changing
  /// which bugs exist at which minimal bounds. Other strategies ignore it.
  bool UseSleepSets = false;
  /// Icb: worker threads draining each bound (0 = hardware concurrency).
  unsigned Jobs = 1;
  /// Icb: shards in the concurrent caches (0 = auto).
  unsigned Shards = 0;
  /// DepthBoundedDfs: the bound. IterativeDfs: initial bound and increment.
  unsigned DepthBound = 20;
  /// Random: PRNG seed and number of executions.
  uint64_t Seed = 1;
  uint64_t RandomExecutions = 1000;
  /// Icb: session hooks and resume snapshot (see EngineObserver.h); other
  /// strategies ignore them.
  EngineObserver *Observer = nullptr;
  const EngineSnapshot *Resume = nullptr;
  /// Observability registry (see obs/Metrics.h), honoured by every
  /// strategy. Icb shards it per worker; the baseline strategies record
  /// into a single shard.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Icb: distributed lease participation (see search::LeaseMode); other
  /// strategies ignore it.
  LeaseMode Lease = LeaseMode::Off;
};

/// Instantiates the strategy described by \p Opts.
std::unique_ptr<Strategy> makeStrategy(const SearchOptions &Opts);

/// Builds an interpreter for \p Prog and runs the requested strategy.
SearchResult checkProgram(const vm::Program &Prog, const SearchOptions &Opts);

} // namespace icb::search

#endif // ICB_SEARCH_CHECKER_H
