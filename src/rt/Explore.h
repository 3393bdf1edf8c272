//===- rt/Explore.h - Stateless exploration of runtime tests ----*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stateless (CHESS-side) explorers. CHESS caches no states: a work
/// item of the ICB algorithm carries a schedule *prefix* instead of a
/// state, and "Execute(w.tid)" replays the prefix deterministically before
/// continuing. Coverage is counted in distinct happens-before fingerprints
/// (Section 4.3's state representation for stateless checking).
///
/// Results, bugs, limits, and statistics are the shared search vocabulary
/// (search/SearchTypes.h) — one Bug type, one stats block, one limit
/// struct across both engines. The historical rt names remain as aliases.
///
/// Explorers: IcbExplorer (the shared Algorithm 1 driver of
/// search/IcbEngine.h driving one rt::ReplayExecutor per worker),
/// DfsExplorer (Verisoft-style
/// backtracking, optionally depth-bounded — "db:N"), RandomExplorer
/// (uniform random walk).
///
//===----------------------------------------------------------------------===//

#ifndef ICB_RT_EXPLORE_H
#define ICB_RT_EXPLORE_H

#include "rt/ExecutionResult.h"
#include "rt/Scheduler.h"
#include "search/BoundPolicy.h"
#include "search/EngineObserver.h"
#include "search/SearchTypes.h"
#include <string>
#include <vector>

namespace icb::rt {

/// A bug found by exploration, with its minimal-known exposure. Shared
/// with the model-VM engine; runtime bugs carry the annotated replayable
/// schedule in Bug::Sched.
using RtBug = search::Bug;

/// Exploration limits (shared with the model-VM engine).
using ExploreLimits = search::SearchLimits;

/// One sample of the fingerprints-vs-executions coverage curve.
using CoveragePoint = search::CoveragePoint;

/// Coverage at the completion of one preemption bound (ICB only).
using BoundCoverage = search::BoundCoverage;

/// Aggregate exploration statistics (Table 1 columns and figure curves).
using ExploreStats = search::SearchStats;

/// Everything an explorer returns.
using ExploreResult = search::SearchResult;

/// Common options for all explorers.
struct ExploreOptions {
  Scheduler::Options Exec;
  ExploreLimits Limits = defaultLimits();
  /// ICB only: worker threads draining each preemption bound. 1 runs on
  /// the calling thread; 0 picks the hardware concurrency. Each worker
  /// owns its own Scheduler (and fiber stacks).
  unsigned Jobs = 1;
  /// ICB only: shards in the concurrent fingerprint caches (0 = auto).
  unsigned Shards = 0;
  /// ICB only: bounded POR — sleep sets composed with the preemption
  /// bound (rt::IcbPolicy). Prunes same-bound siblings covered by
  /// independence without changing which bugs exist at which minimal
  /// bounds; sleep sets travel inside work items, so Jobs does not affect
  /// results.
  bool Por = false;
  /// ICB only: the bound policy (see search/BoundPolicy.h). Null =
  /// preemption bounding at Limits.MaxPreemptionBound. Must outlive the
  /// run.
  const search::BoundPolicy *Policy = nullptr;
  /// ICB only: session hooks and resume snapshot (see EngineObserver.h).
  search::EngineObserver *Observer = nullptr;
  const search::EngineSnapshot *Resume = nullptr;
  /// Observability registry (see obs/Metrics.h), honoured by every
  /// explorer. The ICB engine shards it per worker; the sequential
  /// explorers (dfs, db:N, idfs, random) record into a single shard:
  /// cache probes, chains, per-bound executions, and the Execute /
  /// Hash / RaceDetect phase timers.
  obs::MetricsRegistry *Metrics = nullptr;
  /// ICB only: distributed lease participation (see search::LeaseMode).
  search::LeaseMode Lease = search::LeaseMode::Off;

  /// The runtime's historical safety nets: exploration stops after 2^20
  /// executions (the fiber runtime cannot enumerate forever on the larger
  /// benchmarks) and the preemption bound is effectively unbounded.
  static ExploreLimits defaultLimits() {
    ExploreLimits L;
    L.MaxExecutions = 1u << 20;
    L.MaxPreemptionBound = 1u << 20;
    return L;
  }
};

/// A stateless explorer of one TestCase's schedule space.
class Explorer {
public:
  virtual ~Explorer();
  virtual ExploreResult explore(const TestCase &Test) = 0;
  virtual std::string name() const = 0;
};

/// Iterative context bounding, stateless: the shared Algorithm 1 engine
/// (search/IcbEngine.h) driving a ReplayExecutor per worker. Executions
/// are enumerated in nondecreasing preemption order; every execution
/// processed at bound c has exactly c preemptions (asserted internally).
/// Bug reports are canonical (minimal exposure, sorted by kind and
/// message), so a Jobs=1 run and a Jobs=N run produce identical output.
class IcbExplorer final : public Explorer {
public:
  explicit IcbExplorer(ExploreOptions Opts) : Opts(Opts) {}
  ExploreResult explore(const TestCase &Test) override;
  std::string name() const override { return "icb"; }

private:
  ExploreOptions Opts;
};

/// Stateless depth-first search via backtracking and replay; DepthBound 0
/// is the unbounded "dfs" baseline, a nonzero bound is "db:N".
class DfsExplorer final : public Explorer {
public:
  DfsExplorer(ExploreOptions Opts, unsigned DepthBound = 0)
      : Opts(Opts), DepthBound(DepthBound) {}
  ExploreResult explore(const TestCase &Test) override;
  std::string name() const override;

private:
  ExploreOptions Opts;
  unsigned DepthBound;
};

/// Iterative depth-bounding over the stateless DFS ("idfs-N"): rounds at
/// depth N, 2N, 3N, ... accumulate into one coverage curve.
class IdfsExplorer final : public Explorer {
public:
  IdfsExplorer(ExploreOptions Opts, unsigned InitialBound, unsigned Increment)
      : Opts(Opts), InitialBound(InitialBound), Increment(Increment) {}
  ExploreResult explore(const TestCase &Test) override;
  std::string name() const override;

private:
  ExploreOptions Opts;
  unsigned InitialBound;
  unsigned Increment;
};

/// Random scheduling, seeded and reproducible. Two flavours:
///   * uniform — a fresh uniform choice among enabled threads at every
///     scheduling point (the random-walk search of Sivaraj &
///     Gopalakrishnan);
///   * stress-like slices — run the current thread for a geometrically
///     distributed time slice before switching, approximating what
///     stress testing's OS scheduler does (few, coarse preemptions).
class RandomExplorer final : public Explorer {
public:
  RandomExplorer(ExploreOptions Opts, uint64_t Seed, uint64_t Executions,
                 bool StressSlices = false, unsigned MeanSlice = 8)
      : Opts(Opts), Seed(Seed), Executions(Executions),
        StressSlices(StressSlices), MeanSlice(MeanSlice) {}
  ExploreResult explore(const TestCase &Test) override;
  std::string name() const override {
    return StressSlices ? "random-slice" : "random";
  }

private:
  ExploreOptions Opts;
  uint64_t Seed;
  uint64_t Executions;
  bool StressSlices;
  unsigned MeanSlice;
};

/// Replays a recorded schedule: each recorded thread in turn, then the
/// canonical nonpreemptive continuation past the end. A recorded thread
/// that is not enabled stops the execution and sets Diverged, because a
/// schedule read from disk (an .icbrepro) may be tampered with or belong
/// to another program. Departures lists every point where the schedule
/// departs from the nonpreemptive default: the directives that
/// session::minimizeRt shrinks.
class ReplayPolicy final : public SchedulePolicy {
public:
  /// At scheduling point Index, Tid ran instead of the default.
  struct Departure {
    uint64_t Index = 0;
    ThreadId Tid = 0;
  };

  explicit ReplayPolicy(const trace::Schedule &Sched) : Sched(Sched) {}
  ThreadId pick(const SchedPoint &P) override;

  std::vector<Departure> Departures;
  /// Set when a recorded thread was not enabled; the execution stopped at
  /// that point, after ExecutionResult::Steps steps.
  bool Diverged = false;

private:
  const trace::Schedule &Sched;
};

/// Replays \p Sched, a schedule the search itself produced, against
/// \p Test (nonpreemptive continuation past the end) and returns the
/// result; used to render bug traces with step text. Such a schedule
/// cannot diverge unless the test is nondeterministic, which asserts.
ExecutionResult replaySchedule(const TestCase &Test,
                               const trace::Schedule &Sched,
                               Scheduler::Options ExecOpts);

/// Renders a bug as a full counterexample trace by replaying its schedule
/// with step text collection enabled.
std::string renderBugTrace(const TestCase &Test, const RtBug &Bug,
                           Scheduler::Options ExecOpts);

} // namespace icb::rt

#endif // ICB_RT_EXPLORE_H
