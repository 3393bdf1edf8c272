//===- rt/Explore.cpp - Stateless exploration of runtime tests ------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Explore.h"
#include "obs/PhaseTimer.h"
#include "rt/ReplayExecutor.h"
#include "search/IcbEngine.h"
#include "search/ShardedStateCache.h"
#include "support/Debug.h"
#include "support/Format.h"
#include "support/Prng.h"
#include "support/WorkerPool.h"
#include "trace/TraceWriter.h"
#include <algorithm>
#include <memory>

using namespace icb;
using namespace icb::rt;

Explorer::~Explorer() = default;

namespace {

/// Shared accounting of the non-ICB explorers (DFS, idfs, random): stats,
/// fingerprint coverage, bug deduplication (keyed by kind+message,
/// keeping the fewest-preemption exposure), and — when a registry is
/// passed through ExploreOptions — the same observability counters the
/// ICB engine records (single shard; these explorers are sequential).
class ExploreAccounting {
public:
  ExploreAccounting(const ExploreLimits &Limits, obs::MetricShard *Shard)
      : Limits(Limits), Shard(Shard) {}

  /// Folds one finished execution in; returns true when a limit was hit.
  bool onExecution(const ExecutionResult &R) {
    ++Stats.Executions;
    Stats.TotalSteps += R.Steps;
    Stats.StepsPerExecution.observe(R.Steps);
    Stats.BlockingPerExecution.observe(R.BlockingOps);
    Stats.PreemptionsPerExecution.observe(R.Preemptions);
    Stats.PreemptionHistogram.increment(R.Preemptions);
    Stats.ThreadsPerExecution.observe(R.ThreadsUsed);
    uint64_t NewDigests = 0;
    for (uint64_t Digest : R.StepFingerprints)
      NewDigests += Visited.insert(Digest);
    obs::count(Shard, obs::Counter::SeenMiss, NewDigests);
    obs::count(Shard, obs::Counter::SeenHit,
               R.StepFingerprints.size() - NewDigests);
    if (Terminal.insert(R.Fingerprint))
      obs::count(Shard, obs::Counter::TerminalMiss);
    else
      obs::count(Shard, obs::Counter::TerminalHit);
    // Every execution of these explorers is one complete chain starting
    // from the root (no prefix replay), so Chains mirrors Executions.
    obs::count(Shard, obs::Counter::Chains);
    ICB_OBS(Shard, Shard->ExecutionsPerBound.increment(R.Preemptions));
    Sampler.observe(Stats.Coverage, Stats.Executions, Visited.size());

    if (isErrorStatus(R.Status)) {
      Bugs.add(bugFromResult(R));
      if (Limits.StopAtFirstBug)
        LimitHit = true;
    }
    if (Stats.Executions >= Limits.MaxExecutions)
      LimitHit = true;
    return LimitHit;
  }

  bool limitHit() const { return LimitHit; }
  obs::MetricShard *shard() const { return Shard; }

  ExploreResult finish(bool Completed) {
    Sampler.finish(Stats.Coverage);
    Stats.DistinctStates = Visited.size();
    Stats.DistinctTerminalStates = Terminal.size();
    Stats.Completed = Completed && !LimitHit;
    ExploreResult Result;
    Result.Stats = std::move(Stats);
    Result.Bugs = Bugs.take();
    return Result;
  }

  ExploreStats Stats;

private:
  ExploreLimits Limits;
  obs::MetricShard *Shard;
  CoverageSampler<CoveragePoint> Sampler;
  search::ShardedStateCache Visited;
  search::ShardedStateCache Terminal;
  search::BugCollector Bugs;
  bool LimitHit = false;
};

/// The single metric shard of a sequential explorer (these explorers run
/// on the calling thread), or null when no registry was supplied.
obs::MetricShard *singleShard(const ExploreOptions &Opts) {
  if (!Opts.Metrics)
    return nullptr;
  Opts.Metrics->ensureShards(1);
  return &Opts.Metrics->shard(0);
}

} // namespace

//===----------------------------------------------------------------------===//
// IcbExplorer
//===----------------------------------------------------------------------===//

ExploreResult IcbExplorer::explore(const TestCase &Test) {
  search::IcbEngineOptions EngineOpts;
  EngineOpts.Limits = Opts.Limits;
  EngineOpts.Policy = Opts.Policy;
  EngineOpts.Shards = Opts.Shards;
  // Canonical bug reports make a Jobs=1 run byte-comparable to a Jobs=N
  // run of the same test.
  EngineOpts.CanonicalBugs = true;
  EngineOpts.Observer = Opts.Observer;
  EngineOpts.Resume = Opts.Resume;
  EngineOpts.Metrics = Opts.Metrics;
  EngineOpts.Lease = Opts.Lease;

  unsigned Jobs = Opts.Jobs ? Opts.Jobs : WorkerPool::defaultWorkers();
  std::vector<std::unique_ptr<ReplayExecutor>> Executors;
  Executors.reserve(Jobs);
  for (unsigned I = 0; I != Jobs; ++I)
    Executors.push_back(
        std::make_unique<ReplayExecutor>(Test, Opts.Exec, Opts.Por));
  return search::runParallelIcbEngine(Executors, EngineOpts);
}

//===----------------------------------------------------------------------===//
// DfsExplorer / IdfsExplorer
//===----------------------------------------------------------------------===//

namespace {

/// One backtracking point of the stateless DFS.
struct PathEntry {
  std::vector<ThreadId> Enabled;
  size_t Chosen = 0;
};

/// Follows the recorded path; beyond it, picks the first enabled thread
/// and records a new backtracking point. Aborts at the depth bound.
class DfsPolicy : public SchedulePolicy {
public:
  DfsPolicy(std::vector<PathEntry> &Path, unsigned DepthBound)
      : Path(Path), DepthBound(DepthBound) {}

  ThreadId pick(const SchedPoint &P) override {
    if (DepthBound != 0 && P.Index >= DepthBound) {
      Truncated = true;
      return AbortExecution;
    }
    if (P.Index < Path.size()) {
      const PathEntry &E = Path[P.Index];
      ICB_ASSERT(E.Enabled == P.Enabled,
                 "DFS replay divergence (nondeterministic test?)");
      return E.Enabled[E.Chosen];
    }
    Path.push_back({P.Enabled, 0});
    return P.Enabled.front();
  }

  bool Truncated = false;

private:
  std::vector<PathEntry> &Path;
  unsigned DepthBound;
};

/// Runs one complete DFS round; returns true if any execution hit the
/// depth bound (i.e. the bound actually truncated the space).
bool runDfsRound(const TestCase &Test, Scheduler &Sched,
                 ExploreAccounting &Acct, unsigned DepthBound) {
  std::vector<PathEntry> Path;
  bool AnyTruncated = false;
  while (!Acct.limitHit()) {
    DfsPolicy Policy(Path, DepthBound);
    ExecutionResult R;
    {
      obs::ScopedPhase Timer(Acct.shard(), obs::Phase::Execute);
      R = Sched.run(Test, Policy);
    }
    AnyTruncated |= Policy.Truncated;
    Acct.onExecution(R);
    // Backtrack: advance the deepest entry with an untried alternative.
    while (!Path.empty()) {
      PathEntry &E = Path.back();
      if (E.Chosen + 1 < E.Enabled.size()) {
        ++E.Chosen;
        break;
      }
      Path.pop_back();
    }
    if (Path.empty())
      break;
  }
  return AnyTruncated;
}

} // namespace

ExploreResult DfsExplorer::explore(const TestCase &Test) {
  ExploreAccounting Acct(Opts.Limits, singleShard(Opts));
  Scheduler Sched(Opts.Exec);
  Sched.setMetricShard(Acct.shard());
  bool Truncated = runDfsRound(Test, Sched, Acct, DepthBound);
  return Acct.finish(!Truncated);
}

std::string DfsExplorer::name() const {
  if (DepthBound != 0)
    return strFormat("db:%u", DepthBound);
  return "dfs";
}

ExploreResult IdfsExplorer::explore(const TestCase &Test) {
  ExploreAccounting Acct(Opts.Limits, singleShard(Opts));
  Scheduler Sched(Opts.Exec);
  Sched.setMetricShard(Acct.shard());
  unsigned Bound = InitialBound;
  bool Completed = false;
  while (!Acct.limitHit()) {
    bool Truncated = runDfsRound(Test, Sched, Acct, Bound);
    if (!Truncated) {
      Completed = true; // The whole space fit inside the bound.
      break;
    }
    ICB_ASSERT(Increment > 0, "idfs increment must be positive");
    Bound += Increment;
  }
  return Acct.finish(Completed);
}

std::string IdfsExplorer::name() const {
  return strFormat("idfs-%u", InitialBound);
}

//===----------------------------------------------------------------------===//
// RandomExplorer
//===----------------------------------------------------------------------===//

namespace {

class RandomPolicy : public SchedulePolicy {
public:
  explicit RandomPolicy(Xoshiro256 &Rng) : Rng(Rng) {}

  ThreadId pick(const SchedPoint &P) override {
    return P.Enabled[Rng.pickIndex(P.Enabled.size())];
  }

private:
  Xoshiro256 &Rng;
};

/// Stress-like scheduling: keep running the previous thread until its
/// geometric time slice expires or it blocks, then pick uniformly. This
/// is what an OS scheduler under stress load approximates: long slices,
/// occasional coarse preemptions.
class RandomSlicePolicy : public SchedulePolicy {
public:
  RandomSlicePolicy(Xoshiro256 &Rng, unsigned MeanSlice)
      : Rng(Rng), MeanSlice(MeanSlice) {}

  ThreadId pick(const SchedPoint &P) override {
    bool SliceExpired = Rng.nextBounded(MeanSlice) == 0;
    if (P.Last != InvalidThread && P.LastEnabled && !SliceExpired)
      return P.Last;
    return P.Enabled[Rng.pickIndex(P.Enabled.size())];
  }

private:
  Xoshiro256 &Rng;
  unsigned MeanSlice;
};

} // namespace

ExploreResult RandomExplorer::explore(const TestCase &Test) {
  ExploreAccounting Acct(Opts.Limits, singleShard(Opts));
  Scheduler Sched(Opts.Exec);
  Sched.setMetricShard(Acct.shard());
  Xoshiro256 Rng(Seed);
  for (uint64_t I = 0; I != Executions && !Acct.limitHit(); ++I) {
    ExecutionResult R;
    {
      obs::ScopedPhase Timer(Acct.shard(), obs::Phase::Execute);
      if (StressSlices) {
        RandomSlicePolicy Policy(Rng, MeanSlice);
        R = Sched.run(Test, Policy);
      } else {
        RandomPolicy Policy(Rng);
        R = Sched.run(Test, Policy);
      }
    }
    Acct.onExecution(R);
  }
  return Acct.finish(/*Completed=*/false);
}

//===----------------------------------------------------------------------===//
// Replay helpers
//===----------------------------------------------------------------------===//

ThreadId ReplayPolicy::pick(const SchedPoint &P) {
  ThreadId Default = P.LastEnabled ? P.Last : P.Enabled.front();
  if (P.Index >= Sched.length())
    return Default;
  ThreadId Tid = Sched.entry(P.Index).Tid;
  if (std::find(P.Enabled.begin(), P.Enabled.end(), Tid) == P.Enabled.end()) {
    Diverged = true;
    return AbortExecution;
  }
  if (Tid != Default)
    Departures.push_back({P.Index, Tid});
  return Tid;
}

ExecutionResult icb::rt::replaySchedule(const TestCase &Test,
                                        const trace::Schedule &Sched,
                                        Scheduler::Options ExecOpts) {
  ReplayPolicy Policy(Sched);
  Scheduler S(ExecOpts);
  ExecutionResult R = S.run(Test, Policy);
  ICB_ASSERT(!Policy.Diverged,
             "replay divergence: recorded thread not enabled (the test is "
             "nondeterministic)");
  return R;
}

std::string icb::rt::renderBugTrace(const TestCase &Test, const RtBug &Bug,
                                    Scheduler::Options ExecOpts) {
  ExecOpts.CollectStepText = true;
  ExecutionResult R = replaySchedule(Test, Bug.Sched, ExecOpts);
  std::vector<trace::TraceStep> Steps;
  Steps.reserve(R.StepText.size());
  for (size_t I = 0; I != R.StepText.size(); ++I) {
    trace::TraceStep Step;
    const trace::ScheduleEntry &E = R.Sched.entry(I);
    Step.Tid = E.Tid;
    Step.ThreadName = R.StepThreadNames[I];
    Step.Description = R.StepText[I];
    Step.Preemption = E.Preemption;
    Step.ContextSwitch = E.ContextSwitch;
    Steps.push_back(std::move(Step));
  }
  std::string Title = strFormat("%s: %s", runStatusName(R.Status),
                                R.Message.c_str());
  return trace::TraceWriter::render(Title, Steps);
}
