//===- search/RandomWalk.cpp - Uniform random-walk baseline ---------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "search/RandomWalk.h"
#include "obs/PhaseTimer.h"
#include "search/ShardedStateCache.h"
#include "support/Prng.h"
#include <algorithm>

using namespace icb;
using namespace icb::search;
using namespace icb::vm;

namespace icb::search::detail {
// Defined in Dfs.cpp; shared deadlock pretty-printer.
std::string describeDeadlock(const Interp &Interp, const State &S);
} // namespace icb::search::detail

SearchResult RandomWalk::run(const Interp &Interp) {
  Xoshiro256 Rng(Opts.Seed);
  ShardedStateCache Seen;
  SearchResult Result;
  BugCollector Bugs;
  SearchStats &Stats = Result.Stats;
  CoverageSampler<CoveragePoint> Sampler;

  obs::MetricShard *Shard = nullptr;
  if (Opts.Metrics) {
    Opts.Metrics->ensureShards(1);
    Shard = &Opts.Metrics->shard(0);
  }
  auto ProbeSeen = [&](uint64_t Hash) {
    bool New = Seen.insert(Hash);
    obs::count(Shard, New ? obs::Counter::SeenMiss : obs::Counter::SeenHit);
    return New;
  };

  State S0 = Interp.initialState();
  uint64_t InitialHash = S0.hash();

  bool LimitHit = false;
  for (uint64_t Exec = 0; Exec != Opts.Executions && !LimitHit; ++Exec) {
    obs::ScopedPhase ExecTimer(Shard, obs::Phase::Execute);
    State S = S0;
    ProbeSeen(InitialHash);
    std::vector<ThreadId> Sched;
    unsigned Np = 0;
    uint64_t Blocking = 0;
    ThreadId Last = InvalidThread;
    bool BugThisExec = false;

    while (true) {
      std::vector<ThreadId> Enabled = Interp.enabledThreads(S);
      if (Enabled.empty()) {
        if (!S.allDone()) {
          Bug NewBug;
          NewBug.Kind = BugKind::Deadlock;
          NewBug.Message = detail::describeDeadlock(Interp, S);
          NewBug.Preemptions = Np;
          NewBug.Steps = Sched.size();
          NewBug.Schedule = Sched;
          Bugs.add(std::move(NewBug));
          BugThisExec = true;
        }
        break;
      }
      bool LastEnabled =
          Last != InvalidThread &&
          std::find(Enabled.begin(), Enabled.end(), Last) != Enabled.end();
      ThreadId T = Enabled[Rng.pickIndex(Enabled.size())];
      if (Last != InvalidThread && T != Last && LastEnabled)
        ++Np;
      StepResult R = Interp.step(S, T);
      ++Stats.TotalSteps;
      Blocking += R.WasBlockingOp ? 1 : 0;
      Sched.push_back(T);
      ProbeSeen(S.hash());
      Last = T;
      if (R.Status == StepStatus::AssertFailed ||
          R.Status == StepStatus::ModelError) {
        Bug NewBug;
        NewBug.Kind = R.Status == StepStatus::AssertFailed
                          ? BugKind::AssertFailure
                          : BugKind::ModelError;
        NewBug.Message = R.Status == StepStatus::AssertFailed
                             ? Interp.program().Messages[R.MsgId]
                             : R.ModelErrorText;
        NewBug.Preemptions = Np;
        NewBug.Steps = Sched.size();
        NewBug.Schedule = Sched;
        Bugs.add(std::move(NewBug));
        BugThisExec = true;
        break;
      }
    }

    ++Stats.Executions;
    Stats.StepsPerExecution.observe(Sched.size());
    Stats.PreemptionsPerExecution.observe(Np);
    Stats.PreemptionHistogram.increment(Np);
    Stats.BlockingPerExecution.observe(Blocking);
    obs::count(Shard, obs::Counter::Chains);
    ICB_OBS(Shard, Shard->ExecutionsPerBound.increment(Np));
    Sampler.observe(Stats.Coverage, Stats.Executions, Seen.size());
    LimitHit = Stats.Executions >= Opts.Limits.MaxExecutions ||
               Stats.TotalSteps >= Opts.Limits.MaxSteps ||
               Seen.size() >= Opts.Limits.MaxStates ||
               (Opts.Limits.StopAtFirstBug && BugThisExec);
  }

  Stats.DistinctStates = Seen.size();
  Stats.Completed = false; // Random sampling never proves exhaustion.
  Sampler.finish(Stats.Coverage);
  Result.Bugs = Bugs.take();
  return Result;
}
