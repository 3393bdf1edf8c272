//===- search/Dfs.cpp - Depth-first search strategies ---------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "search/Dfs.h"
#include "obs/PhaseTimer.h"
#include "search/ShardedStateCache.h"
#include "support/Debug.h"
#include "support/Format.h"
#include <algorithm>

using namespace icb;
using namespace icb::search;
using namespace icb::vm;

Strategy::~Strategy() = default;

namespace icb::search::detail {

std::string describeDeadlock(const Interp &Interp, const State &S) {
  std::string Text = "deadlock:";
  const Program &Prog = Interp.program();
  for (ThreadId Tid = 0; Tid != S.Threads.size(); ++Tid) {
    if (S.Threads[Tid].Status != ThreadStatus::Runnable)
      continue;
    VarRef Var = Interp.nextVar(S, Tid);
    const char *What = "";
    std::string Name;
    switch (Var.Kind) {
    case VarKind::Lock:
      What = "lock";
      Name = Prog.Locks[Var.Index];
      break;
    case VarKind::Event:
      What = "event";
      Name = Prog.Events[Var.Index].Name;
      break;
    case VarKind::Semaphore:
      What = "semaphore";
      Name = Prog.Semaphores[Var.Index].Name;
      break;
    case VarKind::ThreadEnd:
      What = "join of";
      Name = Prog.Threads[Var.Index].Name;
      break;
    default:
      What = "variable";
      Name = "?";
      break;
    }
    Text += strFormat(" [%s blocked on %s '%s']",
                      Prog.Threads[Tid].Name.c_str(), What, Name.c_str());
  }
  return Text;
}

} // namespace icb::search::detail

namespace {

/// The single metric shard of a sequential strategy, or null when no
/// registry was supplied.
obs::MetricShard *singleShard(obs::MetricsRegistry *Metrics) {
  if (!Metrics)
    return nullptr;
  Metrics->ensureShards(1);
  return &Metrics->shard(0);
}

/// Shared DFS engine: one object accumulates statistics, distinct states,
/// and bugs across one or more rounds (IterativeDeepeningSearch runs many
/// rounds with rising depth bounds against the same driver).
class DfsDriver {
public:
  DfsDriver(const vm::Interp &VM, const SearchLimits &Limits,
            obs::MetricShard *Shard)
      : VM(VM), Limits(Limits), Shard(Shard) {}

  struct RoundOutcome {
    bool LimitHit = false;
    bool Truncated = false; ///< Some execution hit the depth bound.
  };

  /// Runs one complete DFS from the initial state.
  RoundOutcome runRound(unsigned DepthBound, bool UseStateCache,
                        bool UseSleepSets = false);

  SearchResult takeResult(bool Completed) {
    SearchResult Result;
    Stats.DistinctStates = Seen.size();
    Stats.Completed = Completed;
    Sampler.finish(Stats.Coverage);
    Result.Stats = std::move(Stats);
    Result.Bugs = Bugs.take();
    return Result;
  }

private:
  struct Frame {
    State S;
    std::vector<ThreadId> Enabled;
    size_t NextChoice = 0;
    ThreadId ProducedBy = InvalidThread;
    bool ProducerEnabled = false;
    unsigned Np = 0;
    uint64_t Blocking = 0;
    bool OwnsScheduleEntry = false;
    /// Sleep set: threads whose next steps were already covered by an
    /// explored sibling subtree (grows as siblings are exhausted).
    std::vector<ThreadId> Sleep;
  };

  /// Records the end of one maximal explored execution.
  bool endExecution(uint64_t Steps, unsigned Np, uint64_t Blocking) {
    ++Stats.Executions;
    Stats.StepsPerExecution.observe(Steps);
    Stats.PreemptionsPerExecution.observe(Np);
    Stats.PreemptionHistogram.increment(Np);
    Stats.BlockingPerExecution.observe(Blocking);
    obs::count(Shard, obs::Counter::Chains);
    ICB_OBS(Shard, Shard->ExecutionsPerBound.increment(Np));
    Sampler.observe(Stats.Coverage, Stats.Executions, Seen.size());
    return Stats.Executions >= Limits.MaxExecutions ||
           Stats.TotalSteps >= Limits.MaxSteps ||
           Seen.size() >= Limits.MaxStates;
  }

  /// State-cache probe with hit/miss accounting.
  bool probeSeen(uint64_t Hash) {
    obs::ScopedPhase Timer(Shard, obs::Phase::CacheProbe);
    bool New = Seen.insert(Hash);
    obs::count(Shard, New ? obs::Counter::SeenMiss : obs::Counter::SeenHit);
    return New;
  }

  void recordBug(BugKind Kind, std::string Message, unsigned Np,
                 const std::vector<ThreadId> &Sched) {
    Bug NewBug;
    NewBug.Kind = Kind;
    NewBug.Message = std::move(Message);
    NewBug.Preemptions = Np;
    NewBug.Steps = Sched.size();
    NewBug.Schedule = Sched;
    Bugs.add(std::move(NewBug));
    FoundBug = true;
  }

  const vm::Interp &VM;
  SearchLimits Limits;
  obs::MetricShard *Shard;
  ShardedStateCache Seen;
  SearchStats Stats;
  CoverageSampler<CoveragePoint> Sampler;
  BugCollector Bugs;
  bool FoundBug = false;
};

DfsDriver::RoundOutcome DfsDriver::runRound(unsigned DepthBound,
                                            bool UseStateCache,
                                            bool UseSleepSets) {
  RoundOutcome Outcome;
  // One Execute scope per round: the stateless vm DFS has no per-chain
  // replay boundary to time individually.
  obs::ScopedPhase ExecTimer(Shard, obs::Phase::Execute);
  std::vector<Frame> Stack;
  std::vector<ThreadId> PathSched;

  State S0 = VM.initialState();
  probeSeen(S0.hash());
  std::vector<ThreadId> Enabled0 = VM.enabledThreads(S0);
  if (Enabled0.empty()) {
    if (!S0.allDone())
      recordBug(BugKind::Deadlock, detail::describeDeadlock(VM, S0), 0,
                PathSched);
    endExecution(0, 0, 0);
    return Outcome;
  }
  Stack.push_back({std::move(S0), std::move(Enabled0), 0, InvalidThread,
                   false, 0, 0, false, {}});

  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextChoice == F.Enabled.size()) {
      if (F.OwnsScheduleEntry)
        PathSched.pop_back();
      Stack.pop_back();
      continue;
    }
    ThreadId T = F.Enabled[F.NextChoice++];
    if (UseSleepSets &&
        std::find(F.Sleep.begin(), F.Sleep.end(), T) != F.Sleep.end())
      continue; // An explored sibling already covers this trace.
    // The next steps of the threads sleeping at F, evaluated before the
    // step mutates the state (the child keeps only those independent of
    // the executed step).
    std::vector<std::pair<ThreadId, VarRef>> SleepVars;
    if (UseSleepSets)
      for (ThreadId U : F.Sleep)
        SleepVars.push_back({U, VM.nextVar(F.S, U)});
    bool Switch = F.ProducedBy != InvalidThread && T != F.ProducedBy;
    bool Preempt = Switch && F.ProducerEnabled;
    unsigned ChildNp = F.Np + (Preempt ? 1 : 0);
    uint64_t ChildBlocking = F.Blocking;

    State Child = F.S;
    StepResult R = VM.step(Child, T);
    ++Stats.TotalSteps;
    ChildBlocking += R.WasBlockingOp ? 1 : 0;
    PathSched.push_back(T);
    uint64_t Depth = PathSched.size();
    bool NewState = probeSeen(Child.hash());

    bool Leaf = false;
    if (R.Status == StepStatus::AssertFailed) {
      recordBug(BugKind::AssertFailure,
                VM.program().Messages[R.MsgId], ChildNp, PathSched);
      Leaf = true;
    } else if (R.Status == StepStatus::ModelError) {
      recordBug(BugKind::ModelError, R.ModelErrorText, ChildNp, PathSched);
      Leaf = true;
    }

    std::vector<ThreadId> ChildEnabled;
    if (!Leaf) {
      ChildEnabled = VM.enabledThreads(Child);
      if (ChildEnabled.empty()) {
        if (!Child.allDone())
          recordBug(BugKind::Deadlock,
                    detail::describeDeadlock(VM, Child), ChildNp,
                    PathSched);
        Leaf = true;
      } else if (DepthBound != 0 && Depth >= DepthBound) {
        Leaf = true;
        Outcome.Truncated = true;
      } else if (UseStateCache && !NewState) {
        Leaf = true; // Revisited state: prune (explicit-state mode).
      }
    }

    if (Leaf) {
      bool Hit = endExecution(Depth, ChildNp, ChildBlocking);
      PathSched.pop_back();
      if (Hit || (Limits.StopAtFirstBug && FoundBug)) {
        Outcome.LimitHit = true;
        return Outcome;
      }
      if (UseSleepSets)
        F.Sleep.push_back(T);
      continue;
    }

    bool ProducerStillEnabled =
        std::find(ChildEnabled.begin(), ChildEnabled.end(), T) !=
        ChildEnabled.end();
    Frame ChildFrame{std::move(Child),  std::move(ChildEnabled), 0, T,
                     ProducerStillEnabled, ChildNp, ChildBlocking, true,
                     {}};
    if (UseSleepSets) {
      // A sleeping thread stays asleep in the child iff its next step is
      // independent of the executed one (different thread and different
      // shared variable); dependence wakes it up.
      for (const auto &[U, Var] : SleepVars)
        if (!(Var == R.Var))
          ChildFrame.Sleep.push_back(U);
      // For the remaining siblings, the executed thread sleeps: its
      // subtree is fully covered.
      Stack.back().Sleep.push_back(T);
    }
    Stack.push_back(std::move(ChildFrame));
  }
  return Outcome;
}

} // namespace

SearchResult DfsSearch::run(const Interp &Interp) {
  // Sleep sets with state caching would need sleep sets stored alongside
  // cached states to stay sound (Godefroid 1996, ch. 5); keep them apart.
  ICB_ASSERT(!(Opts.UseStateCache && Opts.UseSleepSets),
             "sleep sets cannot be combined with the state cache");
  DfsDriver Driver(Interp, Opts.Limits, singleShard(Opts.Metrics));
  DfsDriver::RoundOutcome Outcome = Driver.runRound(
      Opts.DepthBound, Opts.UseStateCache, Opts.UseSleepSets);
  // A depth-bounded round that truncated executions did not exhaust the
  // space; neither did a round stopped by limits.
  bool Completed = !Outcome.LimitHit && !Outcome.Truncated;
  return Driver.takeResult(Completed);
}

std::string DfsSearch::name() const {
  if (Opts.DepthBound != 0)
    return strFormat("db:%u", Opts.DepthBound);
  return "dfs";
}

SearchResult IterativeDeepeningSearch::run(const Interp &Interp) {
  DfsDriver Driver(Interp, Opts.Limits, singleShard(Opts.Metrics));
  unsigned Bound = Opts.InitialBound;
  bool Completed = false;
  while (true) {
    DfsDriver::RoundOutcome Outcome =
        Driver.runRound(Bound, /*UseStateCache=*/false);
    if (Outcome.LimitHit)
      break;
    if (!Outcome.Truncated) {
      // Nothing was cut off: the whole (finite) space fit within the
      // bound, so deeper rounds would repeat this one exactly.
      Completed = true;
      break;
    }
    ICB_ASSERT(Opts.Increment > 0, "idfs increment must be positive");
    Bound += Opts.Increment;
  }
  return Driver.takeResult(Completed);
}

std::string IterativeDeepeningSearch::name() const {
  return strFormat("idfs-%u", Opts.InitialBound);
}
