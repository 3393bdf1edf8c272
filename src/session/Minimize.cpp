//===- session/Minimize.cpp - Delta-debugging schedule shrinker -----------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "session/Minimize.h"
#include "rt/Explore.h"
#include "rt/ReplayExecutor.h"
#include "search/IcbCore.h"
#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace icb::session {

namespace {

/// One departure from the canonical nonpreemptive default: at scheduling
/// point Index, run Tid instead (the runtime form records them while
/// replaying the artifact; the VM form uses the same type).
using Directive = rt::ReplayPolicy::Departure;

template <typename Vec, typename T>
bool contains(const Vec &V, const T &X) {
  return std::find(V.begin(), V.end(), X) != V.end();
}

/// Tries a candidate directive set; true when the target bug still fires
/// (filling \p Out with the observed exposure).
using Tester =
    std::function<bool(const std::vector<Directive> &, search::Bug &)>;

/// Classic ddmin to 1-minimality: repeatedly drop complement chunks while
/// the bug survives, refining granularity down to single directives.
/// \p Dirs must already reproduce with \p Best as its exposure.
std::vector<Directive> ddmin(std::vector<Directive> Dirs, const Tester &Test,
                             unsigned &Replays, search::Bug &Best) {
  // Cheap fast path: many bugs need only a fraction of the directives, and
  // some need none (a bound-0 exposure recorded with extra noise).
  if (!Dirs.empty()) {
    search::Bug B;
    ++Replays;
    if (Test({}, B)) {
      Best = std::move(B);
      return {};
    }
  }

  size_t Chunks = 2;
  while (Dirs.size() >= 2) {
    bool Reduced = false;
    size_t N = std::min(Chunks, Dirs.size());
    for (size_t C = 0; C < N && !Reduced; ++C) {
      size_t Lo = Dirs.size() * C / N;
      size_t Hi = Dirs.size() * (C + 1) / N;
      std::vector<Directive> Cand;
      Cand.reserve(Dirs.size() - (Hi - Lo));
      for (size_t I = 0; I < Dirs.size(); ++I)
        if (I < Lo || I >= Hi)
          Cand.push_back(Dirs[I]);
      search::Bug B;
      ++Replays;
      if (Test(Cand, B)) {
        Dirs = std::move(Cand);
        Best = std::move(B);
        Chunks = std::max<size_t>(N - 1, 2);
        Reduced = true;
      }
    }
    if (!Reduced) {
      if (N >= Dirs.size())
        break; // Tested every single-directive removal: 1-minimal.
      Chunks = std::min(Dirs.size(), Chunks * 2);
    }
  }

  if (Dirs.size() == 1) {
    search::Bug B;
    ++Replays;
    if (Test({}, B)) {
      Best = std::move(B);
      Dirs.clear();
    }
  }
  return Dirs;
}

MinimizeResult finishResult(const ReproArtifact &A, unsigned Replays,
                            size_t DirsBefore, size_t DirsAfter,
                            search::Bug Minimized) {
  MinimizeResult R;
  R.Reproduced = true;
  R.Replays = Replays;
  R.DirectivesBefore = static_cast<unsigned>(DirsBefore);
  R.DirectivesAfter = static_cast<unsigned>(DirsAfter);
  R.PreemptionsBefore = A.Found.Preemptions;
  R.PreemptionsAfter = Minimized.Preemptions;
  R.Improved = DirsAfter < DirsBefore ||
               Minimized.Preemptions < A.Found.Preemptions ||
               Minimized.Steps < A.Found.Steps;
  R.Minimized = std::move(Minimized);
  return R;
}

//===----------------------------------------------------------------------===//
// Runtime form
//===----------------------------------------------------------------------===//

/// Follows the directive set, nonpreemptive default everywhere else. A
/// directive whose thread is not enabled aborts the candidate (schedules
/// regenerated around a removed directive may drift; such candidates
/// simply fail).
class DirectivePolicy : public rt::SchedulePolicy {
public:
  explicit DirectivePolicy(const std::vector<Directive> &Dirs) : Dirs(Dirs) {}

  rt::ThreadId pick(const rt::SchedPoint &P) override {
    if (Next < Dirs.size() && Dirs[Next].Index == P.Index) {
      rt::ThreadId Tid = Dirs[Next].Tid;
      ++Next;
      if (!contains(P.Enabled, Tid))
        return AbortExecution;
      return Tid;
    }
    return P.LastEnabled ? P.Last : P.Enabled.front();
  }

private:
  const std::vector<Directive> &Dirs;
  size_t Next = 0;
};

} // namespace

MinimizeResult minimizeRt(const ReproArtifact &A, const rt::TestCase &Test) {
  MinimizeResult Failed;
  rt::Scheduler Sched(reproExecOptions(A));
  unsigned Replays = 0;

  rt::ReplayPolicy Extract(A.Found.Sched);
  rt::ExecutionResult R0 = Sched.run(Test, Extract);
  ++Replays;
  Failed.Replays = Replays;
  if (Extract.Diverged || !rt::isErrorStatus(R0.Status))
    return Failed;
  search::Bug Baseline = rt::bugFromResult(R0);
  if (Baseline.Kind != A.Found.Kind || Baseline.Message != A.Found.Message)
    return Failed;

  auto Try = [&](const std::vector<Directive> &Dirs,
                 search::Bug &Out) -> bool {
    DirectivePolicy Policy(Dirs);
    rt::ExecutionResult R = Sched.run(Test, Policy);
    if (!rt::isErrorStatus(R.Status))
      return false;
    search::Bug B = rt::bugFromResult(R);
    if (B.Kind != A.Found.Kind || B.Message != A.Found.Message)
      return false;
    Out = std::move(B);
    return true;
  };

  size_t Before = Extract.Departures.size();
  search::Bug Best = std::move(Baseline);
  std::vector<Directive> Min =
      ddmin(std::move(Extract.Departures), Try, Replays, Best);
  return finishResult(A, Replays, Before, Min.size(), std::move(Best));
}

//===----------------------------------------------------------------------===//
// Model-VM form
//===----------------------------------------------------------------------===//

namespace {

/// Runs the VM under a directive set; true when some bug fires, with the
/// exposure (kind, message, schedule, preemption count) in \p Out.
bool runVmDirected(const vm::Interp &VM, const std::vector<Directive> &Dirs,
                   uint64_t MaxSteps, search::Bug &Out) {
  vm::State S = VM.initialState();
  vm::ThreadId Last = vm::InvalidThread;
  size_t Next = 0;
  Out = search::Bug();

  for (uint64_t Index = 0;; ++Index) {
    std::vector<vm::ThreadId> Enabled = VM.enabledThreads(S);
    if (Enabled.empty()) {
      if (S.allDone())
        return false;
      Out.Kind = search::BugKind::Deadlock;
      Out.Message = search::detail::describeDeadlock(VM, S);
      Out.Steps = Out.Schedule.size();
      return true;
    }
    if (Index >= MaxSteps)
      return false; // Runaway candidate (livelocked without the directive).

    vm::ThreadId Tid;
    if (Next < Dirs.size() && Dirs[Next].Index == Index) {
      Tid = Dirs[Next].Tid;
      ++Next;
      if (!contains(Enabled, Tid))
        return false; // Infeasible directive.
    } else {
      Tid = contains(Enabled, Last) ? Last : Enabled[0];
    }
    if (Last != vm::InvalidThread && Tid != Last && contains(Enabled, Last))
      ++Out.Preemptions;

    vm::StepResult R = VM.step(S, Tid);
    Out.Schedule.push_back(Tid);
    Last = Tid;

    if (R.Status == vm::StepStatus::AssertFailed ||
        R.Status == vm::StepStatus::ModelError) {
      Out.Kind = R.Status == vm::StepStatus::AssertFailed
                     ? search::BugKind::AssertFailure
                     : search::BugKind::ModelError;
      Out.Message = R.Status == vm::StepStatus::AssertFailed
                        ? VM.program().Messages[R.MsgId]
                        : R.ModelErrorText;
      Out.Steps = Out.Schedule.size();
      return true;
    }
  }
}

/// Decomposes a recorded VM schedule into directives; false when the
/// schedule is not replayable (corrupt artifact).
bool extractVmDirectives(const vm::Interp &VM,
                         const std::vector<vm::ThreadId> &Sched,
                         std::vector<Directive> &Out) {
  vm::State S = VM.initialState();
  vm::ThreadId Last = vm::InvalidThread;
  for (size_t I = 0; I < Sched.size(); ++I) {
    std::vector<vm::ThreadId> Enabled = VM.enabledThreads(S);
    vm::ThreadId Tid = Sched[I];
    if (!contains(Enabled, Tid))
      return false;
    vm::ThreadId Def = contains(Enabled, Last) ? Last : Enabled[0];
    if (Tid != Def)
      Out.push_back({I, Tid});
    VM.step(S, Tid);
    Last = Tid;
  }
  return true;
}

} // namespace

MinimizeResult minimizeVm(const ReproArtifact &A, const vm::Program &Prog) {
  MinimizeResult Failed;
  vm::Interp VM(Prog);
  unsigned Replays = 0;

  std::vector<Directive> Dirs;
  if (!extractVmDirectives(VM, A.Found.Schedule, Dirs))
    return Failed;

  // Candidate executions may legitimately run past the recorded length
  // once a directive is dropped; cap generously to catch true runaways.
  uint64_t MaxSteps =
      std::max<uint64_t>(1u << 16, 16 * (A.Found.Steps + 1));

  auto Try = [&](const std::vector<Directive> &Cand,
                 search::Bug &Out) -> bool {
    search::Bug B;
    if (!runVmDirected(VM, Cand, MaxSteps, B))
      return false;
    if (B.Kind != A.Found.Kind || B.Message != A.Found.Message)
      return false;
    Out = std::move(B);
    return true;
  };

  search::Bug Baseline;
  ++Replays;
  Failed.Replays = Replays;
  if (!Try(Dirs, Baseline))
    return Failed;

  size_t Before = Dirs.size();
  search::Bug Best = std::move(Baseline);
  std::vector<Directive> Min = ddmin(std::move(Dirs), Try, Replays, Best);
  return finishResult(A, Replays, Before, Min.size(), std::move(Best));
}

} // namespace icb::session
