//===- session/Repro.cpp - Replayable bug-repro artifacts -----------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "session/Repro.h"
#include "rt/Explore.h"
#include "rt/ReplayExecutor.h"
#include "search/IcbCore.h"
#include "session/Json.h"
#include "session/Serial.h"
#include "support/Format.h"
#include <algorithm>
#include <cctype>

namespace icb::session {

//===----------------------------------------------------------------------===//
// File format
//===----------------------------------------------------------------------===//

static constexpr uint64_t ReproFormatVersion = 1;

std::string reproFileName(const ReproArtifact &A) {
  std::string Raw =
      A.Benchmark + "-" + A.Bug + "-" + search::bugKindName(A.Found.Kind);
  std::string Name;
  bool LastDash = true; // Suppress a leading dash too.
  for (char C : Raw) {
    if (std::isalnum(static_cast<unsigned char>(C))) {
      Name += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      LastDash = false;
    } else if (!LastDash) {
      Name += '-';
      LastDash = true;
    }
  }
  while (!Name.empty() && Name.back() == '-')
    Name.pop_back();
  if (Name.empty())
    Name = "bug";
  return Name + ".icbrepro";
}

bool saveRepro(const std::string &Path, const ReproArtifact &A,
               std::string *Error) {
  JsonValue Doc = JsonValue::object();
  Doc.set("icb_repro", JsonValue::number(ReproFormatVersion));
  Doc.set("benchmark", JsonValue::str(A.Benchmark));
  Doc.set("bug", JsonValue::str(A.Bug));
  Doc.set("form", JsonValue::str(A.Form));
  Doc.set("every_access", JsonValue::boolean(A.EveryAccess));
  Doc.set("detector", JsonValue::str(A.Detector));
  // Optional: omitted for default preemption runs, so those artifacts
  // stay byte-identical to pre-policy-seam ones.
  if (!A.Bound.empty())
    Doc.set("bound", JsonValue::str(A.Bound));
  Doc.set("found", bugToJson(A.Found));
  return atomicWriteFile(Path, jsonWrite(Doc) + "\n", Error);
}

bool loadRepro(const std::string &Path, ReproArtifact &Out,
               std::string *Error) {
  std::string Text;
  if (!readFile(Path, Text, Error))
    return false;
  JsonValue Doc;
  if (!jsonParse(Text, Doc, Error))
    return false;
  uint64_t Version = 0;
  if (!Doc.getU64("icb_repro", Version) || Version != ReproFormatVersion) {
    if (Error)
      *Error = "not an icb repro artifact (or unsupported version)";
    return false;
  }
  const JsonValue *Found = Doc.find("found");
  if (!Doc.getString("benchmark", Out.Benchmark) ||
      !Doc.getString("bug", Out.Bug) || !Doc.getString("form", Out.Form) ||
      !Doc.getBool("every_access", Out.EveryAccess) ||
      !Doc.getString("detector", Out.Detector) || !Found ||
      !bugFromJson(*Found, Out.Found)) {
    if (Error)
      *Error = "malformed repro artifact: " + Path;
    return false;
  }
  // Optional: absent in artifacts from default preemption runs.
  if (Doc.find("bound") && !Doc.getString("bound", Out.Bound)) {
    if (Error)
      *Error = "malformed repro artifact: " + Path;
    return false;
  }
  if (Out.Form != "rt" && Out.Form != "vm") {
    if (Error)
      *Error = "repro artifact names unknown form '" + Out.Form + "'";
    return false;
  }
  return true;
}

bool reproBoundCompatible(const ReproArtifact &A,
                          const std::string &RequestedName,
                          std::string *Error) {
  if (RequestedName.empty())
    return true; // No explicit request: replay under any recorded policy.
  std::string Recorded = A.Bound.substr(0, A.Bound.find(':'));
  if (Recorded.empty())
    Recorded = "preemption";
  if (Recorded == RequestedName)
    return true;
  if (Error)
    *Error = strFormat("repro artifact was recorded under the '%s' bound "
                       "policy but --bound requests '%s'",
                       Recorded.c_str(), RequestedName.c_str());
  return false;
}

rt::Scheduler::Options reproExecOptions(const ReproArtifact &A) {
  rt::Scheduler::Options Opts;
  Opts.Mode = A.EveryAccess ? rt::SchedPointMode::EveryAccess
                            : rt::SchedPointMode::SyncOnly;
  if (A.Detector == "goldilocks")
    Opts.Detector = rt::DetectorKind::Goldilocks;
  else if (A.Detector == "none")
    Opts.Detector = rt::DetectorKind::None;
  else
    Opts.Detector = rt::DetectorKind::VectorClock;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

static ReplayOutcome verdict(const ReproArtifact &A, bool BugFired,
                             search::Bug Observed, std::string Infeasible) {
  ReplayOutcome Out;
  if (!Infeasible.empty()) {
    Out.Detail = "schedule diverged: " + Infeasible;
    return Out;
  }
  Out.BugFired = BugFired;
  if (!BugFired) {
    Out.Detail = "replay completed without any bug";
    return Out;
  }
  Out.Observed = std::move(Observed);
  if (Out.Observed.Kind == A.Found.Kind &&
      Out.Observed.Message == A.Found.Message) {
    Out.Reproduced = true;
    Out.Detail = strFormat("reproduced: %s", Out.Observed.str().c_str());
  } else {
    Out.Detail =
        strFormat("different bug fired: expected {%s: %s}, got {%s: %s}",
                  search::bugKindName(A.Found.Kind), A.Found.Message.c_str(),
                  search::bugKindName(Out.Observed.Kind),
                  Out.Observed.Message.c_str());
  }
  return Out;
}

ReplayOutcome replayArtifactRt(const ReproArtifact &A,
                               const rt::TestCase &Test) {
  rt::ReplayPolicy Policy(A.Found.Sched);
  rt::Scheduler S(reproExecOptions(A));
  rt::ExecutionResult R = S.run(Test, Policy);
  if (Policy.Diverged)
    return verdict(A, false, {},
                   strFormat("step %llu: thread %u is not enabled",
                             (unsigned long long)R.Steps,
                             A.Found.Sched.entry(R.Steps).Tid));
  bool Fired = rt::isErrorStatus(R.Status);
  return verdict(A, Fired, Fired ? rt::bugFromResult(R) : search::Bug(), "");
}

ReplayOutcome replayArtifactVm(const ReproArtifact &A,
                               const vm::Program &Prog) {
  vm::Interp VM(Prog);
  vm::State S = VM.initialState();
  search::Bug Observed;
  vm::ThreadId Last = vm::InvalidThread;

  const std::vector<vm::ThreadId> &Sched = A.Found.Schedule;
  for (size_t I = 0; I < Sched.size(); ++I) {
    vm::ThreadId Tid = Sched[I];
    if (Tid >= Prog.Threads.size())
      return verdict(A, false, {},
                     strFormat("step %zu schedules unknown thread %u", I,
                               Tid));
    if (!VM.isEnabled(S, Tid))
      return verdict(A, false, {},
                     strFormat("step %zu: thread %u is not enabled", I, Tid));
    if (Last != vm::InvalidThread && Tid != Last && VM.isEnabled(S, Last))
      ++Observed.Preemptions;
    vm::StepResult R = VM.step(S, Tid);
    Observed.Schedule.push_back(Tid);
    Last = Tid;

    if (R.Status == vm::StepStatus::AssertFailed ||
        R.Status == vm::StepStatus::ModelError) {
      Observed.Kind = R.Status == vm::StepStatus::AssertFailed
                          ? search::BugKind::AssertFailure
                          : search::BugKind::ModelError;
      Observed.Message = R.Status == vm::StepStatus::AssertFailed
                             ? Prog.Messages[R.MsgId]
                             : R.ModelErrorText;
      Observed.Steps = Observed.Schedule.size();
      if (I + 1 != Sched.size())
        return verdict(A, false, {},
                       strFormat("bug fired early at step %zu of %zu: %s", I,
                                 Sched.size(), Observed.Message.c_str()));
      return verdict(A, true, std::move(Observed), "");
    }
  }

  // The schedule is exhausted without an error step: the only bug that can
  // legitimately end a schedule this way is a deadlock at its final state.
  Observed.Steps = Observed.Schedule.size();
  if (VM.enabledThreads(S).empty() && !S.allDone()) {
    Observed.Kind = search::BugKind::Deadlock;
    Observed.Message = search::detail::describeDeadlock(VM, S);
    return verdict(A, true, std::move(Observed), "");
  }
  return verdict(A, false, {}, "");
}

} // namespace icb::session
