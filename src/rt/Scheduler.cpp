//===- rt/Scheduler.cpp - The controlled CHESS-style scheduler ------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Scheduler.h"
#include "obs/PhaseTimer.h"
#include "rt/SyncObject.h"
#include "support/Debug.h"
#include "support/Format.h"
#include <algorithm>

using namespace icb;
using namespace icb::rt;

SchedulePolicy::~SchedulePolicy() = default;

ThreadId NonPreemptivePolicy::pick(const SchedPoint &Point) {
  if (Point.Last != InvalidThread && Point.LastEnabled)
    return Point.Last;
  return Point.Enabled.front();
}

const char *icb::rt::opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Start:
    return "start";
  case OpKind::MutexLock:
    return "lock";
  case OpKind::MutexUnlock:
    return "unlock";
  case OpKind::EventWait:
    return "wait";
  case OpKind::EventSet:
    return "set";
  case OpKind::EventReset:
    return "reset";
  case OpKind::SemAcquire:
    return "acquire";
  case OpKind::SemRelease:
    return "release";
  case OpKind::AtomicAccess:
    return "atomic";
  case OpKind::CondWait:
    return "condwait";
  case OpKind::CondSignal:
    return "condsignal";
  case OpKind::RwReadLock:
    return "rdlock";
  case OpKind::RwWriteLock:
    return "wrlock";
  case OpKind::RwUnlock:
    return "rwunlock";
  case OpKind::DataAccess:
    return "access";
  case OpKind::Join:
    return "join";
  case OpKind::Yield:
    return "yield";
  case OpKind::MutexTimedLock:
    return "timedlock";
  case OpKind::SemTimedAcquire:
    return "timedacquire";
  case OpKind::IoWait:
    return "iowait";
  case OpKind::IoOp:
    return "io";
  }
  ICB_UNREACHABLE("unknown op kind");
}

const char *icb::rt::runStatusName(RunStatus Status) {
  switch (Status) {
  case RunStatus::Terminated:
    return "terminated";
  case RunStatus::AssertFailed:
    return "assertion failure";
  case RunStatus::Deadlock:
    return "deadlock";
  case RunStatus::DataRace:
    return "data race";
  case RunStatus::UseAfterFree:
    return "use-after-free";
  case RunStatus::Aborted:
    return "aborted";
  case RunStatus::Diverged:
    return "replay divergence";
  }
  ICB_UNREACHABLE("unknown run status");
}

namespace {
/// The scheduler driving the calling thread's execution. Thread-local so
/// that one Scheduler per worker thread can replay tests concurrently —
/// the test-visible API (rt::thread, rt::Mutex, ...) routes through
/// Scheduler::current().
thread_local Scheduler *CurrentScheduler = nullptr;

/// Variable code of the implicit per-thread termination event (Appendix
/// A's e_t); joins and thread start/exit synchronize on it.
uint64_t threadEndCode(ThreadId Tid) { return (1ULL << 62) | Tid; }
} // namespace

struct Scheduler::ThreadRecord {
  ThreadId Id = InvalidThread;
  std::string Name;
  std::unique_ptr<Fiber> Fib;
  PendingOp Op;
  bool Done = false;
  uint64_t NextVarSeq = 0;
};

Scheduler::Scheduler(Options Opts) : Opts(Opts) {}

Scheduler::~Scheduler() = default;

Scheduler *Scheduler::current() { return CurrentScheduler; }

const std::string &Scheduler::threadName(ThreadId Tid) const {
  ICB_ASSERT(Tid < Threads.size(), "thread id out of range");
  return Threads[Tid]->Name;
}

const PendingOp &Scheduler::pendingOp(ThreadId Tid) const {
  ICB_ASSERT(Tid < Threads.size(), "thread id out of range");
  return Threads[Tid]->Op;
}

uint64_t Scheduler::allocateVarCode() {
  ICB_ASSERT(Running != InvalidThread,
             "variable created outside a controlled execution");
  ThreadRecord &Me = *Threads[Running];
  return ((static_cast<uint64_t>(Running) + 1) << 32) | Me.NextVarSeq++;
}

bool Scheduler::isEnabled(const ThreadRecord &T) const {
  if (T.Done)
    return false;
  switch (T.Op.Kind) {
  case OpKind::Join:
    return Threads[T.Op.JoinTarget]->Done;
  case OpKind::MutexLock:
  case OpKind::EventWait:
  case OpKind::SemAcquire:
  case OpKind::CondWait:
  case OpKind::RwReadLock:
  case OpKind::RwWriteLock:
  case OpKind::IoWait:
    ICB_ASSERT(T.Op.Object, "blocking op with no object");
    return T.Op.Object->canProceed(T.Op, T.Id);
  default:
    return true;
  }
}

std::vector<ThreadId> Scheduler::enabledThreads() const {
  std::vector<ThreadId> Enabled;
  for (const auto &T : Threads)
    if (isEnabled(*T))
      Enabled.push_back(T->Id);
  return Enabled;
}

void Scheduler::syncStep(ThreadId Tid, uint64_t VarCode, uint16_t OpCode) {
  Hb.syncStep(Tid, VarCode, OpCode);
  if (Goldilocks) {
    obs::ScopedPhase RaceTimer(MShard, obs::Phase::RaceDetect);
    Goldilocks->onSyncOp(Tid, VarCode);
  }
}

std::optional<race::RaceReport>
Scheduler::dataStep(ThreadId Tid, uint64_t VarCode, bool IsWrite) {
  std::optional<race::RaceReport> Race = Hb.dataStep(Tid, VarCode, IsWrite);
  if (!Goldilocks)
    return Race;
  obs::ScopedPhase RaceTimer(MShard, obs::Phase::RaceDetect);
  return Goldilocks->onDataAccess(Tid, VarCode, IsWrite);
}

void Scheduler::recordStep(ThreadId Tid, bool Switch, bool Preempt) {
  ThreadRecord &T = *Threads[Tid];
  Result.Sched.append(Tid, Preempt, Switch);
  ++Result.Steps;
  Result.Preemptions += Preempt ? 1 : 0;
  Result.ContextSwitches += Switch ? 1 : 0;
  Result.BlockingOps += isBlockingOp(T.Op.Kind) ? 1 : 0;
  if (Opts.CollectStepText) {
    Result.StepText.push_back(T.Op.Detail.empty() ? opKindName(T.Op.Kind)
                                                  : T.Op.Detail);
    Result.StepThreadNames.push_back(T.Name);
  }

  switch (T.Op.Kind) {
  case OpKind::Start:
    // A child's first step synchronizes on its termination event, pairing
    // with the creation record the parent emitted (Appendix A: the first
    // operation of t accesses e_t). A creation point itself (VarCode 0)
    // records nothing.
    if (T.Op.VarCode != 0)
      syncStep(Tid, T.Op.VarCode, static_cast<uint16_t>(T.Op.Kind));
    break;
  case OpKind::Yield:
    break; // No shared object touched.
  case OpKind::DataAccess:
    // A data access promoted to a scheduling point by EveryAccess mode
    // still has data-variable happens-before semantics.
    if (auto Race = dataStep(Tid, T.Op.VarCode, T.Op.IsWrite)) {
      Result.Status = RunStatus::DataRace;
      Result.Message = Race->str();
      ExecutionOver = true;
    }
    break;
  default:
    // Every other kind operates on a synchronization variable.
    syncStep(Tid, T.Op.VarCode, static_cast<uint16_t>(T.Op.Kind));
    break;
  }
}

void Scheduler::scheduleLoop(SchedulePolicy &Policy) {
  while (!ExecutionOver) {
    // A thread parked on a destroyed sync object is a use-after-free in
    // the program under test (its wait references freed memory).
    for (const auto &T : Threads) {
      if (!T->Done && T->Op.Object && !T->Op.Object->alive()) {
        Result.Status = RunStatus::UseAfterFree;
        Result.Message = strFormat(
            "use-after-free: %s waits on a destroyed sync object (%s)",
            T->Name.c_str(), T->Op.Detail.c_str());
        return;
      }
    }
    std::vector<ThreadId> Enabled = enabledThreads();
    if (Enabled.empty()) {
      bool AllDone = true;
      for (const auto &T : Threads)
        AllDone &= T->Done;
      if (AllDone) {
        Result.Status = RunStatus::Terminated;
      } else {
        Result.Status = RunStatus::Deadlock;
        std::string Msg = "deadlock:";
        for (const auto &T : Threads)
          if (!T->Done)
            Msg += strFormat(" [%s blocked at %s]", T->Name.c_str(),
                             T->Op.Detail.empty() ? opKindName(T->Op.Kind)
                                                  : T->Op.Detail.c_str());
        Result.Message = Msg;
      }
      return;
    }
    if (Result.Steps >= Opts.MaxSteps) {
      Result.Status = RunStatus::Aborted;
      Result.Message = "step limit reached (nonterminating test?)";
      return;
    }

    bool LastStillEnabled =
        LastScheduled != InvalidThread &&
        std::find(Enabled.begin(), Enabled.end(), LastScheduled) !=
            Enabled.end();
    bool LastIsYielded =
        LastStillEnabled &&
        Threads[LastScheduled]->Op.Kind == OpKind::Yield;

    SchedPoint Point{Enabled, LastScheduled, LastStillEnabled, LastIsYielded,
                     Result.Steps, this};
    ThreadId Tid = Policy.pick(Point);
    if (Tid == SchedulePolicy::AbortExecution) {
      Result.Status = RunStatus::Aborted;
      return;
    }
    ICB_ASSERT(std::find(Enabled.begin(), Enabled.end(), Tid) != Enabled.end(),
               "policy picked a disabled thread");

    bool Switch = LastScheduled != InvalidThread && Tid != LastScheduled;
    bool Preempt = Switch && LastStillEnabled && !LastIsYielded;
    recordStep(Tid, Switch, Preempt);
    if (ExecutionOver)
      return; // recordStep detected a race.

    LastScheduled = Tid;
    Running = Tid;
    ThreadRecord &T = *Threads[Tid];
    T.Fib->resume(SchedulerContext);
    Running = InvalidThread;

    if (T.Fib->finished() && !T.Done) {
      T.Done = true;
      // The thread's final action signals its termination event so that
      // joiners happen-after everything the thread did.
      syncStep(Tid, threadEndCode(Tid), /*OpCode=*/0xff);
    }
  }
}

ExecutionResult Scheduler::run(const TestCase &Test, SchedulePolicy &Policy) {
  ICB_ASSERT(CurrentScheduler == nullptr,
             "nested controlled executions are not supported");
  CurrentScheduler = this;

  Threads.clear();
  Managed.clear();
  Result = ExecutionResult();
  ExecutionOver = false;
  Teardown = false;
  Running = InvalidThread;
  LastScheduled = InvalidThread;

  Hb.startExecution(Opts.Detector == DetectorKind::VectorClock, MShard);
  Goldilocks.reset();
  if (Opts.Detector == DetectorKind::Goldilocks)
    Goldilocks.emplace(MaxThreads);

  auto Main = std::make_unique<ThreadRecord>();
  Main->Id = 0;
  Main->Name = "main";
  Main->Op.Kind = OpKind::Start;
  Main->Op.VarCode = threadEndCode(0);
  Main->Op.Detail = "start main";
  std::function<void()> Body = Test.Body;
  Main->Fib = std::make_unique<Fiber>([Body] { Body(); });
  Threads.push_back(std::move(Main));

  scheduleLoop(Policy);

  Result.Fingerprint = Hb.digest();
  Result.StepFingerprints = Hb.takeStepDigests();
  Result.ThreadsUsed = static_cast<unsigned>(Threads.size());
  teardown();
  CurrentScheduler = nullptr;
  return std::move(Result);
}

void Scheduler::teardown() {
  Teardown = true;
  // Destroy still-alive managed objects in reverse creation order, then
  // release their memory.
  for (size_t I = Managed.size(); I != 0; --I) {
    ManagedSlot &Slot = Managed[I - 1];
    if (Slot.Alive && Slot.Destructor)
      Slot.Destructor();
    Slot.Alive = false;
  }
  for (ManagedSlot &Slot : Managed) {
    ::operator delete(Slot.Mem);
    Slot.Mem = nullptr;
  }
  Managed.clear();
  // Fibers that never finished are abandoned: their stacks are freed
  // without unwinding (documented limitation for failing executions).
  Threads.clear();
  Teardown = false;
}

void Scheduler::schedulingPoint(PendingOp Op) {
  ICB_ASSERT(Running != InvalidThread,
             "scheduling point outside a controlled execution");
  ThreadRecord &Me = *Threads[Running];
  Me.Op = std::move(Op);
  Me.Fib->yieldTo(SchedulerContext);
  // Resumed: the published operation is now enabled and the caller
  // performs it atomically (nobody else runs until the next point).
}

void Scheduler::dataAccess(uint64_t VarCode, bool IsWrite, const char *What) {
  ICB_ASSERT(Running != InvalidThread,
             "data access outside a controlled execution");
  if (auto Race = dataStep(Running, VarCode, IsWrite)) {
    std::string Msg = Race->str();
    if (What && What[0])
      Msg += strFormat(" (%s)", What);
    failExecution(RunStatus::DataRace, std::move(Msg));
  }
}

void Scheduler::sharedAccess(uint64_t VarCode, bool IsWrite,
                             const char *What) {
  bool Promoted = Opts.Partition && Opts.Partition->isSync(VarCode);
  if (Promoted) {
    // A promoted variable is a synchronization variable now: a scheduling
    // point with sync happens-before semantics and no race check.
    PendingOp Op;
    Op.Kind = OpKind::AtomicAccess;
    Op.VarCode = VarCode;
    Op.Detail = strFormat("%s %s (promoted)", IsWrite ? "write" : "read",
                          What);
    schedulingPoint(std::move(Op));
    return;
  }
  if (Opts.Mode == SchedPointMode::EveryAccess) {
    PendingOp Op;
    Op.Kind = OpKind::DataAccess;
    Op.VarCode = VarCode;
    Op.IsWrite = IsWrite;
    Op.Detail = strFormat("%s %s", IsWrite ? "write" : "read", What);
    schedulingPoint(std::move(Op));
    return;
  }
  dataAccess(VarCode, IsWrite, What);
}

ThreadId Scheduler::spawnThread(std::function<void()> Fn, std::string Name) {
  ICB_ASSERT(Running != InvalidThread,
             "thread created outside a controlled execution");
  ICB_ASSERT(Threads.size() < MaxThreads, "too many test threads");

  // Creation is itself a scheduling point (CHESS intercepts CreateThread);
  // the creation record (the parent's access to the child's termination
  // event) is emitted after the point, once the child id is final.
  PendingOp Op;
  Op.Kind = OpKind::Start;
  Op.VarCode = 0; // Marks "creation point": recordStep skips var records.
  Op.Detail = strFormat("create thread '%s'", Name.c_str());
  schedulingPoint(std::move(Op));

  ThreadId Child = static_cast<ThreadId>(Threads.size());
  auto Record = std::make_unique<ThreadRecord>();
  Record->Id = Child;
  Record->Name = std::move(Name);
  Record->Op.Kind = OpKind::Start;
  Record->Op.VarCode = threadEndCode(Child);
  Record->Op.Detail = strFormat("start %s", Record->Name.c_str());
  Record->Fib = std::make_unique<Fiber>(std::move(Fn));
  Threads.push_back(std::move(Record));

  syncStep(Running, threadEndCode(Child), /*OpCode=*/0xfe);
  return Child;
}

void Scheduler::joinThread(ThreadId Target) {
  ICB_ASSERT(Running != InvalidThread,
             "join outside a controlled execution");
  ICB_ASSERT(Target < Threads.size(), "join of unknown thread");
  PendingOp Op;
  Op.Kind = OpKind::Join;
  Op.JoinTarget = Target;
  Op.VarCode = threadEndCode(Target);
  Op.Detail = strFormat("join %s", Threads[Target]->Name.c_str());
  schedulingPoint(std::move(Op));
}

void Scheduler::yieldThread() {
  PendingOp Op;
  Op.Kind = OpKind::Yield;
  Op.Detail = "yield";
  schedulingPoint(std::move(Op));
}

void Scheduler::failExecution(RunStatus Status, std::string Message) {
  ICB_ASSERT(Running != InvalidThread,
             "failExecution outside a controlled execution");
  Result.Status = Status;
  Result.Message = std::move(Message);
  ExecutionOver = true;
  ThreadRecord &Me = *Threads[Running];
  Me.Fib->yieldTo(SchedulerContext);
  ICB_UNREACHABLE("failed execution resumed a dead thread");
}

uint32_t Scheduler::registerManaged(void *Mem,
                                    std::function<void()> Destructor,
                                    const char *TypeName) {
  ManagedSlot Slot;
  Slot.Mem = Mem;
  Slot.Destructor = std::move(Destructor);
  Slot.TypeName = TypeName;
  Slot.Alive = true;
  Managed.push_back(std::move(Slot));
  return static_cast<uint32_t>(Managed.size() - 1);
}

void Scheduler::destroyManaged(uint32_t Slot, const char *What) {
  ICB_ASSERT(Slot < Managed.size(), "bad managed slot");
  ManagedSlot &S = Managed[Slot];
  if (!S.Alive)
    failExecution(RunStatus::UseAfterFree,
                  strFormat("double free of %s", What));
  S.Alive = false;
  if (S.Destructor)
    S.Destructor();
  // Memory stays tombstoned until teardown so later UAF checks are safe.
}

bool Scheduler::isManagedAlive(uint32_t Slot) const {
  ICB_ASSERT(Slot < Managed.size(), "bad managed slot");
  return Managed[Slot].Alive;
}

void Scheduler::checkManagedAccess(uint32_t Slot, const char *What) {
  ICB_ASSERT(Slot < Managed.size(), "bad managed slot");
  if (!Managed[Slot].Alive)
    failExecution(RunStatus::UseAfterFree,
                  strFormat("use-after-free: access to %s", What));
}

void icb::rt::testAssert(bool Condition, const char *Message) {
  if (Condition)
    return;
  Scheduler *S = Scheduler::current();
  ICB_ASSERT(S, "testAssert outside a controlled execution");
  S->failExecution(RunStatus::AssertFailed, Message);
}
