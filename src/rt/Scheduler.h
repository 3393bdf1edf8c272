//===- rt/Scheduler.h - The controlled CHESS-style scheduler ----*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of the stateless checker: a cooperative scheduler that runs a
/// closed multithreaded test (a body function plus the threads it spawns)
/// with every interleaving decision delegated to a SchedulePolicy.
///
/// Protocol: each test thread runs on a fiber. When a thread reaches a
/// synchronization operation it *publishes* the operation (kind + object)
/// and switches to the scheduler. The scheduler computes the enabled set
/// from the published operations — without running anyone — asks the
/// policy to pick, and resumes the chosen fiber, which then performs its
/// operation and runs to its next scheduling point. Data-variable accesses
/// are not scheduling points in the default SyncOnly mode; instead every
/// execution is checked for data races (Section 3.1's sound reduction),
/// with EveryAccess mode available for the ablation experiment.
///
/// The scheduler also maintains, per execution: the annotated schedule
/// (preempting vs nonpreempting switches, Appendix A), one happens-before
/// tracker whose clocks give both the fingerprint (the stateless coverage
/// metric of Section 4.3) and the race check, and the managed-heap
/// registry for use-after-free detection.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_RT_SCHEDULER_H
#define ICB_RT_SCHEDULER_H

#include "obs/Metrics.h"
#include "race/DynamicPartition.h"
#include "race/Goldilocks.h"
#include "race/HbTracker.h"
#include "rt/ExecutionResult.h"
#include "rt/Fiber.h"
#include "rt/Ops.h"
#include "rt/SchedulePolicy.h"
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace icb::rt {

/// Where scheduling points are inserted.
enum class SchedPointMode : uint8_t {
  SyncOnly,    ///< Only at sync operations (plus promoted data variables);
               ///< each execution is race-checked. The sound default.
  EveryAccess, ///< Also before every data access (the unreduced search the
               ///< Section 3.1 ablation compares against).
};

/// Which race detector checks each execution.
enum class DetectorKind : uint8_t {
  VectorClock,
  Goldilocks,
  None, ///< Race checking off (only sensible in EveryAccess mode).
};

/// A closed test: the body runs as thread 0 ("main") and may spawn more
/// threads via rt::Thread.
struct TestCase {
  std::string Name;
  std::function<void()> Body;
};

/// Runs one TestCase execution under full scheduling control.
class Scheduler {
public:
  struct Options {
    SchedPointMode Mode = SchedPointMode::SyncOnly;
    DetectorKind Detector = DetectorKind::VectorClock;
    /// Stop runaway executions (models must terminate; Section 4.1).
    uint64_t MaxSteps = 1u << 20;
    /// Record human-readable per-step text (costly; for trace printing).
    bool CollectStepText = false;
    /// Data variables promoted to synchronization variables (owned by the
    /// caller; persists across executions). May be null.
    race::DynamicPartition *Partition = nullptr;
  };

  explicit Scheduler(Options Opts);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Runs one complete controlled execution of \p Test.
  ExecutionResult run(const TestCase &Test, SchedulePolicy &Policy);

  /// The scheduler controlling the currently running fiber. Non-null only
  /// while run() is live; primitives assert on it.
  static Scheduler *current();

  // --- Called by the runtime primitives (from inside fibers) --------------

  /// Publishes \p Op, parks the calling thread, and returns once the
  /// scheduler picks it again (its operation is then guaranteed enabled).
  void schedulingPoint(PendingOp Op);

  /// Records a data access that is not a scheduling point; may fail the
  /// execution with a DataRace.
  void dataAccess(uint64_t VarCode, bool IsWrite, const char *What);

  /// Routes a data access according to mode/promotion: scheduling point in
  /// EveryAccess mode or for promoted variables, plain record otherwise.
  void sharedAccess(uint64_t VarCode, bool IsWrite, const char *What);

  /// Registers a new test thread; returns its id. Must be called from a
  /// running test thread (usually via rt::Thread).
  ThreadId spawnThread(std::function<void()> Fn, std::string Name);

  /// Blocks the caller until \p Target terminates.
  void joinThread(ThreadId Target);

  /// Ends the execution with an error (assertion failure, UAF, ...).
  /// Does not return.
  [[noreturn]] void failExecution(RunStatus Status, std::string Message);

  /// Explicit yield: a scheduling point where switching away is free.
  void yieldThread();

  /// Id and name of the thread currently executing.
  ThreadId runningThread() const { return Running; }
  const std::string &threadName(ThreadId Tid) const;

  /// The operation thread \p Tid is parked at (published at its last
  /// scheduling point). Policies use it to judge independence between a
  /// chosen step and a parked thread's next step (bounded POR); only
  /// meaningful for live threads.
  const PendingOp &pendingOp(ThreadId Tid) const;

  /// Fresh per-execution identity for a variable created by the running
  /// thread. Stable across interleavings: (creator, per-creator sequence).
  uint64_t allocateVarCode();

  /// Managed-heap hooks (see rt/Managed.h).
  uint32_t registerManaged(void *Mem, std::function<void()> Destructor,
                           const char *TypeName);
  void destroyManaged(uint32_t Slot, const char *What);
  bool isManagedAlive(uint32_t Slot) const;
  /// Fails the execution if \p Slot is dead.
  void checkManagedAccess(uint32_t Slot, const char *What);

  /// True while tearing down an execution (sync-object destructors called
  /// from cleanup must not report bugs).
  bool inTeardown() const { return Teardown; }

  const Options &options() const { return Opts; }

  /// Observability: per-step fingerprint (hash) and race-detector work is
  /// timed into \p MS (see obs/PhaseTimer.h). Null (the default) disables
  /// the timers; ReplayExecutor points this at its worker's shard once per
  /// chain. The shard outlives the run() it is installed for.
  void setMetricShard(obs::MetricShard *MS) { MShard = MS; }

  /// The shard installed by the executor (null when metrics are detached).
  /// The io model counts its deterministic io_block/io_wake/io_spurious
  /// events here without owning any registry plumbing of its own.
  obs::MetricShard *metricShard() const { return MShard; }

private:
  struct ThreadRecord;

  bool isEnabled(const ThreadRecord &T) const;
  std::vector<ThreadId> enabledThreads() const;
  /// Runs the scheduling loop to completion; fills Result.
  void scheduleLoop(SchedulePolicy &Policy);
  /// Records the step about to run for thread \p Tid (schedule entry,
  /// happens-before tracker, race check).
  void recordStep(ThreadId Tid, bool Switch, bool Preempt);
  /// Feeds \p Tid's operation \p OpCode on sync variable \p VarCode to the
  /// tracker and, when selected, to Goldilocks.
  void syncStep(ThreadId Tid, uint64_t VarCode, uint16_t OpCode);
  /// Feeds a data access to the tracker and, when selected, to Goldilocks;
  /// returns the race the selected detector reports.
  std::optional<race::RaceReport> dataStep(ThreadId Tid, uint64_t VarCode,
                                           bool IsWrite);
  void teardown();

  Options Opts;
  MachineContext SchedulerContext;

  std::vector<std::unique_ptr<ThreadRecord>> Threads;
  ThreadId Running = InvalidThread;
  ThreadId LastScheduled = InvalidThread;
  bool LastYielded = false;

  /// The execution's happens-before relation: the fingerprint after every
  /// step, and the race check under DetectorKind::VectorClock.
  race::HbTracker Hb{MaxThreads};
  /// The lockset cross-check, under DetectorKind::Goldilocks.
  std::optional<race::GoldilocksDetector> Goldilocks;

  struct ManagedSlot {
    void *Mem = nullptr;
    std::function<void()> Destructor;
    const char *TypeName = "";
    bool Alive = false;
  };
  std::vector<ManagedSlot> Managed;

  ExecutionResult Result;
  bool ExecutionOver = false;
  bool Teardown = false;
  obs::MetricShard *MShard = nullptr;

  /// Upper bound on threads per execution (fingerprint width).
  static constexpr unsigned MaxThreads = 32;
};

/// Asserts a condition inside test code; failure ends the execution as an
/// AssertFailed bug with \p Message.
void testAssert(bool Condition, const char *Message);

} // namespace icb::rt

#endif // ICB_RT_SCHEDULER_H
