//===- session/Checkpoint.h - Durable checkpoint / resume -------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable snapshots of an ICB run. A checkpoint file carries
///
///   * CheckpointMeta — enough of the invocation (benchmark, bug, executor
///     form, strategy, jobs, detector configuration, limits) to refuse a
///     `--resume` under a different configuration, and to let unset flags
///     adopt the recorded values;
///   * the engine's safe-point EngineSnapshot (frontier queues, stats,
///     digest sets, sampler cursor, bugs so far);
///   * accumulated wall-clock across all segments of the run.
///
/// Writes are atomic (write-tmp, fsync, rename), so a SIGKILL at any
/// instant leaves either the previous checkpoint or the new one — never a
/// torn file. CheckpointSink is the search::EngineObserver implementation
/// the driver talks to: it fires every N executions, flushes a final
/// snapshot on SIGINT/SIGTERM via SignalGuard's cooperative-stop flag, and
/// owns all file I/O so the engine never blocks on persistence decisions.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SESSION_CHECKPOINT_H
#define ICB_SESSION_CHECKPOINT_H

#include "search/EngineObserver.h"
#include "search/SearchTypes.h"
#include "session/Json.h"
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace icb::session {

/// The invocation identity a checkpoint was taken under. Resuming under a
/// conflicting identity is a hard CLI error (the search spaces would
/// differ and "resume" would be a lie).
struct CheckpointMeta {
  std::string Benchmark;
  std::string Bug;      ///< Bug variant label, or "default".
  std::string Form;     ///< "rt" (stateless) or "vm" (model VM).
  std::string Strategy; ///< Search strategy name (must be an ICB one).
  unsigned Jobs = 1;
  unsigned Shards = 0; ///< 0 = driver default.
  uint64_t Seed = 0;
  bool EveryAccess = false;  ///< rt: schedule points at every access.
  std::string Detector;      ///< rt: race detector name.
  /// Bounded POR (sleep sets). Changes which items exist in the frontier
  /// queues, so resuming with the other setting is a conflict.
  bool Por = false;
  /// Bound policy family name ("preemption", "delay", "thread") and the
  /// thread policy's variable cap (0 = off). The policy decides how items
  /// are charged across bounds, so resuming under a different policy is a
  /// conflict. Checkpoint format v4; v1-v3 files imply "preemption".
  std::string Bound = "preemption";
  unsigned VarBound = 0;
  search::SearchLimits Limits;
};

/// Everything in one checkpoint file.
struct CheckpointData {
  CheckpointMeta Meta;
  search::EngineSnapshot Snap;
  uint64_t WallMillis = 0; ///< Accumulated across all resumed segments.
};

/// Meta (de)serialization, shared with the distributed hello handshake:
/// a coordinator sends its CheckpointMeta to every joiner so unset joiner
/// flags adopt the coordinator's configuration (the `--resume` rules).
JsonValue metaToJson(const CheckpointMeta &Meta);
bool metaFromJson(const JsonValue &V, CheckpointMeta &Out);

/// The checkpoint file format version (distributed hellos are versioned
/// against it: a coordinator refuses joiners speaking another format).
uint64_t checkpointFormatVersion();

/// The single checkpoint file inside a `--checkpoint-dir`.
std::string checkpointPath(const std::string &Dir);

bool saveCheckpoint(const std::string &Path, const CheckpointData &Data,
                    std::string *Error);
bool loadCheckpoint(const std::string &Path, CheckpointData &Out,
                    std::string *Error);

/// Scoped SIGINT/SIGTERM trap. While alive, the first signal only raises a
/// flag — the driver polls it via EngineObserver::stopRequested(), finishes
/// in-flight work, and flushes a resumable checkpoint before exiting; a
/// second signal falls through to the restored default disposition so a
/// wedged run can still be killed.
class SignalGuard {
public:
  SignalGuard();
  ~SignalGuard();

  SignalGuard(const SignalGuard &) = delete;
  SignalGuard &operator=(const SignalGuard &) = delete;

  static bool triggered();

private:
  void (*PrevInt)(int);
  void (*PrevTerm)(int);
};

/// The driver's persistence observer: periodic + stop-triggered + final
/// checkpoints into one file, wall-clock accounting across segments.
class CheckpointSink : public search::EngineObserver {
public:
  /// \p Every is the checkpoint period in executions (0 = only on stop and
  /// completion). \p StartExecutions / \p PriorWallMillis carry the
  /// restored totals when this segment resumes an earlier one.
  CheckpointSink(std::string Dir, uint64_t Every, CheckpointMeta Meta,
                 uint64_t StartExecutions = 0, uint64_t PriorWallMillis = 0);

  bool checkpointDue(uint64_t Executions) override;
  bool stopRequested() override { return SignalGuard::triggered(); }
  void onCheckpoint(const search::EngineSnapshot &Snap) override;

  /// Wall-clock of the whole run so far: prior segments + this one.
  uint64_t wallMillis() const;

  /// False once any checkpoint write failed; the first error sticks.
  bool ok() const { return ErrorMsg.empty(); }
  const std::string &error() const { return ErrorMsg; }

private:
  std::string Dir;
  uint64_t Every;
  CheckpointMeta Meta;
  uint64_t PriorWallMillis;
  std::chrono::steady_clock::time_point SegmentStart;
  std::atomic<uint64_t> LastSnapExecutions;
  std::string ErrorMsg;
};

} // namespace icb::session

#endif // ICB_SESSION_CHECKPOINT_H
