//===- race/HbTracker.h - Execution happens-before tracker ------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper uses one happens-before relation for two jobs: Section 3.1
/// checks that each explored execution's data accesses are ordered by
/// synchronization, and Section 4.3 uses "the happens-before relation of
/// an execution ... as a representation for the state at the end of the
/// execution". HbTracker keeps that relation once, as one vector clock per
/// thread and per synchronization variable, and serves both jobs from it:
///
///   * The digest: a canonical 64-bit hash of the partial order. Each step
///     is identified by (thread, operation, variable, clock), and the
///     digest is an order-insensitive combination of those event hashes,
///     so executions that merely reorder independent steps (equivalent in
///     the sense of Section 3.1) get the same digest, and counting distinct
///     digests counts the stateless checker's "states" (Figures 5 and 6).
///   * The race check, FastTrack-flavoured: per data variable, the epoch
///     (thread, clock) of its last write and a read clock holding each
///     thread's last read. An access races when its thread's clock does
///     not cover them.
///
/// Every step ticks its thread. A sync step joins the variable's clock,
/// ticks, then publishes to the variable, so all operations on one sync
/// variable are mutually dependent (the paper's dependence relation); data
/// steps are ordered only within their thread. Epochs are taken after the
/// access's tick, so a clock component of 0 still means "no access yet".
///
//===----------------------------------------------------------------------===//

#ifndef ICB_RACE_HBTRACKER_H
#define ICB_RACE_HBTRACKER_H

#include "obs/Metrics.h"
#include "race/RaceDetector.h"
#include "trace/VectorClock.h"
#include <optional>
#include <unordered_map>
#include <vector>

namespace icb::race {

/// The happens-before relation of one execution at a time.
class HbTracker {
public:
  explicit HbTracker(unsigned NumThreads);

  /// Forgets the previous execution. \p CheckRaces turns the race check
  /// of data steps on. Hashing is timed into \p MS's Hash phase and the
  /// race check into its RaceDetect phase; \p MS may be null.
  void startExecution(bool CheckRaces, obs::MetricShard *MS);

  /// Records \p Tid's operation \p OpCode on synchronization variable
  /// \p VarCode.
  void syncStep(uint32_t Tid, uint64_t VarCode, uint16_t OpCode);

  /// Records \p Tid's access to data variable \p VarCode. Returns the race
  /// it completes when race checking is on; a racing access leaves the
  /// variable's bookkeeping unchanged.
  std::optional<RaceReport> dataStep(uint32_t Tid, uint64_t VarCode,
                                     bool IsWrite);

  /// Digest of every step so far.
  uint64_t digest() const { return Hasher.digest(); }

  /// The digest after each step, in step order (the execution's visited
  /// states). Leaves the tracker's copy empty.
  std::vector<uint64_t> takeStepDigests() { return std::move(StepDigests); }

private:
  struct DataVar {
    uint32_t LastWriteTid = 0;
    uint32_t LastWriteClock = 0; ///< 0 means "no write yet".
    trace::VectorClock Reads;    ///< Component per thread; 0 = no read.
  };

  /// Folds \p Tid's step (after its tick) into the digest.
  void addEvent(uint32_t Tid, uint64_t VarCode, uint16_t OpCode,
                bool IsSync);
  std::optional<RaceReport> checkAccess(uint32_t Tid, uint64_t VarCode,
                                        bool IsWrite);

  unsigned NumThreads;
  bool CheckRaces = true;
  obs::MetricShard *MShard = nullptr;
  std::vector<trace::VectorClock> ThreadClocks;
  std::unordered_map<uint64_t, trace::VectorClock> SyncClocks;
  std::unordered_map<uint64_t, DataVar> DataVars;
  StableHasher Hasher;
  std::vector<uint64_t> StepDigests;
};

} // namespace icb::race

#endif // ICB_RACE_HBTRACKER_H
