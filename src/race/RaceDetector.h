//===- race/RaceDetector.h - Data-race reports ------------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.1: CHESS "introduces context switches only at accesses to
/// synchronization variables and verifies that accesses to data variables
/// are ordered by accesses to synchronization variables in each explored
/// execution". Two detectors perform that verification and report what
/// they find as a RaceReport:
///
///   * `HbTracker` (race/HbTracker.h) — FastTrack-flavoured checks over the
///     vector clocks that also digest each execution (the default).
///   * `GoldilocksDetector` (race/Goldilocks.h) — lockset propagation in the
///     style of the Goldilocks algorithm [Elmas, Qadeer, Tasiran 2006],
///     which the CHESS implementation in the paper used. It shares no state
///     with the clocks and serves as the independent cross-check.
///
/// Both observe the same event stream (one sync-op or data-access record
/// per step) and must agree on whether an execution races; the test suite
/// cross-checks them on randomized executions.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_RACE_RACEDETECTOR_H
#define ICB_RACE_RACEDETECTOR_H

#include <cstdint>
#include <string>

namespace icb::race {

/// A detected data race: two accesses to the same data variable not
/// ordered by the happens-before relation of the execution.
struct RaceReport {
  uint64_t VarCode = 0;
  uint32_t FirstTid = 0;
  uint32_t SecondTid = 0;
  bool FirstWasWrite = false;
  bool SecondWasWrite = false;

  std::string str() const;
};

} // namespace icb::race

#endif // ICB_RACE_RACEDETECTOR_H
