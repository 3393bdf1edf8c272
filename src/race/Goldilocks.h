//===- race/Goldilocks.h - Lockset-propagation race detection ---*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Goldilocks-style race detector [Elmas, Qadeer, Tasiran, FATES/RV'06],
/// the algorithm the paper's CHESS implementation used ("while using the
/// Goldilocks algorithm to check for data-races in each execution").
///
/// The idea: for each data variable, maintain a *lockset* of
/// synchronization elements (threads and sync variables) that currently
/// "own" knowledge of the variable's last accesses. A thread may access the
/// variable race-free iff the thread itself is in the lockset. Sync
/// operations propagate ownership: when thread t operates on sync variable
/// m, any lockset containing m gains t (t acquired m's knowledge) and any
/// lockset containing t gains m (t released its knowledge into m).
///
/// It decides whether an access races exactly as the vector-clock check of
/// race/HbTracker.h does; when an access races with several earlier ones,
/// the two may name different ones. The test suite cross-checks them on
/// randomized executions.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_RACE_GOLDILOCKS_H
#define ICB_RACE_GOLDILOCKS_H

#include "race/RaceDetector.h"
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace icb::race {

/// Lockset-propagation happens-before race detector.
class GoldilocksDetector {
public:
  explicit GoldilocksDetector(unsigned NumThreads);

  /// Observes an operation on a synchronization variable by \p Tid. All
  /// operations on the same sync variable are mutually dependent (the
  /// paper's dependence relation), so each op both acquires and releases
  /// the variable's causal knowledge.
  void onSyncOp(uint32_t Tid, uint64_t VarCode);

  /// Observes a data-variable access; returns a report if it races with a
  /// previous access.
  std::optional<RaceReport> onDataAccess(uint32_t Tid, uint64_t VarCode,
                                         bool IsWrite);

private:
  /// Synchronization elements are threads or sync variables; encode threads
  /// in a reserved high range so they cannot collide with variable codes.
  static uint64_t threadElement(uint32_t Tid) {
    return (1ULL << 63) | Tid;
  }

  using LockSet = std::unordered_set<uint64_t>;

  /// Applies the acquire/release propagation of a sync op to one lockset.
  static void propagate(LockSet &Set, uint64_t ThreadElem, uint64_t VarElem);

  struct VarState {
    /// Lockset guarding the last write; empty = no write yet.
    LockSet WriteSet;
    uint32_t LastWriteTid = 0;
    bool HasWrite = false;
    /// Lockset guarding the latest read of each reading thread.
    std::unordered_map<uint32_t, LockSet> ReadSets;
  };

  unsigned NumThreads;
  std::unordered_map<uint64_t, VarState> DataVars;
};

} // namespace icb::race

#endif // ICB_RACE_GOLDILOCKS_H
