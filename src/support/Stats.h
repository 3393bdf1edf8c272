//===- support/Stats.h - Counters and histograms ----------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small statistic helpers shared by both checkers: min/max trackers for
/// Table 1 (max K, max B, max c) and dense histograms for Table 2 (bugs per
/// preemption bound).
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SUPPORT_STATS_H
#define ICB_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace icb {

/// Tracks the extremes and total of a stream of observations.
class MinMax {
public:
  void observe(uint64_t Value) {
    if (Count == 0 || Value < Min)
      Min = Value;
    if (Count == 0 || Value > Max)
      Max = Value;
    Sum += Value;
    ++Count;
  }

  /// Folds another tracker in; the result is what observing both streams
  /// in any order would have produced (merging is commutative, which is
  /// what makes the search engine's per-worker stats order-independent).
  void merge(const MinMax &Other) {
    if (Other.Count == 0)
      return;
    if (Count == 0 || Other.Min < Min)
      Min = Other.Min;
    if (Count == 0 || Other.Max > Max)
      Max = Other.Max;
    Sum += Other.Sum;
    Count += Other.Count;
  }

  bool empty() const { return Count == 0; }
  uint64_t min() const { return Count ? Min : 0; }
  uint64_t max() const { return Count ? Max : 0; }
  uint64_t sum() const { return Sum; }
  uint64_t count() const { return Count; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0.0;
  }

  /// Mean scaled by 1000 and rounded to nearest, as an integer — the form
  /// the uint64-only JSON layer exports (field names carry a `_milli`
  /// suffix). The widened multiply keeps the scaling exact for any Sum a
  /// uint64 can hold, so this is stable wherever mean() would lose bits.
  uint64_t meanMilli() const {
    if (Count == 0)
      return 0;
    unsigned __int128 Scaled = static_cast<unsigned __int128>(Sum) * 1000;
    return static_cast<uint64_t>((Scaled + Count / 2) / Count);
  }

  /// Rebuilds a tracker from its four saved components (checkpoint
  /// restore); the inverse of reading min()/max()/sum()/count().
  static MinMax restore(uint64_t Min, uint64_t Max, uint64_t Sum,
                        uint64_t Count) {
    MinMax M;
    if (Count != 0) {
      M.Min = Min;
      M.Max = Max;
      M.Sum = Sum;
      M.Count = Count;
    }
    return M;
  }

private:
  uint64_t Min = 0;
  uint64_t Max = 0;
  uint64_t Sum = 0;
  uint64_t Count = 0;
};

/// Dense histogram over small non-negative integer keys (e.g. preemption
/// bounds); grows on demand.
class Histogram {
public:
  void increment(size_t Bucket, uint64_t Amount = 1) {
    if (Bucket >= Buckets.size())
      Buckets.resize(Bucket + 1, 0);
    Buckets[Bucket] += Amount;
  }

  uint64_t at(size_t Bucket) const {
    return Bucket < Buckets.size() ? Buckets[Bucket] : 0;
  }

  size_t size() const { return Buckets.size(); }

  uint64_t total() const {
    uint64_t Sum = 0;
    for (uint64_t Value : Buckets)
      Sum += Value;
    return Sum;
  }

  /// Adds another histogram bucket-wise (commutative).
  void merge(const Histogram &Other) {
    for (size_t I = 0; I != Other.Buckets.size(); ++I)
      increment(I, Other.Buckets[I]);
  }

  const std::vector<uint64_t> &buckets() const { return Buckets; }

private:
  std::vector<uint64_t> Buckets;
};

/// Bounded sampler for states-vs-executions coverage curves.
///
/// The figure harnesses want the curve's *shape*; recording one point per
/// execution makes the vector grow linearly with the run (hundreds of MB
/// on long searches). This sampler records every Stride-th execution and,
/// whenever the retained vector reaches MaxPoints, drops every other point
/// and doubles the stride — so memory stays bounded while early executions
/// (where the curve bends) remain densely sampled. `finish` appends the
/// final observation so the curve always ends at the true totals.
///
/// Point is any struct with {Executions, States} members (the search:: and
/// rt:: coverage point types are structurally identical).
///
/// The sampler's internal cursor can be saved and restored (checkpoint /
/// resume): restoring {stride, last-observation, pending} alongside the
/// already-emitted points makes the continued curve byte-identical to an
/// uninterrupted run's.
struct CoverageSamplerState {
  uint64_t Stride = 1;
  uint64_t LastExecutions = 0;
  uint64_t LastStates = 0;
  bool HavePending = false;
};

template <typename Point> class CoverageSampler {
public:
  explicit CoverageSampler(uint64_t MaxPoints = 4096)
      : MaxPoints(MaxPoints < 16 ? 16 : MaxPoints) {}

  /// Called once per completed execution with the running totals.
  void observe(std::vector<Point> &Out, uint64_t Executions,
               uint64_t States) {
    LastExecutions = Executions;
    LastStates = States;
    HavePending = true;
    if (Executions % Stride != 0)
      return;
    Out.push_back(Point{Executions, States});
    HavePending = false;
    if (Out.size() < MaxPoints)
      return;
    // Keep points at the doubled stride (indices 1, 3, 5, ... hold the
    // executions that are multiples of 2 * Stride).
    size_t Write = 0;
    for (size_t I = 1; I < Out.size(); I += 2)
      Out[Write++] = Out[I];
    Out.resize(Write);
    Stride *= 2;
  }

  /// Appends the last observed totals if they were not already recorded.
  void finish(std::vector<Point> &Out) {
    if (HavePending)
      Out.push_back(Point{LastExecutions, LastStates});
    HavePending = false;
  }

  CoverageSamplerState saveState() const {
    return {Stride, LastExecutions, LastStates, HavePending};
  }

  void restoreState(const CoverageSamplerState &S) {
    Stride = S.Stride ? S.Stride : 1;
    LastExecutions = S.LastExecutions;
    LastStates = S.LastStates;
    HavePending = S.HavePending;
  }

private:
  uint64_t MaxPoints;
  uint64_t Stride = 1;
  uint64_t LastExecutions = 0;
  uint64_t LastStates = 0;
  bool HavePending = false;
};

} // namespace icb

#endif // ICB_SUPPORT_STATS_H
