//===- trace/VectorClock.h - Vector clocks for happens-before ---*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector clocks over a fixed thread universe. race::HbTracker keeps one
/// per thread and per synchronization variable of an execution; from them
/// it checks the execution for data races (Section 3.1) and digests its
/// happens-before relation into the fingerprint that stands in for a
/// state on the stateless CHESS side (Section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef ICB_TRACE_VECTORCLOCK_H
#define ICB_TRACE_VECTORCLOCK_H

#include "support/Debug.h"
#include "support/Hashing.h"
#include <cstdint>
#include <string>
#include <vector>

namespace icb::trace {

/// A classic vector clock: one logical-time component per thread.
class VectorClock {
public:
  VectorClock() = default;
  explicit VectorClock(unsigned NumThreads) : Clock(NumThreads, 0) {}

  unsigned size() const { return static_cast<unsigned>(Clock.size()); }

  uint32_t get(unsigned Tid) const {
    ICB_ASSERT(Tid < Clock.size(), "vector clock index out of range");
    return Clock[Tid];
  }

  void set(unsigned Tid, uint32_t Value) {
    ICB_ASSERT(Tid < Clock.size(), "vector clock index out of range");
    Clock[Tid] = Value;
  }

  void tick(unsigned Tid) {
    ICB_ASSERT(Tid < Clock.size(), "vector clock index out of range");
    ++Clock[Tid];
  }

  /// Pointwise maximum with \p Other (the classic join on acquire).
  void join(const VectorClock &Other) {
    ICB_ASSERT(Clock.size() == Other.Clock.size(),
               "joining clocks of different widths");
    for (size_t I = 0; I != Clock.size(); ++I)
      if (Other.Clock[I] > Clock[I])
        Clock[I] = Other.Clock[I];
  }

  /// True if this clock is pointwise <= \p Other ("happens before or
  /// equals" for event clocks).
  bool leq(const VectorClock &Other) const {
    ICB_ASSERT(Clock.size() == Other.Clock.size(),
               "comparing clocks of different widths");
    for (size_t I = 0; I != Clock.size(); ++I)
      if (Clock[I] > Other.Clock[I])
        return false;
    return true;
  }

  friend bool operator==(const VectorClock &L, const VectorClock &R) {
    return L.Clock == R.Clock;
  }

  /// Stable digest of the clock contents.
  uint64_t hash() const {
    StableHasher Hasher;
    for (uint32_t Component : Clock)
      Hasher.add(Component);
    return Hasher.digest();
  }

  /// "<1,0,3>" rendering for trace output.
  std::string str() const;

private:
  std::vector<uint32_t> Clock;
};

} // namespace icb::trace

#endif // ICB_TRACE_VECTORCLOCK_H
