//===- obs/PhaseTimer.h - RAII hot-path phase timers ------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ScopedPhase: a single clock read on entry and one on exit, recorded
/// into the worker's MetricShard as a MinMax observation in nanoseconds.
/// Cheap enough to leave enabled on the hot path; compiled out entirely
/// (no clock reads, no branches) under ICB_NO_METRICS.
///
/// On x86-64 the clock is the invariant TSC converted through a
/// once-calibrated multiplier: an rdtsc costs a third of a clock_gettime,
/// and the rt executor's per-step scopes make that difference the bulk of
/// the attached-registry overhead (perfbench's obs.meter_overhead_frac).
/// Elsewhere it falls back to std::chrono::steady_clock.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_OBS_PHASETIMER_H
#define ICB_OBS_PHASETIMER_H

#include "obs/Metrics.h"
#include <chrono>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace icb::obs {

namespace detail {
/// Monotonic wall clock in nanoseconds (one clock_gettime on Linux).
inline uint64_t steadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__)
/// Nanoseconds per 2^20 TSC ticks, measured once against steady_clock
/// (Metrics.cpp). ~350k on a 3 GHz part; always nonzero.
uint64_t calibrateTscScale();

inline uint64_t tscScale() {
  static const uint64_t Scale = calibrateTscScale();
  return Scale;
}
#endif
} // namespace detail

/// Monotonic clock in nanoseconds. The epoch is unspecified (boot time on
/// the TSC path) — only differences are meaningful, which is all the
/// phase timers, busy/idle accounting, and progress rates need.
inline uint64_t nowNanos() {
#if defined(__x86_64__)
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(__rdtsc()) * detail::tscScale()) >> 20);
#else
  return detail::steadyNanos();
#endif
}

/// Times one lexical scope into `Shard->Phases[P]`. Null-shard safe so
/// call sites need no metrics-enabled branch of their own. The optional
/// \p Also accumulator additionally receives the raw duration — used for
/// the per-worker busy/idle split, which wants plain sums rather than a
/// distribution.
class ScopedPhase {
public:
#ifndef ICB_NO_METRICS
  ScopedPhase(MetricShard *Shard, Phase P, uint64_t *Also = nullptr)
      : Shard(Shard), Also(Also), P(P),
        Start((Shard || Also) ? nowNanos() : 0) {}

  ~ScopedPhase() {
    if (!Shard && !Also)
      return;
    // Saturate at zero: TSC reads on different cores can disagree by a
    // handful of ticks even with an invariant TSC, and a wrapped uint64
    // would poison the phase's max and sum.
    uint64_t End = nowNanos();
    uint64_t Elapsed = End > Start ? End - Start : 0;
    if (Shard) {
      Shard->Phases[static_cast<size_t>(P)].observe(Elapsed);
      // Log2 latency bucket: 0 for a 0 ns scope, else the bit width of
      // the duration — bucket b covers [2^(b-1), 2^b) ns.
      size_t Bucket =
          Elapsed ? static_cast<size_t>(64 - __builtin_clzll(Elapsed)) : 0;
      Shard->PhaseHist[static_cast<size_t>(P)].increment(Bucket);
      if (Shard->Trace) {
        TraceEvent E;
        E.Kind = TraceEventKind::PhaseSlice;
        E.Nanos = Start;
        E.Arg0 = Elapsed;
        E.Extra = static_cast<uint16_t>(P);
        Shard->Trace->append(E);
      }
    }
    if (Also)
      *Also += Elapsed;
  }

private:
  MetricShard *Shard;
  uint64_t *Also;
  Phase P;
  uint64_t Start;
#else
  ScopedPhase(MetricShard *, Phase, uint64_t * = nullptr) {}
#endif

public:
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;
};

} // namespace icb::obs

#endif // ICB_OBS_PHASETIMER_H
