//===- obs/Progress.h - Live search progress ticker -------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--progress` feed: engines sample their frontier into a
/// ProgressSample via EngineObserver::onProgress, and ProgressMeter
/// renders it as a single throttled stderr line. Progress output never
/// touches stdout — the determinism CI jobs diff stdout byte-for-byte,
/// and a ticker there would be both noise and a test break.
///
/// due() is the hot-path half: a relaxed load of the next deadline plus,
/// at most once per period, one compare-exchange to claim it. Any worker
/// may claim a tick; the claim is what throttles concurrent emitters
/// among the driver's workers without a lock.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_OBS_PROGRESS_H
#define ICB_OBS_PROGRESS_H

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace icb::obs {

/// One engine-frontier sample, cheap enough to assemble on demand. The
/// ETA the meter prints is Theorem-1 flavoured: items still queued at the
/// current bound over the observed execution rate — a lower bound on the
/// remaining work, since the next bound's queue is still growing.
struct ProgressSample {
  uint64_t Bound = 0;      ///< Preemption bound being drained.
  uint64_t MaxBound = 0;   ///< Configured ceiling (0 = unbounded).
  uint64_t Executions = 0; ///< Executions completed so far (all bounds).
  uint64_t TotalSteps = 0; ///< VM/runtime steps executed so far.
  uint64_t States = 0;     ///< Distinct states seen so far.
  uint64_t FrontierRemaining = 0; ///< Items still queued at this bound.
  uint64_t DeferredNext = 0;      ///< Items already deferred to bound+1.
  uint64_t Bugs = 0;              ///< Bugs recorded so far.
  /// Schedule-space mass credited by finished executions so far, in
  /// EstimateOne units (see obs/Metrics.h). Feeds the Knuth-style
  /// estimated-total and fraction-explored columns; 0 = estimator dark
  /// (ICB_NO_METRICS or nothing credited yet), rendered as "-".
  uint64_t EstMass = 0;
};

/// Throttled single-line stderr renderer. Thread-safe: due() is lock-free
/// and tick() is only entered by the claimant of a deadline. When stderr
/// is a TTY the line redraws in place (\r); otherwise each tick is its
/// own newline-terminated line so logs stay readable.
class ProgressMeter {
public:
  /// \p PeriodMillis throttles ticks; \p Out defaults to stderr (tests
  /// substitute a tmpfile).
  explicit ProgressMeter(uint64_t PeriodMillis = 1000, FILE *Out = nullptr);

  /// True once per period: the first caller past the deadline claims it
  /// and must follow up with tick(). The very first deadline is "now", so
  /// even a sub-period run emits at least one line.
  bool due();

  /// Renders \p S. Call only after a successful due() claim.
  void tick(const ProgressSample &S);

  /// Clears the in-place line (TTY) and emits a final summary line.
  void finish(const ProgressSample &S);

private:
  void render(const ProgressSample &S, bool Final);

  FILE *Out;
  bool IsTty;
  uint64_t PeriodNanos;
  uint64_t StartNanos;
  std::atomic<uint64_t> NextDeadline;
  uint64_t LastLineLen = 0;
};

} // namespace icb::obs

#endif // ICB_OBS_PROGRESS_H
