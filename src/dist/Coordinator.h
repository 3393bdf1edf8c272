//===- dist/Coordinator.h - Frontier-owning checking service ----*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator of a distributed ICB run (`icb_check --serve`). It owns
/// what the engine driver owns in a local run — the per-bound frontier
/// queues, the authoritative digest caches, the canonical bug map, the
/// merged statistics — but executes nothing itself: joiners lease work-item
/// batches, drain them with their local engines, and stream back deltas.
///
/// Determinism contract: the merged result's deterministic half (bugs,
/// per-bound executions, the work-derived metrics section, estimator mass)
/// is byte-identical to a local `--jobs 1` run regardless of joiner count,
/// arrival order, or death, because
///   * the bound barrier is global: bound c + 1 starts only when every
///     lease of bound c has been merged (or revoked and re-executed);
///   * every merge is commutative (sums, MinMax/Histogram folds, canonical
///     bug minima, digest-set unions);
///   * global cache hit/miss counters are reconstructed exactly from
///     lease-local distinct sets plus probe totals (Coordinator.cpp);
///   * a revoked lease's items return to the queue unmerged, so a SIGKILLed
///     joiner changes nothing but timing.
///
/// Robustness: joiner liveness is heartbeat-based with timeout revocation;
/// the coordinator checkpoints through the ordinary EngineObserver seam
/// with outstanding leases folded back into the current queue, so
/// `--serve --resume` rides the existing checkpoint machinery.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_DIST_COORDINATOR_H
#define ICB_DIST_COORDINATOR_H

#include "dist/Protocol.h"
#include "search/EngineObserver.h"
#include "search/SearchTypes.h"
#include "session/Checkpoint.h"
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

namespace icb::dist {

/// Per-joiner accounting for the manifest's `dist` block.
struct JoinerStats {
  uint64_t Leases = 0;
  uint64_t Items = 0;
  uint64_t Executions = 0;
  uint64_t Steps = 0;
  uint64_t Revocations = 0;
  bool Reconnect = false; ///< This connection re-joined an earlier session.
};

struct CoordinatorOptions {
  /// Bind address, "HOST:PORT"; port 0 picks an ephemeral port.
  std::string Bind = "127.0.0.1:0";
  /// The run identity sent to joiners in hello_ok; joiners adopt it the
  /// way `--resume` adopts a checkpoint's meta.
  session::CheckpointMeta Meta;
  search::SearchLimits Limits;
  /// The bound policy's frontier bound (BoundPolicy::frontierBound());
  /// the coordinator stops advancing past it exactly as the driver does.
  unsigned FrontierBound = ~0u;
  /// Work items per drain lease.
  unsigned LeaseItems = 32;
  uint64_t HeartbeatMillis = 1000;
  uint64_t RevokeMillis = 5000;
  search::EngineObserver *Observer = nullptr;
  const search::EngineSnapshot *Resume = nullptr;
  /// When set, the coordinator deposits the merged metrics here at the
  /// end of run() (registry restore), so the session layer's usual
  /// snapshot() call sees them.
  obs::MetricsRegistry *Metrics = nullptr;
};

class Coordinator {
public:
  explicit Coordinator(CoordinatorOptions Opts);
  ~Coordinator();

  Coordinator(const Coordinator &) = delete;
  Coordinator &operator=(const Coordinator &) = delete;

  /// Binds and listens. False with \p Error on failure.
  bool start(std::string *Error);

  /// The bound port (after start); resolves a port-0 bind.
  uint16_t port() const;

  /// Serves until the frontier is exhausted, a limit trips, or the
  /// observer requests a stop. Returns the merged SearchResult.
  search::SearchResult run();

  const std::vector<JoinerStats> &joinerStats() const { return Joiners; }

private:
  struct Conn;
  struct Lease;

  void pollOnce(uint64_t TimeoutMillis);
  void deliverDone();
  void handleFrame(Conn &C, const session::JsonValue &V);
  void dropConn(size_t Index, bool Revoke);
  void maybeIssue(Conn &C);
  void issueLease(Conn &C, LeaseRequest Req);
  void mergeResult(Conn &C, LeaseResult &&Res);
  void reconstructCacheCounters(obs::MetricsSnapshot &Delta,
                                const LeaseResult &Res);
  void advanceBarrier();
  void recordBoundComplete();
  void finish(bool Completed);
  void emitSnapshot(bool Final);
  void foldOutstanding(std::vector<search::SavedWorkItem> &Out) const;
  bool limitHit() const;
  size_t outstandingCount() const { return Leases.size(); }
  void serveWaiters();
  uint64_t nowMillis() const;

  CoordinatorOptions Opts;
  int ListenFd = -1;

  std::vector<Conn> Conns;
  std::map<uint64_t, Lease> Leases;
  uint64_t NextLeaseId = 1;

  // The frontier and merged state (what a local driver owns).
  std::deque<search::SavedWorkItem> Current;
  std::deque<search::SavedWorkItem> Next;
  unsigned Bound = 0;
  bool Seeded = false;
  std::unordered_set<uint64_t> Seen, Terminal, ItemSet;
  search::SearchStats Stats;
  search::CanonicalBugMap Bugs;
  obs::MetricsSnapshot Master;
  std::vector<JoinerStats> Joiners;

  bool StopLeasing = false; ///< Limit/stop/bug: wind down, no new leases.
  bool Interrupted = false;
  bool Finished = false;
  bool FinishedCompleted = false;
};

} // namespace icb::dist

#endif // ICB_DIST_COORDINATOR_H
