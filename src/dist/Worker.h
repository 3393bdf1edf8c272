//===- dist/Worker.h - Joiner protocol loop ---------------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The joiner side of the distributed checker (`icb_check --join`): the
/// connect / hello / need_work / result protocol loop, reconnect with
/// capped exponential backoff, and heartbeats while a lease executes on a
/// separate thread. Execution itself is behind the LeaseRunner seam
/// (dist/Protocol.h) — the tools plug in the real engines, the tests plug
/// in fakes.
///
/// While a lease runs, the protocol loop sleeps in one poll over the
/// socket and an eventfd that the lease thread signals when its result is
/// ready. A finished lease is answered at once; otherwise the loop wakes
/// only for a coordinator frame or to send a heartbeat every half
/// heartbeat interval, so a long lease does not look like a dead joiner.
/// On `done` the joiner hangs up at once, mid-lease or not.
///
/// Exactly-once from this side: a result is only ever sent on the
/// connection whose lease it answers. If that connection dies mid-lease,
/// the result is discarded (the coordinator has revoked and re-queued the
/// items) and the joiner reconnects with a fresh hello.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_DIST_WORKER_H
#define ICB_DIST_WORKER_H

#include "dist/Protocol.h"
#include "session/Checkpoint.h"
#include <cstdint>
#include <functional>
#include <string>

namespace icb::dist {

struct WorkerOptions {
  /// Coordinator address, "HOST:PORT".
  std::string Connect;
  /// Reconnect policy: capped exponential backoff, giving up after this
  /// many consecutive failed attempts (exit code 4).
  unsigned MaxConnectAttempts = 8;
  uint64_t BackoffBaseMillis = 100;
  uint64_t BackoffCapMillis = 2000;
  /// Called with the coordinator's meta after every successful hello,
  /// before any lease runs. Returning false (with an explanation in the
  /// string) refuses the configuration — the joiner exits 2, mirroring
  /// the `--resume` conflict rules.
  std::function<bool(const session::CheckpointMeta &, std::string *)>
      OnAdopt;
  /// Executes one lease (fresh engine, fresh caches, fresh metrics
  /// registry — see dist/Protocol.h).
  LeaseRunner Runner;
};

/// Exit codes Worker::run() returns (aligned with the CLI's).
enum WorkerExit : int {
  WorkerDone = 0,    ///< Coordinator sent done.
  WorkerRefused = 2, ///< Version/config refusal (usage-class error).
  WorkerNetFail = 4, ///< Connection attempts exhausted (I/O-class error).
};

class Worker {
public:
  explicit Worker(WorkerOptions Opts) : Opts(std::move(Opts)) {}

  /// Runs the protocol loop to completion; returns a WorkerExit code.
  int run();

  /// Human-readable cause when run() returned nonzero.
  const std::string &error() const { return ErrorMsg; }

  /// Leases executed (for the joiner's own log line).
  uint64_t leasesRun() const { return LeaseCount; }

private:
  WorkerOptions Opts;
  std::string ErrorMsg;
  uint64_t LeaseCount = 0;
};

} // namespace icb::dist

#endif // ICB_DIST_WORKER_H
