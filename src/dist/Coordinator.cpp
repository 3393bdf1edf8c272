//===- dist/Coordinator.cpp - Frontier-owning checking service ------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Net.h"
#include "dist/Wire.h"
#include "support/Debug.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <poll.h>
#include <sys/socket.h>

using namespace icb;
using namespace icb::dist;
using search::SavedWorkItem;

//===----------------------------------------------------------------------===//
// Connection and lease bookkeeping
//===----------------------------------------------------------------------===//

struct Coordinator::Conn {
  int Fd = -1;
  FrameReader Reader;
  bool Hello = false;   ///< Handshake complete.
  bool Waiting = false; ///< Has an unanswered need_work.
  uint64_t LeaseId = 0; ///< Nonzero while holding a lease.
  uint64_t LastSeenMs = 0;
  size_t JoinerIndex = ~size_t(0);
  bool Dead = false;
};

struct Coordinator::Lease {
  size_t ConnIndex = ~size_t(0);
  bool Roots = false;
  unsigned Bound = 0;
  std::vector<SavedWorkItem> Items;
};

Coordinator::Coordinator(CoordinatorOptions O) : Opts(std::move(O)) {
  Master.Counters.assign(obs::NumCounters, 0);
  if (Opts.Resume) {
    const search::EngineSnapshot &Snap = *Opts.Resume;
    ICB_ASSERT(!Snap.Final, "serving a finished run");
    Bound = Snap.Bound;
    Current.assign(Snap.CurrentQueue.begin(), Snap.CurrentQueue.end());
    Next.assign(Snap.NextQueue.begin(), Snap.NextQueue.end());
    for (uint64_t D : Snap.SeenDigests)
      Seen.insert(D);
    for (uint64_t D : Snap.TerminalDigests)
      Terminal.insert(D);
    for (uint64_t D : Snap.ItemDigests)
      ItemSet.insert(D);
    Stats = Snap.Stats;
    Stats.Completed = false;
    for (const search::Bug &B : Snap.Bugs)
      search::canonicalMergeBug(Bugs, B);
    Master.merge(Snap.Metrics);
    Seeded = true;
  }
}

Coordinator::~Coordinator() {
  for (Conn &C : Conns)
    closeFd(C.Fd);
  closeFd(ListenFd);
}

bool Coordinator::start(std::string *Error) {
  Endpoint Ep;
  if (!parseEndpoint(Opts.Bind, Ep, Error))
    return false;
  ListenFd = listenOn(Ep, Error);
  return ListenFd >= 0;
}

uint16_t Coordinator::port() const {
  return ListenFd >= 0 ? boundPort(ListenFd) : 0;
}

uint64_t Coordinator::nowMillis() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// The serve loop
//===----------------------------------------------------------------------===//

search::SearchResult Coordinator::run() {
  ICB_ASSERT(ListenFd >= 0, "run() before start()");

  // A resumed frontier can already be complete up to the barrier (e.g. a
  // checkpoint taken at the last bound's end never happens — checkpoints
  // are safe points with work left — but a resumed empty current queue
  // must advance immediately rather than wait for a joiner).
  advanceBarrier();

  while (!Finished) {
    if (Opts.Observer && Opts.Observer->stopRequested() && !Interrupted) {
      // Cooperative stop: revoke everything outstanding (unmerged, so
      // exact), flush one resumable checkpoint, and wind down.
      Interrupted = true;
      StopLeasing = true;
      std::vector<SavedWorkItem> Folded;
      foldOutstanding(Folded);
      for (auto It = Leases.begin(); It != Leases.end();) {
        size_t CI = It->second.ConnIndex;
        It = Leases.erase(It);
        if (CI < Conns.size())
          Conns[CI].LeaseId = 0;
      }
      Current.insert(Current.begin(), Folded.begin(), Folded.end());
      if (Opts.Observer)
        emitSnapshot(/*Final=*/false);
      break;
    }
    pollOnce(std::min<uint64_t>(Opts.HeartbeatMillis, 250));

    // Heartbeat-timeout revocation.
    uint64_t Now = nowMillis();
    for (size_t I = 0; I != Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (C.Dead || C.Fd < 0)
        continue;
      if (Now - C.LastSeenMs > Opts.RevokeMillis)
        dropConn(I, /*Revoke=*/true);
    }
    advanceBarrier();
    serveWaiters();
  }

  deliverDone();

  search::SearchResult Result;
  Stats.DistinctStates = Seen.size();
  Stats.DistinctTerminalStates = Terminal.size();
  Stats.Completed = FinishedCompleted;
  // The final snapshot copies the bug map, so it goes out before the map
  // moves into the result.
  if (!Interrupted && Opts.Observer)
    emitSnapshot(/*Final=*/true);
  Result.Stats = Stats;
  Result.Interrupted = Interrupted;
  Result.Bugs = search::takeCanonicalBugs(std::move(Bugs));
  if (Opts.Metrics)
    Opts.Metrics->restore(Master);
  return Result;
}

void Coordinator::deliverDone() {
  // Tell every joiner the run is over, and hang up only once it has.
  // Closing at once would fail a joiner's next send (the need_work after
  // its result) with EPIPE, and it would reconnect to a coordinator that
  // no longer serves. shutdown(SHUT_WR) ends our side after `done`.
  std::string Done = encodeFrame(doneFrame());
  for (size_t I = 0; I != Conns.size(); ++I) {
    Conn &C = Conns[I];
    if (!C.Dead && C.Fd >= 0 &&
        (!sendAll(C.Fd, Done) || ::shutdown(C.Fd, SHUT_WR) != 0))
      dropConn(I, /*Revoke=*/false);
  }

  // A joiner hangs up as soon as it reads `done`; until then, whatever it
  // still sends (a result, a need_work, a heartbeat) is read and dropped.
  // One silent for RevokeMillis already counts as dead.
  uint64_t Deadline = nowMillis() + Opts.RevokeMillis;
  std::vector<pollfd> Fds;
  std::vector<size_t> Index; // pollfd -> Conns index.
  while (true) {
    Fds.clear();
    Index.clear();
    for (size_t I = 0; I != Conns.size(); ++I) {
      if (!Conns[I].Dead && Conns[I].Fd >= 0) {
        Fds.push_back({Conns[I].Fd, POLLIN, 0});
        Index.push_back(I);
      }
    }
    uint64_t Now = nowMillis();
    if (Fds.empty() || Now >= Deadline)
      break;
    int N = ::poll(Fds.data(), Fds.size(), static_cast<int>(Deadline - Now));
    if (N < 0 && errno != EINTR)
      break;
    for (size_t P = 0; P != Fds.size(); ++P) {
      std::string Discard;
      if (Fds[P].revents != 0 && !recvSome(Fds[P].fd, Discard))
        dropConn(Index[P], /*Revoke=*/false);
    }
  }
  for (size_t I = 0; I != Conns.size(); ++I)
    dropConn(I, /*Revoke=*/false);
}

void Coordinator::pollOnce(uint64_t TimeoutMillis) {
  std::vector<pollfd> Fds;
  std::vector<size_t> Index; // pollfd -> Conns index (listen = ~0).
  Fds.push_back({ListenFd, POLLIN, 0});
  Index.push_back(~size_t(0));
  for (size_t I = 0; I != Conns.size(); ++I) {
    if (!Conns[I].Dead && Conns[I].Fd >= 0) {
      Fds.push_back({Conns[I].Fd, POLLIN, 0});
      Index.push_back(I);
    }
  }
  int N = ::poll(Fds.data(), Fds.size(), static_cast<int>(TimeoutMillis));
  if (N <= 0)
    return;

  if (Fds[0].revents & POLLIN) {
    while (true) {
      int Fd = acceptConn(ListenFd);
      if (Fd < 0)
        break;
      Conn C;
      C.Fd = Fd;
      C.LastSeenMs = nowMillis();
      Conns.push_back(std::move(C));
    }
  }

  for (size_t P = 1; P < Fds.size(); ++P) {
    size_t I = Index[P];
    if (I >= Conns.size() || Conns[I].Dead)
      continue;
    if (!(Fds[P].revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    Conn &C = Conns[I];
    std::string Bytes;
    if (!recvSome(C.Fd, Bytes)) {
      dropConn(I, /*Revoke=*/true);
      continue;
    }
    C.Reader.feed(Bytes.data(), Bytes.size());
    C.LastSeenMs = nowMillis();
    while (true) {
      session::JsonValue Frame;
      std::string Error;
      DecodeStatus S = C.Reader.next(Frame, &Error);
      if (S == DecodeStatus::NeedMore)
        break;
      if (S == DecodeStatus::Error) {
        dropConn(I, /*Revoke=*/true);
        break;
      }
      handleFrame(Conns[I], Frame);
      if (Conns[I].Dead)
        break;
    }
  }

  // Compact fully-dead connection slots from the tail (live indices held
  // by leases stay stable because only the tail is trimmed).
  while (!Conns.empty() && Conns.back().Dead && Conns.back().LeaseId == 0)
    Conns.pop_back();
}

void Coordinator::handleFrame(Conn &C, const session::JsonValue &V) {
  std::string Kind = frameKind(V);

  if (!C.Hello) {
    if (Kind != "hello") {
      C.Dead = true;
      closeFd(C.Fd);
      C.Fd = -1;
      return;
    }
    uint64_t Protocol = 0, Format = 0;
    bool Reconnect = false;
    if (!helloFromJson(V, Protocol, Format) ||
        Protocol != ProtocolVersion ||
        Format != session::checkpointFormatVersion()) {
      std::string Reason =
          "version mismatch: coordinator speaks protocol " +
          std::to_string(ProtocolVersion) + " / format " +
          std::to_string(session::checkpointFormatVersion());
      sendAll(C.Fd, encodeFrame(refuseFrame(Reason)));
      C.Dead = true;
      closeFd(C.Fd);
      C.Fd = -1;
      return;
    }
    V.getBool("reconnect", Reconnect);
    C.Hello = true;
    C.JoinerIndex = Joiners.size();
    Joiners.push_back({});
    Joiners.back().Reconnect = Reconnect;
    if (Reconnect)
      ++Master.Counters[static_cast<size_t>(obs::Counter::DistReconnects)];
    sendAll(C.Fd, encodeFrame(helloOkFrame(Opts.Meta, Opts.HeartbeatMillis,
                                           Opts.RevokeMillis)));
    return;
  }

  if (Kind == "heartbeat")
    return; // LastSeen already refreshed.

  if (Kind == "need_work") {
    if (C.LeaseId != 0) {
      // Protocol violation: asking while holding a lease.
      size_t Self = static_cast<size_t>(&C - Conns.data());
      dropConn(Self, /*Revoke=*/true);
      return;
    }
    C.Waiting = true;
    maybeIssue(C);
    return;
  }

  if (Kind == "result") {
    uint64_t Id = 0;
    LeaseResult Res;
    if (!resultFromJson(V, Id, Res) || Id == 0 || Id != C.LeaseId) {
      // Results are accepted only on the connection holding that lease —
      // a revoked joiner's late result lands on a closed socket, and a
      // confused one is dropped here. Either way exactly-once holds.
      size_t Self = static_cast<size_t>(&C - Conns.data());
      dropConn(Self, /*Revoke=*/true);
      return;
    }
    mergeResult(C, std::move(Res));
    return;
  }

  // Unknown frame kind from a versioned peer: drop it.
  size_t Self = static_cast<size_t>(&C - Conns.data());
  dropConn(Self, /*Revoke=*/true);
}

void Coordinator::dropConn(size_t Index, bool Revoke) {
  Conn &C = Conns[Index];
  if (C.Dead)
    return;
  closeFd(C.Fd);
  C.Fd = -1;
  C.Dead = true;
  C.Waiting = false;
  if (C.LeaseId != 0 && Revoke) {
    auto It = Leases.find(C.LeaseId);
    if (It != Leases.end()) {
      // Unmerged, so re-issuing is exact: the lease's executions never
      // entered the totals. Items return to the front to keep the queue
      // close to FIFO order (order is immaterial to the merged result).
      Lease &L = It->second;
      if (L.Roots)
        Seeded = false; // Re-seed via the next joiner.
      else
        Current.insert(Current.begin(), L.Items.begin(), L.Items.end());
      ++Master.Counters[static_cast<size_t>(obs::Counter::DistLeaseRevoked)];
      if (C.JoinerIndex < Joiners.size())
        ++Joiners[C.JoinerIndex].Revocations;
      Leases.erase(It);
    }
  }
  C.LeaseId = 0;
}

void Coordinator::maybeIssue(Conn &C) {
  if (Finished || StopLeasing || !C.Waiting || C.LeaseId != 0)
    return;
  if (!Seeded) {
    // The frontier bootstrap: a roots lease runs the executor's root
    // seeding (policy charges, estimator mass split, degenerate-program
    // accounting) in a joiner and returns both queues unexecuted. Only
    // one may be outstanding.
    for (const auto &Entry : Leases)
      if (Entry.second.Roots)
        return;
    LeaseRequest Req;
    Req.Roots = true;
    Req.Bound = 0;
    issueLease(C, std::move(Req));
    return;
  }
  if (Current.empty())
    return; // Barrier: wait for outstanding leases of this bound.
  LeaseRequest Req;
  Req.Bound = Bound;
  size_t Take = std::min<size_t>(Opts.LeaseItems ? Opts.LeaseItems : 1,
                                 Current.size());
  Req.Items.assign(Current.begin(), Current.begin() + Take);
  Current.erase(Current.begin(), Current.begin() + Take);
  issueLease(C, std::move(Req));
}

void Coordinator::issueLease(Conn &C, LeaseRequest Req) {
  uint64_t Id = NextLeaseId++;
  Lease L;
  L.ConnIndex = static_cast<size_t>(&C - Conns.data());
  L.Roots = Req.Roots;
  L.Bound = Req.Bound;
  L.Items = Req.Items;
  std::string Frame = encodeFrame(leaseFrame(Id, Req));
  if (!sendAll(C.Fd, Frame)) {
    // Connection already broken: put the items back untouched.
    if (!Req.Roots)
      Current.insert(Current.begin(), L.Items.begin(), L.Items.end());
    dropConn(L.ConnIndex, /*Revoke=*/false);
    return;
  }
  C.Waiting = false;
  C.LeaseId = Id;
  Leases.emplace(Id, std::move(L));
  ++Master.Counters[static_cast<size_t>(obs::Counter::DistLeases)];
  Master.Counters[static_cast<size_t>(obs::Counter::DistLeaseItems)] +=
      Req.Items.size();
  if (C.JoinerIndex < Joiners.size()) {
    ++Joiners[C.JoinerIndex].Leases;
    Joiners[C.JoinerIndex].Items += Req.Items.size();
  }
}

//===----------------------------------------------------------------------===//
// Merging
//===----------------------------------------------------------------------===//

/// Reconstructs the global cache hit/miss split from the lease-local one.
/// Joiners run with fresh caches, so a lease's Hit + Miss is its total
/// probe count P and its digest vector is its distinct set D. Inserting D
/// into the authoritative set yields N globally-new digests; the global
/// counters gain Miss += N and Hit += P - N. Exact in any merge order:
/// the union of the D's is the global distinct set, and the sum of the
/// P's is the global probe total — both independent of how probes were
/// partitioned into leases.
void Coordinator::reconstructCacheCounters(obs::MetricsSnapshot &Delta,
                                           const LeaseResult &Res) {
  Delta.Counters.resize(obs::NumCounters, 0);
  auto Reconstruct = [&Delta](obs::Counter Hit, obs::Counter Miss,
                              const std::vector<uint64_t> &Digests,
                              std::unordered_set<uint64_t> &Global) {
    // Merged in every build: DistinctStates, the per-bound rows and
    // checkpoints read these sets. Only the counters are metrics.
    uint64_t New = 0;
    for (uint64_t D : Digests)
      if (Global.insert(D).second)
        ++New;
#ifndef ICB_NO_METRICS
    size_t H = static_cast<size_t>(Hit), M = static_cast<size_t>(Miss);
    uint64_t Probes = Delta.Counters[H] + Delta.Counters[M];
    Delta.Counters[M] = New;
    Delta.Counters[H] = Probes - New;
#else
    // Probe counters are compiled out to 0, here as in a local run.
    (void)Delta;
    (void)Hit;
    (void)Miss;
    (void)New;
#endif
  };
  Reconstruct(obs::Counter::SeenHit, obs::Counter::SeenMiss,
              Res.SeenDigests, Seen);
  Reconstruct(obs::Counter::TerminalHit, obs::Counter::TerminalMiss,
              Res.TerminalDigests, Terminal);
  Reconstruct(obs::Counter::ItemHit, obs::Counter::ItemMiss,
              Res.ItemDigests, ItemSet);
}

void Coordinator::mergeResult(Conn &C, LeaseResult &&Res) {
  auto It = Leases.find(C.LeaseId);
  ICB_ASSERT(It != Leases.end(), "result for an unknown lease");
  Lease L = std::move(It->second);
  Leases.erase(It);
  C.LeaseId = 0;

  if (L.Roots) {
    // Remaining/Deferred are the two seeded queues, unexecuted.
    Seeded = true;
    Current.insert(Current.end(), Res.Remaining.begin(),
                   Res.Remaining.end());
    Next.insert(Next.end(), Res.Deferred.begin(), Res.Deferred.end());
  } else {
    Next.insert(Next.end(), Res.Deferred.begin(), Res.Deferred.end());
    // Leftovers only appear when the joiner stopped early (first bug
    // under StopAtFirstBug); fold them back so a resumable checkpoint
    // stays exact.
    Current.insert(Current.begin(), Res.Remaining.begin(),
                   Res.Remaining.end());
  }

  // Commutative stat folds (the parallel driver's merge, across sockets).
  Stats.Executions += Res.Stats.Executions;
  Stats.TotalSteps += Res.Stats.TotalSteps;
  Stats.StepsPerExecution.merge(Res.Stats.StepsPerExecution);
  Stats.BlockingPerExecution.merge(Res.Stats.BlockingPerExecution);
  Stats.PreemptionsPerExecution.merge(Res.Stats.PreemptionsPerExecution);
  Stats.ThreadsPerExecution.merge(Res.Stats.ThreadsPerExecution);
  Stats.PreemptionHistogram.merge(Res.Stats.PreemptionHistogram);
  for (search::Bug &B : Res.Bugs)
    search::canonicalMergeBug(Bugs, std::move(B));

  obs::MetricsSnapshot Delta = std::move(Res.Metrics);
  reconstructCacheCounters(Delta, Res);
  Master.merge(Delta);

  if (C.JoinerIndex < Joiners.size()) {
    Joiners[C.JoinerIndex].Executions += Res.Stats.Executions;
    Joiners[C.JoinerIndex].Steps += Res.Stats.TotalSteps;
  }

  if (limitHit() ||
      (Opts.Limits.StopAtFirstBug && !Bugs.empty()))
    StopLeasing = true;

  // The joiner asks for its next batch with need_work; a result is never
  // a request, so the lease that request draws is the joiner's only one.
  advanceBarrier();
  if (!Finished) {
    if (Opts.Observer && Opts.Observer->checkpointDue(Stats.Executions))
      emitSnapshot(/*Final=*/false);
    if (Opts.Observer && Opts.Observer->progressDue()) {
      obs::ProgressSample S;
      S.Bound = Bound;
      S.MaxBound = Opts.FrontierBound;
      S.Executions = Stats.Executions;
      S.TotalSteps = Stats.TotalSteps;
      S.States = Seen.size();
      S.FrontierRemaining = Current.size();
      for (const auto &Entry : Leases)
        S.FrontierRemaining += Entry.second.Items.size();
      S.DeferredNext = Next.size();
      S.Bugs = Bugs.size();
      S.EstMass = Master.estMassTotal();
      Opts.Observer->onProgress(S);
    }
    serveWaiters();
  }
}

bool Coordinator::limitHit() const {
  return Stats.Executions >= Opts.Limits.MaxExecutions ||
         Stats.TotalSteps >= Opts.Limits.MaxSteps ||
         Seen.size() >= Opts.Limits.MaxStates;
}

//===----------------------------------------------------------------------===//
// The bound barrier
//===----------------------------------------------------------------------===//

void Coordinator::recordBoundComplete() {
  Stats.PerBound.push_back({Bound, Seen.size(), Stats.Executions});
  Stats.Coverage.push_back({Stats.Executions, Seen.size()});
  if (Opts.Observer)
    Opts.Observer->onBoundComplete(Stats.PerBound.back());
}

void Coordinator::advanceBarrier() {
  while (!Finished && Seeded && Current.empty() && Leases.empty()) {
    // Bound `Bound` is exhausted — the same quiescent point the driver's
    // fork/join barrier reaches, with the same per-bound accounting.
    recordBoundComplete();
    if (StopLeasing || Next.empty() || Bound >= Opts.FrontierBound) {
      finish(/*Completed=*/!StopLeasing && Next.empty());
      return;
    }
    ++Bound;
    Current.swap(Next);
    Next.clear();
    if (Opts.Observer && Opts.Observer->checkpointDue(Stats.Executions))
      emitSnapshot(/*Final=*/false);
  }
  // A limit tripped mid-bound: wind down once the in-flight leases have
  // reported (their work predates the stop decision, exactly like the
  // driver's in-flight chains). A local run records the
  // partially-drained bound's row too, which the loop above covers once
  // outstanding leases drain... but only if Current emptied; with items
  // still queued we finish here.
  if (!Finished && StopLeasing && !Interrupted && Leases.empty() && Seeded &&
      !Current.empty()) {
    recordBoundComplete();
    finish(/*Completed=*/false);
  }
}

void Coordinator::finish(bool Completed) {
  Finished = true;
  FinishedCompleted = Completed;
}

void Coordinator::serveWaiters() {
  if (Finished || StopLeasing)
    return;
  for (Conn &C : Conns) {
    if (!C.Dead && C.Hello && C.Waiting && C.LeaseId == 0)
      maybeIssue(C);
  }
}

//===----------------------------------------------------------------------===//
// Checkpointing
//===----------------------------------------------------------------------===//

void Coordinator::foldOutstanding(std::vector<SavedWorkItem> &Out) const {
  for (const auto &Entry : Leases)
    if (!Entry.second.Roots)
      Out.insert(Out.end(), Entry.second.Items.begin(),
                 Entry.second.Items.end());
}

void Coordinator::emitSnapshot(bool Final) {
  ++Master.Counters[static_cast<size_t>(obs::Counter::Snapshots)];
  search::EngineSnapshot Snap;
  Snap.Bound = Bound;
  Snap.Final = Final;
  Snap.Stats = Stats;
  Snap.Stats.DistinctStates = Seen.size();
  Snap.Stats.DistinctTerminalStates = Terminal.size();
  for (const auto &Entry : Bugs)
    Snap.Bugs.push_back(Entry.second);
  Snap.Metrics = Master;
  if (!Final) {
    // Outstanding leases fold back into the current queue: their results
    // are unmerged, so a resume re-executes them and lands on the same
    // totals an uninterrupted run reaches.
    foldOutstanding(Snap.CurrentQueue);
    Snap.CurrentQueue.insert(Snap.CurrentQueue.end(), Current.begin(),
                             Current.end());
    Snap.NextQueue.assign(Next.begin(), Next.end());
    Snap.SeenDigests.assign(Seen.begin(), Seen.end());
    Snap.TerminalDigests.assign(Terminal.begin(), Terminal.end());
    Snap.ItemDigests.assign(ItemSet.begin(), ItemSet.end());
  }
  Opts.Observer->onCheckpoint(Snap);
}
