//===- dist/Worker.cpp - Joiner protocol loop -----------------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "dist/Worker.h"
#include "dist/Net.h"
#include "dist/Wire.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/eventfd.h>
#include <thread>
#include <unistd.h>

using namespace icb;
using namespace icb::dist;

namespace {

uint64_t nowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The lease thread's "result ready" signal: an eventfd the protocol loop
/// polls next to the socket. One per Worker::run, drained after every
/// lease, so a lease's signal never wakes the next lease's wait.
struct Wakeup {
  int Fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);

  Wakeup() = default;
  Wakeup(const Wakeup &) = delete;
  Wakeup &operator=(const Wakeup &) = delete;
  ~Wakeup() { closeFd(Fd); }

  /// Neither call blocks: the eventfd is nonblocking, and draining an
  /// unsignalled one reads nothing.
  void signal() {
    uint64_t One = 1;
    ssize_t N = ::write(Fd, &One, sizeof(One));
    (void)N;
  }

  void drain() {
    uint64_t Count;
    ssize_t N = ::read(Fd, &Count, sizeof(Count));
    (void)N;
  }
};

/// What Session::wait saw first.
enum class WaitStatus {
  Frame,    ///< A frame from the coordinator.
  Woken,    ///< The lease thread signalled its result.
  TimedOut, ///< The deadline passed (a heartbeat is due).
  Error,    ///< EOF or protocol garbage: the connection is gone.
};

/// One live connection to the coordinator.
struct Session {
  int Fd = -1;
  int WakeFd = -1;
  FrameReader Reader;

  ~Session() { hangUp(); }

  bool send(const session::JsonValue &Frame) {
    return sendAll(Fd, encodeFrame(Frame));
  }

  void hangUp() {
    closeFd(Fd);
    Fd = -1;
  }

  /// Sleeps until a frame arrives, the wakeup fd is signalled, or the
  /// steady clock reaches \p DeadlineMillis. Frames already received come
  /// before a wakeup, and a wakeup before the deadline; the wakeup stays
  /// signalled for the caller to drain.
  WaitStatus wait(session::JsonValue &Out, uint64_t DeadlineMillis) {
    bool Woken = false;
    while (true) {
      DecodeStatus S = Reader.next(Out, nullptr);
      if (S == DecodeStatus::Ok)
        return WaitStatus::Frame;
      if (S == DecodeStatus::Error)
        return WaitStatus::Error;
      if (Woken)
        return WaitStatus::Woken;
      uint64_t Now = nowMillis();
      if (Now >= DeadlineMillis)
        return WaitStatus::TimedOut;
      pollfd P[2] = {{Fd, POLLIN, 0}, {WakeFd, POLLIN, 0}};
      if (::poll(P, 2, static_cast<int>(DeadlineMillis - Now)) < 0) {
        if (errno == EINTR)
          continue;
        return WaitStatus::Error;
      }
      if (P[0].revents != 0) {
        std::string Bytes;
        if (!recvSome(Fd, Bytes))
          return WaitStatus::Error;
        Reader.feed(Bytes.data(), Bytes.size());
      }
      Woken = (P[1].revents & POLLIN) != 0;
    }
  }
};

} // namespace

int Worker::run() {
  bool EverConnected = false;
  unsigned Attempt = 0;
  uint64_t HeartbeatMillis = 1000;
  Wakeup Wake;
  if (Wake.Fd < 0) {
    ErrorMsg = std::string("eventfd: ") + std::strerror(errno);
    return WorkerNetFail;
  }

  while (true) {
    // --- Connect (capped exponential backoff) --------------------------
    Endpoint Ep;
    if (!parseEndpoint(Opts.Connect, Ep, &ErrorMsg))
      return WorkerRefused;
    std::string ConnErr;
    Session S;
    S.WakeFd = Wake.Fd;
    S.Fd = connectTo(Ep, &ConnErr);
    if (S.Fd < 0) {
      if (++Attempt >= Opts.MaxConnectAttempts) {
        ErrorMsg = ConnErr + " (after " + std::to_string(Attempt) +
                   " attempts)";
        return WorkerNetFail;
      }
      uint64_t Backoff = Opts.BackoffBaseMillis;
      for (unsigned I = 1; I < Attempt && Backoff < Opts.BackoffCapMillis;
           ++I)
        Backoff *= 2;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(Backoff, Opts.BackoffCapMillis)));
      continue;
    }
    setNonBlocking(S.Fd);

    // --- Hello ---------------------------------------------------------
    if (!S.send(helloFrame(ProtocolVersion,
                           session::checkpointFormatVersion(),
                           /*Reconnect=*/EverConnected))) {
      ++Attempt;
      continue;
    }
    session::JsonValue Frame;
    if (S.wait(Frame, nowMillis() + 10000) != WaitStatus::Frame) {
      if (++Attempt >= Opts.MaxConnectAttempts) {
        ErrorMsg = "no hello_ok from coordinator";
        return WorkerNetFail;
      }
      continue;
    }
    std::string Kind = frameKind(Frame);
    if (Kind == "refuse") {
      refuseFromJson(Frame, ErrorMsg);
      if (ErrorMsg.empty())
        ErrorMsg = "coordinator refused the hello";
      return WorkerRefused;
    }
    session::CheckpointMeta Meta;
    uint64_t RevokeMillis = 5000;
    if (Kind != "hello_ok" ||
        !helloOkFromJson(Frame, Meta, HeartbeatMillis, RevokeMillis)) {
      ErrorMsg = "malformed handshake from coordinator";
      return WorkerRefused;
    }
    if (Opts.OnAdopt && !Opts.OnAdopt(Meta, &ErrorMsg))
      return WorkerRefused;
    EverConnected = true;
    Attempt = 0;
    uint64_t LeaseBeatMillis = std::max<uint64_t>(HeartbeatMillis / 2, 1);

    // --- Lease loop ----------------------------------------------------
    while (S.send(needWorkFrame())) {
      // Wait for a lease (or done), heartbeating so an idle joiner at the
      // bound barrier is not revoked.
      WaitStatus W;
      while ((W = S.wait(Frame, nowMillis() + HeartbeatMillis)) ==
             WaitStatus::TimedOut)
        if (!S.send(heartbeatFrame()))
          break;
      if (W != WaitStatus::Frame)
        break;
      Kind = frameKind(Frame);
      if (Kind == "done")
        return WorkerDone;
      LeaseRequest Req;
      uint64_t LeaseId = 0;
      if (Kind != "lease" || !leaseFromJson(Frame, LeaseId, Req))
        break; // Anything else is protocol noise; drop the connection.

      // Execute on a separate thread, which signals Wake when the result
      // is ready. Until then the loop sleeps in poll, waking for a frame
      // or a heartbeat deadline, so a long lease does not look like a
      // dead joiner and a short one is answered at once.
      LeaseResult Res;
      std::thread Exec([&] {
        Res = Opts.Runner(Req);
        Wake.signal();
      });
      uint64_t NextBeat = nowMillis() + LeaseBeatMillis;
      while (true) {
        W = S.wait(Frame, NextBeat);
        if (W == WaitStatus::TimedOut) {
          if (!S.send(heartbeatFrame())) {
            W = WaitStatus::Error;
            break;
          }
          NextBeat = nowMillis() + LeaseBeatMillis;
        } else if (W != WaitStatus::Frame || frameKind(Frame) == "done") {
          break;
        }
        // Any other frame is ignored.
      }
      if (W == WaitStatus::Frame) {
        // Done: the run ended under us and the result is moot. Hang up
        // first, so the coordinator does not wait out this lease.
        S.hangUp();
        Exec.join();
        return WorkerDone;
      }
      Exec.join();
      Wake.drain();
      if (W == WaitStatus::Error)
        break; // The coordinator revoked this lease on our EOF — the
               // result must be discarded, never delivered on a new
               // connection.
      ++LeaseCount;
      if (!S.send(resultFrame(LeaseId, Res)))
        break;
    }
    // Fall through to reconnect (fresh hello, marked as such).
  }
}
