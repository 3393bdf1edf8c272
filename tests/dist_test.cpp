//===- tests/dist_test.cpp - Distributed checking service tests -----------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed frontier-exchange subsystem (src/dist/), bottom up:
/// wire framing (including the adversarial decode table — a coordinator
/// accepts bytes from the network, so truncated, oversized, and garbage
/// frames must fail closed), protocol frame round-trips, and in-process
/// loopback coordinator/joiner runs whose merged results are asserted
/// identical to a local sequential run — including under joiner death,
/// heartbeat-timeout revocation, and a stop/resume split.
///
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Net.h"
#include "dist/Protocol.h"
#include "dist/Wire.h"
#include "dist/Worker.h"
#include "search/BoundPolicy.h"
#include "search/Checker.h"
#include "session/Checkpoint.h"
#include "testutil/ResultChecks.h"
#include "testutil/TestPrograms.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

using namespace icb;
using namespace icb::dist;
using icb::testutil::expectIdenticalResults;
using icb::testutil::expectSameDeterministicMetrics;
using icb::testutil::preemptionLadder;
using icb::testutil::racyCounter;
using session::JsonValue;

//===----------------------------------------------------------------------===//
// Wire framing
//===----------------------------------------------------------------------===//

namespace {

JsonValue sampleObject() {
  JsonValue V = JsonValue::object();
  V.set("kind", JsonValue::str("need_work"));
  V.set("n", JsonValue::number(42));
  return V;
}

/// A frame whose length prefix claims \p Len over \p Payload bytes.
std::string rawFrame(uint32_t Len, const std::string &Payload) {
  std::string Bytes;
  for (int I = 0; I != 4; ++I)
    Bytes.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  Bytes += Payload;
  return Bytes;
}

} // namespace

TEST(Wire, EncodeDecodeRoundTrip) {
  std::string Bytes = encodeFrame(sampleObject());
  size_t Off = 0;
  JsonValue Out;
  std::string Error;
  ASSERT_EQ(decodeFrame(Bytes, Off, Out, &Error), DecodeStatus::Ok) << Error;
  EXPECT_EQ(Off, Bytes.size());
  EXPECT_EQ(frameKind(Out), "need_work");
  uint64_t N = 0;
  EXPECT_TRUE(Out.getU64("n", N));
  EXPECT_EQ(N, 42u);
}

TEST(Wire, TruncatedFramesNeedMore) {
  // Every strict prefix of a valid frame — mid-length-prefix and
  // mid-payload alike — is incomplete, never an error.
  std::string Bytes = encodeFrame(sampleObject());
  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut) {
    std::string Partial = Bytes.substr(0, Cut);
    size_t Off = 0;
    JsonValue Out;
    EXPECT_EQ(decodeFrame(Partial, Off, Out, nullptr),
              DecodeStatus::NeedMore)
        << "cut at " << Cut;
    EXPECT_EQ(Off, 0u) << "cut at " << Cut;
  }
}

TEST(Wire, AdversarialFramesFailClosed) {
  struct Row {
    const char *Label;
    std::string Bytes;
  };
  const Row Table[] = {
      {"oversized length", rawFrame(MaxFrameBytes + 1, "")},
      {"huge length", rawFrame(0xffffffffu, "")},
      {"garbage payload", rawFrame(4, "\x01\x02\x03\x04")},
      {"truncating JSON", rawFrame(8, "{\"kind\":\"x\"}")},
      {"bare value payload", rawFrame(4, "true")},
      {"empty payload", rawFrame(0, "")},
  };
  for (const Row &R : Table) {
    size_t Off = 0;
    JsonValue Out;
    std::string Error;
    EXPECT_EQ(decodeFrame(R.Bytes, Off, Out, &Error), DecodeStatus::Error)
        << R.Label;
  }
}

TEST(Wire, FrameReaderReassemblesByteByByte) {
  std::string Bytes = encodeFrame(sampleObject()) +
                      encodeFrame(heartbeatFrame());
  FrameReader Reader;
  std::vector<std::string> Kinds;
  for (char C : Bytes) {
    Reader.feed(&C, 1);
    JsonValue Out;
    while (Reader.next(Out, nullptr) == DecodeStatus::Ok)
      Kinds.push_back(frameKind(Out));
  }
  ASSERT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Kinds[0], "need_work");
  EXPECT_EQ(Kinds[1], "heartbeat");
}

TEST(Wire, FrameReaderPoisonsOnError) {
  FrameReader Reader;
  std::string Bad = rawFrame(4, "\x01\x02\x03\x04");
  Reader.feed(Bad.data(), Bad.size());
  JsonValue Out;
  EXPECT_EQ(Reader.next(Out, nullptr), DecodeStatus::Error);
  // Feeding a perfectly valid frame afterwards must not resynchronize.
  std::string Good = encodeFrame(heartbeatFrame());
  Reader.feed(Good.data(), Good.size());
  EXPECT_EQ(Reader.next(Out, nullptr), DecodeStatus::Error);
}

//===----------------------------------------------------------------------===//
// Protocol frames
//===----------------------------------------------------------------------===//

namespace {

session::CheckpointMeta sampleMeta() {
  session::CheckpointMeta Meta;
  Meta.Benchmark = "racy";
  Meta.Bug = "default";
  Meta.Form = "vm";
  Meta.Strategy = "icb";
  Meta.Bound = "preemption";
  Meta.Limits.MaxPreemptionBound = 2;
  return Meta;
}

void removeKey(JsonValue &V, const std::string &Key) {
  for (auto It = V.Obj.begin(); It != V.Obj.end(); ++It) {
    if (It->first == Key) {
      V.Obj.erase(It);
      return;
    }
  }
}

search::SavedWorkItem sampleItem(uint32_t Tag) {
  search::SavedWorkItem It;
  It.Prefix = {0, Tag, 1};
  It.Next = Tag % 3;
  return It;
}

} // namespace

TEST(Protocol, HelloRoundTrip) {
  JsonValue V = helloFrame(ProtocolVersion,
                           session::checkpointFormatVersion(),
                           /*Reconnect=*/true);
  EXPECT_EQ(frameKind(V), "hello");
  uint64_t Protocol = 0, Format = 0;
  ASSERT_TRUE(helloFromJson(V, Protocol, Format));
  EXPECT_EQ(Protocol, ProtocolVersion);
  EXPECT_EQ(Format, session::checkpointFormatVersion());
  bool Reconnect = false;
  EXPECT_TRUE(V.getBool("reconnect", Reconnect));
  EXPECT_TRUE(Reconnect);
}

TEST(Protocol, HelloOkRoundTrip) {
  JsonValue V = helloOkFrame(sampleMeta(), 250, 1250);
  EXPECT_EQ(frameKind(V), "hello_ok");
  session::CheckpointMeta Meta;
  uint64_t Heartbeat = 0, Revoke = 0;
  ASSERT_TRUE(helloOkFromJson(V, Meta, Heartbeat, Revoke));
  EXPECT_EQ(Meta.Benchmark, "racy");
  EXPECT_EQ(Meta.Form, "vm");
  EXPECT_EQ(Meta.Strategy, "icb");
  EXPECT_EQ(Meta.Bound, "preemption");
  EXPECT_EQ(Meta.Limits.MaxPreemptionBound, 2u);
  EXPECT_EQ(Heartbeat, 250u);
  EXPECT_EQ(Revoke, 1250u);
}

TEST(Protocol, RefuseRoundTrip) {
  JsonValue V = refuseFrame("version mismatch: want 1");
  EXPECT_EQ(frameKind(V), "refuse");
  std::string Reason;
  ASSERT_TRUE(refuseFromJson(V, Reason));
  EXPECT_EQ(Reason, "version mismatch: want 1");
}

TEST(Protocol, LeaseRoundTrip) {
  LeaseRequest Req;
  Req.Bound = 3;
  Req.Items = {sampleItem(7), sampleItem(8)};
  JsonValue V = leaseFrame(11, Req);
  EXPECT_EQ(frameKind(V), "lease");
  uint64_t Id = 0;
  LeaseRequest Out;
  ASSERT_TRUE(leaseFromJson(V, Id, Out));
  EXPECT_EQ(Id, 11u);
  EXPECT_FALSE(Out.Roots);
  EXPECT_EQ(Out.Bound, 3u);
  ASSERT_EQ(Out.Items.size(), 2u);
  EXPECT_EQ(Out.Items[0].Prefix, Req.Items[0].Prefix);
  EXPECT_EQ(Out.Items[1].Next, Req.Items[1].Next);

  LeaseRequest Roots;
  Roots.Roots = true;
  uint64_t RootsId = 0;
  LeaseRequest RootsOut;
  ASSERT_TRUE(leaseFromJson(leaseFrame(1, Roots), RootsId, RootsOut));
  EXPECT_TRUE(RootsOut.Roots);
  EXPECT_TRUE(RootsOut.Items.empty());
}

TEST(Protocol, ResultRoundTrip) {
  LeaseResult Res;
  Res.Completed = true;
  Res.Stats.Executions = 17;
  Res.Stats.TotalSteps = 230;
  Res.Stats.StepsPerExecution.observe(9);
  Res.Stats.PreemptionsPerExecution.observe(1);
  Res.Stats.PreemptionHistogram.increment(1, 17);
  search::Bug B;
  B.Kind = search::BugKind::AssertFailure;
  B.Message = "count == N";
  B.Preemptions = 1;
  B.Steps = 12;
  Res.Bugs.push_back(B);
  Res.Deferred = {sampleItem(3)};
  Res.Remaining = {sampleItem(4), sampleItem(5)};
  Res.SeenDigests = {10, 20, 30};
  Res.TerminalDigests = {40};
  Res.ItemDigests = {50, 60};
  Res.Metrics.Counters.assign(obs::NumCounters, 0);
  Res.Metrics.Counters[static_cast<size_t>(obs::Counter::SeenMiss)] = 3;

  JsonValue V = resultFrame(23, Res);
  EXPECT_EQ(frameKind(V), "result");
  uint64_t Id = 0;
  LeaseResult Out;
  ASSERT_TRUE(resultFromJson(V, Id, Out));
  EXPECT_EQ(Id, 23u);
  EXPECT_TRUE(Out.Completed);
  EXPECT_EQ(Out.Stats.Executions, 17u);
  EXPECT_EQ(Out.Stats.TotalSteps, 230u);
  EXPECT_EQ(Out.Stats.PreemptionHistogram.at(1), 17u);
  ASSERT_EQ(Out.Bugs.size(), 1u);
  EXPECT_EQ(Out.Bugs[0].Kind, search::BugKind::AssertFailure);
  EXPECT_EQ(Out.Bugs[0].Message, "count == N");
  EXPECT_EQ(Out.Deferred.size(), 1u);
  EXPECT_EQ(Out.Remaining.size(), 2u);
  EXPECT_EQ(Out.SeenDigests, Res.SeenDigests);
  EXPECT_EQ(Out.TerminalDigests, Res.TerminalDigests);
  EXPECT_EQ(Out.ItemDigests, Res.ItemDigests);
  EXPECT_EQ(
      Out.Metrics.Counters[static_cast<size_t>(obs::Counter::SeenMiss)], 3u);
}

TEST(Protocol, DecodersRejectMalformedFrames) {
  // The adversarial table for the typed layer: a versioned peer can still
  // send structurally wrong frames; every decoder must refuse rather than
  // default-fill.
  struct Row {
    const char *Label;
    JsonValue Frame;
  };
  std::vector<Row> Table;
  Table.push_back({"no kind at all", JsonValue::object()});
  {
    JsonValue V = JsonValue::object();
    V.set("kind", JsonValue::number(7));
    Table.push_back({"non-string kind", std::move(V)});
  }
  {
    JsonValue V = helloFrame(ProtocolVersion, 5);
    removeKey(V, "protocol");
    Table.push_back({"hello without protocol", std::move(V)});
  }
  {
    JsonValue V = helloFrame(ProtocolVersion, 5);
    V.set("format", JsonValue::str("five"));
    Table.push_back({"hello with string format", std::move(V)});
  }
  {
    JsonValue V = leaseFrame(1, LeaseRequest());
    removeKey(V, "id");
    Table.push_back({"lease without id", std::move(V)});
  }
  {
    JsonValue V = leaseFrame(1, LeaseRequest());
    V.set("items", JsonValue::str("not an array"));
    Table.push_back({"lease with scalar items", std::move(V)});
  }
  {
    JsonValue V = resultFrame(1, LeaseResult());
    removeKey(V, "stats");
    Table.push_back({"result without stats", std::move(V)});
  }
  {
    JsonValue V = resultFrame(1, LeaseResult());
    V.set("id", JsonValue::boolean(true));
    Table.push_back({"result with boolean id", std::move(V)});
  }
  {
    JsonValue V = helloOkFrame(sampleMeta(), 1, 1);
    removeKey(V, "meta");
    Table.push_back({"hello_ok without meta", std::move(V)});
  }
  {
    JsonValue V = JsonValue::object();
    V.set("kind", JsonValue::str("refuse"));
    Table.push_back({"refuse without reason", std::move(V)});
  }

  for (Row &R : Table) {
    uint64_t U1 = 0, U2 = 0;
    std::string S;
    session::CheckpointMeta Meta;
    LeaseRequest Req;
    LeaseResult Res;
    EXPECT_FALSE(helloFromJson(R.Frame, U1, U2) &&
                 frameKind(R.Frame) == "hello")
        << R.Label;
    EXPECT_FALSE(helloOkFromJson(R.Frame, Meta, U1, U2) &&
                 frameKind(R.Frame) == "hello_ok")
        << R.Label;
    EXPECT_FALSE(refuseFromJson(R.Frame, S) &&
                 frameKind(R.Frame) == "refuse")
        << R.Label;
    EXPECT_FALSE(leaseFromJson(R.Frame, U1, Req) &&
                 frameKind(R.Frame) == "lease")
        << R.Label;
    EXPECT_FALSE(resultFromJson(R.Frame, U1, Res) &&
                 frameKind(R.Frame) == "result")
        << R.Label;
  }
}

//===----------------------------------------------------------------------===//
// Loopback coordinator/joiner runs
//===----------------------------------------------------------------------===//

namespace {

/// The test-side lease runner: exactly what tools/common/DistDrive.cpp
/// plugs in for the model-VM form — fresh policy, caches, and metrics
/// registry per lease.
LeaseRunner makeRunner(const vm::Program &Prog,
                       const session::CheckpointMeta &Meta,
                       unsigned Jobs = 1) {
  return [&Prog, Meta, Jobs](const LeaseRequest &Req) {
    obs::MetricsRegistry Reg;
    std::unique_ptr<search::BoundPolicy> Policy = search::makeBoundPolicy(
        {Meta.Bound, Meta.Limits.MaxPreemptionBound, Meta.VarBound});
    search::EngineSnapshot Synth;
    const search::EngineSnapshot *Resume = nullptr;
    if (!Req.Roots) {
      Synth.Bound = Req.Bound;
      Synth.CurrentQueue = Req.Items;
      Resume = &Synth;
    }
    search::SearchOptions O;
    O.Kind = search::StrategyKind::Icb;
    O.Policy = Policy.get();
    O.UseSleepSets = Meta.Por;
    O.Jobs = Req.Roots ? 1 : Jobs;
    O.Limits.StopAtFirstBug = Meta.Limits.StopAtFirstBug;
    O.Resume = Resume;
    O.Metrics = &Reg;
    O.Lease =
        Req.Roots ? search::LeaseMode::Roots : search::LeaseMode::Drain;
    search::SearchResult R = search::checkProgram(Prog, O);

    LeaseResult Res;
    Res.Completed = R.Stats.Completed;
    Res.Stats = std::move(R.Stats);
    Res.Bugs = std::move(R.Bugs);
    Res.Deferred = std::move(R.LeaseDeferred);
    Res.Remaining = std::move(R.LeaseCurrent);
    Res.SeenDigests = std::move(R.LeaseSeen);
    Res.TerminalDigests = std::move(R.LeaseTerminal);
    Res.ItemDigests = std::move(R.LeaseItems);
    Res.Metrics = Reg.snapshot();
    return Res;
  };
}

/// The local sequential reference the distributed result must match.
search::SearchResult runSequential(const vm::Program &Prog,
                                   const session::CheckpointMeta &Meta,
                                   obs::MetricsRegistry *Reg) {
  std::unique_ptr<search::BoundPolicy> Policy = search::makeBoundPolicy(
      {Meta.Bound, Meta.Limits.MaxPreemptionBound, Meta.VarBound});
  search::SearchOptions O;
  O.Kind = search::StrategyKind::Icb;
  O.Policy = Policy.get();
  O.Jobs = 1;
  O.Limits.StopAtFirstBug = Meta.Limits.StopAtFirstBug;
  O.Metrics = Reg;
  return search::checkProgram(Prog, O);
}

/// Both sides canonicalize bug reports (lease mode forces canonical mode
/// in the engines); the sequential reference reports in discovery order,
/// so fold it through the same canonical map before comparing.
void canonicalizeBugs(search::SearchResult &R) {
  search::CanonicalBugMap Map;
  for (search::Bug &B : R.Bugs)
    search::canonicalMergeBug(Map, std::move(B));
  R.Bugs = search::takeCanonicalBugs(std::move(Map));
}

struct DistRun {
  search::SearchResult Result;
  obs::MetricsSnapshot Metrics;
  std::vector<int> WorkerRcs;
};

/// Hosts an in-process coordinator and \p Joiners worker threads over
/// loopback, each executing leases with \p Runner; returns the merged
/// result once the frontier drains.
DistRun runJoiners(
    const session::CheckpointMeta &Meta, unsigned Joiners,
    const LeaseRunner &Runner,
    const std::function<void(CoordinatorOptions &)> &Tweak = {},
    const std::function<void(uint16_t)> &BeforeWorkers = {}) {
  obs::MetricsRegistry Reg;
  CoordinatorOptions CO;
  CO.Bind = "127.0.0.1:0";
  CO.Meta = Meta;
  CO.Limits.StopAtFirstBug = Meta.Limits.StopAtFirstBug;
  CO.FrontierBound = Meta.Limits.MaxPreemptionBound;
  CO.LeaseItems = 3; // Small batches: many leases, many merges.
  CO.Metrics = &Reg;
  if (Tweak)
    Tweak(CO);

  Coordinator Coord(CO);
  std::string Err;
  EXPECT_TRUE(Coord.start(&Err)) << Err;
  uint16_t Port = Coord.port();

  DistRun Out;
  Out.WorkerRcs.assign(Joiners, -1);
  std::vector<std::thread> Threads;
  std::thread Serve([&] { Out.Result = Coord.run(); });
  if (BeforeWorkers)
    BeforeWorkers(Port);
  for (unsigned I = 0; I != Joiners; ++I)
    Threads.emplace_back([&, I] {
      WorkerOptions WO;
      WO.Connect = "127.0.0.1:" + std::to_string(Port);
      WO.Runner = Runner;
      Worker W(WO);
      Out.WorkerRcs[I] = W.run();
    });
  Serve.join();
  for (std::thread &T : Threads)
    T.join();
  Out.Metrics = Reg.snapshot();
  return Out;
}

/// runJoiners over the engine's lease runner for \p Prog.
DistRun runDistributed(
    const vm::Program &Prog, const session::CheckpointMeta &Meta,
    unsigned Joiners, unsigned JobsEach = 1,
    const std::function<void(CoordinatorOptions &)> &Tweak = {},
    const std::function<void(uint16_t)> &BeforeWorkers = {}) {
  return runJoiners(Meta, Joiners, makeRunner(Prog, Meta, JobsEach), Tweak,
                    BeforeWorkers);
}

/// A hand-driven joiner speaking raw frames, for the fault-injection and
/// version tests (the real Worker never misbehaves).
struct RawClient {
  int Fd = -1;
  FrameReader Reader;

  ~RawClient() { close(); }

  bool connect(uint16_t Port) {
    Endpoint Ep;
    Ep.Host = "127.0.0.1";
    Ep.Port = Port;
    std::string Err;
    Fd = connectTo(Ep, &Err);
    return Fd >= 0;
  }

  bool send(const JsonValue &Frame) {
    return sendAll(Fd, encodeFrame(Frame));
  }

  /// Blocking read of the next frame; false on EOF or protocol error.
  bool read(JsonValue &Out) {
    while (true) {
      DecodeStatus S = Reader.next(Out, nullptr);
      if (S == DecodeStatus::Ok)
        return true;
      if (S == DecodeStatus::Error)
        return false;
      std::string Bytes;
      if (!recvSome(Fd, Bytes))
        return false;
      Reader.feed(Bytes.data(), Bytes.size());
    }
  }

  void close() {
    if (Fd >= 0) {
      closeFd(Fd);
      Fd = -1;
    }
  }
};

uint64_t counterOf(const obs::MetricsSnapshot &M, obs::Counter C) {
  size_t I = static_cast<size_t>(C);
  return I < M.Counters.size() ? M.Counters[I] : 0;
}

/// A well-behaved joiner asks for work only when it holds no lease, so a
/// run without faults revokes nothing and no joiner reconnects.
void expectNoRevocations(const DistRun &D) {
  EXPECT_EQ(counterOf(D.Metrics, obs::Counter::DistLeaseRevoked), 0u);
  EXPECT_EQ(counterOf(D.Metrics, obs::Counter::DistReconnects), 0u);
}

/// Keeps the final snapshot of a run that ended on its own.
struct FinalCapture : search::EngineObserver {
  search::EngineSnapshot Snap;
  bool HaveFinal = false;

  void onCheckpoint(const search::EngineSnapshot &S) override {
    if (S.Final) {
      Snap = S;
      HaveFinal = true;
    }
  }
};

} // namespace

TEST(DistLoopback, MatchesSequentialSingleJoiner) {
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  canonicalizeBugs(Ref);
  ASSERT_TRUE(Ref.foundBug());

  FinalCapture Observer;
  DistRun D = runDistributed(
      Prog, Meta, 1, 1,
      [&](CoordinatorOptions &CO) { CO.Observer = &Observer; });
  EXPECT_EQ(D.WorkerRcs[0], WorkerDone);
  expectIdenticalResults(Ref, D.Result);
  expectSameDeterministicMetrics(RefReg.snapshot(), D.Metrics);
  expectNoRevocations(D);

  // The final checkpoint is what `--resume` re-emits: its bugs and stats
  // must be the result's.
  ASSERT_TRUE(Observer.HaveFinal);
  search::SearchResult Reemitted;
  Reemitted.Stats = Observer.Snap.Stats;
  Reemitted.Bugs = Observer.Snap.Bugs;
  expectIdenticalResults(D.Result, Reemitted);
}

TEST(DistLoopback, MatchesSequentialAcrossJoinerCounts) {
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  canonicalizeBugs(Ref);

  for (unsigned Joiners : {2u, 4u}) {
    DistRun D = runDistributed(Prog, Meta, Joiners, /*JobsEach=*/2);
    SCOPED_TRACE(std::to_string(Joiners) + " joiners");
    for (int Rc : D.WorkerRcs)
      EXPECT_EQ(Rc, WorkerDone);
    expectIdenticalResults(Ref, D.Result);
    expectSameDeterministicMetrics(RefReg.snapshot(), D.Metrics);
    expectNoRevocations(D);
  }
}

TEST(DistLoopback, CleanProgramCompletes) {
  vm::Program Prog = preemptionLadder(3); // Needs 3; bound 2 finds nothing.
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  ASSERT_FALSE(Ref.foundBug());

  DistRun D = runDistributed(Prog, Meta, 2);
  EXPECT_FALSE(D.Result.foundBug());
  expectIdenticalResults(Ref, D.Result);
  expectSameDeterministicMetrics(RefReg.snapshot(), D.Metrics);
  expectNoRevocations(D);
}

TEST(DistLoopback, StopAtFirstBugStopsLeasing) {
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  Meta.Limits.StopAtFirstBug = true;

  DistRun D = runDistributed(Prog, Meta, 2);
  EXPECT_TRUE(D.Result.foundBug());
  EXPECT_FALSE(D.Result.Stats.Completed);
  EXPECT_EQ(D.Result.simplestBug()->Preemptions, 1u);
}

TEST(DistLoopback, ExecutionLimitStopsLeasing) {
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  DistRun D = runDistributed(Prog, Meta, 2, 1, [](CoordinatorOptions &CO) {
    CO.Limits.MaxExecutions = 5;
  });
  EXPECT_GE(D.Result.Stats.Executions, 5u);
  EXPECT_FALSE(D.Result.Stats.Completed);
}

TEST(DistLoopback, FinishedLeaseIsAnsweredAtOnce) {
  // An engine-free runner: the roots lease hands back a few hundred
  // items, and every one-item drain lease returns at once, so the time
  // from one lease's start to the next is all protocol. A joiner that
  // noticed a finished lease only when a poll timed out would spend at
  // least that timeout on every lease.
  constexpr uint32_t Items = 300;
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> Starts; // One joiner: leases in sequence.
  LeaseRunner Instant = [&Starts](const LeaseRequest &Req) {
    Starts.push_back(Clock::now());
    LeaseResult Res;
    Res.Completed = true;
    if (Req.Roots)
      for (uint32_t I = 0; I != Items; ++I)
        Res.Remaining.push_back(sampleItem(I));
    return Res;
  };
  DistRun D = runJoiners(sampleMeta(), 1, Instant, [](CoordinatorOptions &CO) {
    CO.LeaseItems = 1;
  });

  EXPECT_EQ(D.WorkerRcs[0], WorkerDone);
  EXPECT_TRUE(D.Result.Stats.Completed);
  expectNoRevocations(D);
  uint64_t Leases = counterOf(D.Metrics, obs::Counter::DistLeases);
  ASSERT_EQ(Leases, Items + 1); // The roots lease, then one per item.
  ASSERT_EQ(Starts.size(), Leases);
#ifndef __SANITIZE_THREAD__
  // ThreadSanitizer slows the whole lease round trip to about 3 ms, so
  // its build drives this run for the race check only.
  std::vector<int64_t> Micros;
  for (size_t I = 1; I != Starts.size(); ++I)
    Micros.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                         Starts[I] - Starts[I - 1])
                         .count());
  std::sort(Micros.begin(), Micros.end());
  int64_t Median = Micros[Micros.size() / 2];
  // About 0.07 ms, 0.5–1.3 ms under ASan+UBSan; a 5 ms poll puts a floor
  // under every lease (a median of 4 ms or more even on a loaded machine).
  // A thread handoff on a machine saturated by other processes can wait a
  // scheduler tick (4 ms), which is why ctest runs this binary's tests
  // alone (tests/CMakeLists.txt).
  EXPECT_LT(Median, 3000) << "median lease turnaround in us; p90 "
                          << Micros[Micros.size() * 9 / 10];
#endif
}

TEST(DistLoopback, LongLeaseKeepsHeartbeating) {
  // One lease runs three revoke intervals long. The joiner heartbeats
  // through it, and the other joiner through its wait at the barrier:
  // nothing is revoked, nobody reconnects, and the result is exact.
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  canonicalizeBugs(Ref);

  LeaseRunner Engine = makeRunner(Prog, Meta);
  std::atomic<bool> Slept{false};
  LeaseRunner Slow = [&](const LeaseRequest &Req) {
    if (!Req.Roots && !Slept.exchange(true))
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    return Engine(Req);
  };
  DistRun D = runJoiners(Meta, 2, Slow, [](CoordinatorOptions &CO) {
    CO.HeartbeatMillis = 50;
    CO.RevokeMillis = 200;
  });
  EXPECT_TRUE(Slept.load());
  for (int Rc : D.WorkerRcs)
    EXPECT_EQ(Rc, WorkerDone);
  expectIdenticalResults(Ref, D.Result);
  expectSameDeterministicMetrics(RefReg.snapshot(), D.Metrics);
  expectNoRevocations(D);
}

TEST(DistFaults, EofMidLeaseRevokesAndLosesNothing) {
  // An "evil" joiner executes the roots lease correctly (so the frontier
  // is seeded), takes the first drain lease, and drops the connection
  // without answering. The coordinator must revoke, requeue the items
  // unmerged, and let an honest joiner finish to the exact sequential
  // result.
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  canonicalizeBugs(Ref);

  LeaseRunner Runner = makeRunner(Prog, Meta);
  DistRun D = runDistributed(
      Prog, Meta, /*Joiners=*/1, /*JobsEach=*/1, /*Tweak=*/{},
      /*BeforeWorkers=*/[&](uint16_t Port) {
        RawClient Evil;
        ASSERT_TRUE(Evil.connect(Port));
        ASSERT_TRUE(Evil.send(helloFrame(
            ProtocolVersion, session::checkpointFormatVersion())));
        JsonValue Frame;
        ASSERT_TRUE(Evil.read(Frame));
        ASSERT_EQ(frameKind(Frame), "hello_ok");
        // Seed honestly so the next lease is a drain lease.
        ASSERT_TRUE(Evil.send(needWorkFrame()));
        ASSERT_TRUE(Evil.read(Frame));
        uint64_t Id = 0;
        LeaseRequest Req;
        ASSERT_TRUE(leaseFromJson(Frame, Id, Req));
        ASSERT_TRUE(Req.Roots);
        ASSERT_TRUE(Evil.send(resultFrame(Id, Runner(Req))));
        // Take a drain lease and die mid-flight.
        ASSERT_TRUE(Evil.send(needWorkFrame()));
        ASSERT_TRUE(Evil.read(Frame));
        ASSERT_TRUE(leaseFromJson(Frame, Id, Req));
        ASSERT_FALSE(Req.Roots);
        ASSERT_FALSE(Req.Items.empty());
        Evil.close();
      });

  EXPECT_EQ(D.WorkerRcs[0], WorkerDone);
  expectIdenticalResults(Ref, D.Result);
  expectSameDeterministicMetrics(RefReg.snapshot(), D.Metrics);
  EXPECT_GE(counterOf(D.Metrics, obs::Counter::DistLeaseRevoked), 1u);
}

TEST(DistFaults, SilentJoinerIsRevokedByHeartbeatTimeout) {
  // A joiner that takes the roots lease and then goes silent — connection
  // open, no heartbeats — must be revoked after RevokeMillis, the roots
  // lease re-issued, and the run finish exactly.
  vm::Program Prog = racyCounter(2);
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  canonicalizeBugs(Ref);

  RawClient Silent;
  DistRun D = runDistributed(
      Prog, Meta, /*Joiners=*/1, /*JobsEach=*/1,
      [](CoordinatorOptions &CO) {
        CO.HeartbeatMillis = 50;
        CO.RevokeMillis = 200;
      },
      /*BeforeWorkers=*/[&](uint16_t Port) {
        ASSERT_TRUE(Silent.connect(Port));
        ASSERT_TRUE(Silent.send(helloFrame(
            ProtocolVersion, session::checkpointFormatVersion())));
        JsonValue Frame;
        ASSERT_TRUE(Silent.read(Frame));
        ASSERT_EQ(frameKind(Frame), "hello_ok");
        ASSERT_TRUE(Silent.send(needWorkFrame()));
        ASSERT_TRUE(Silent.read(Frame));
        ASSERT_EQ(frameKind(Frame), "lease");
        // ... and say nothing more.
      });

  EXPECT_EQ(D.WorkerRcs[0], WorkerDone);
  expectIdenticalResults(Ref, D.Result);
  expectSameDeterministicMetrics(RefReg.snapshot(), D.Metrics);
  EXPECT_GE(counterOf(D.Metrics, obs::Counter::DistLeaseRevoked), 1u);
}

TEST(DistFaults, VersionMismatchIsRefused) {
  vm::Program Prog = racyCounter(2);
  session::CheckpointMeta Meta = sampleMeta();
  DistRun D = runDistributed(
      Prog, Meta, /*Joiners=*/1, /*JobsEach=*/1, /*Tweak=*/{},
      /*BeforeWorkers=*/[&](uint16_t Port) {
        // Wrong protocol number.
        {
          RawClient C;
          ASSERT_TRUE(C.connect(Port));
          ASSERT_TRUE(C.send(helloFrame(
              ProtocolVersion + 1, session::checkpointFormatVersion())));
          JsonValue Frame;
          ASSERT_TRUE(C.read(Frame));
          EXPECT_EQ(frameKind(Frame), "refuse");
          std::string Reason;
          ASSERT_TRUE(refuseFromJson(Frame, Reason));
          EXPECT_NE(Reason.find("version mismatch"), std::string::npos);
          // The refusal is final: the coordinator hangs up.
          EXPECT_FALSE(C.read(Frame));
        }
        // Wrong checkpoint format number.
        {
          RawClient C;
          ASSERT_TRUE(C.connect(Port));
          ASSERT_TRUE(C.send(helloFrame(
              ProtocolVersion, session::checkpointFormatVersion() + 1)));
          JsonValue Frame;
          ASSERT_TRUE(C.read(Frame));
          EXPECT_EQ(frameKind(Frame), "refuse");
        }
        // A first frame that is not hello at all: dropped without reply.
        {
          RawClient C;
          ASSERT_TRUE(C.connect(Port));
          ASSERT_TRUE(C.send(needWorkFrame()));
          JsonValue Frame;
          EXPECT_FALSE(C.read(Frame));
        }
      });
  // The refused clients must not have disturbed the honest run.
  EXPECT_EQ(D.WorkerRcs[0], WorkerDone);
  EXPECT_TRUE(D.Result.foundBug());
}

TEST(DistFaults, WorkerExhaustsConnectAttempts) {
  // Find a port with nothing listening by binding one and closing it.
  std::string Err;
  Endpoint Ep;
  Ep.Host = "127.0.0.1";
  int Fd = listenOn(Ep, &Err);
  ASSERT_GE(Fd, 0) << Err;
  uint16_t Port = boundPort(Fd);
  closeFd(Fd);

  WorkerOptions WO;
  WO.Connect = "127.0.0.1:" + std::to_string(Port);
  WO.MaxConnectAttempts = 2;
  WO.BackoffBaseMillis = 1;
  WO.Runner = [](const LeaseRequest &) { return LeaseResult(); };
  Worker W(WO);
  EXPECT_EQ(W.run(), WorkerNetFail);
  EXPECT_FALSE(W.error().empty());
}

TEST(DistFaults, WorkerAdoptRefusalExitsTwo) {
  vm::Program Prog = racyCounter(2);
  session::CheckpointMeta Meta = sampleMeta();
  DistRun D = runDistributed(
      Prog, Meta, /*Joiners=*/1, /*JobsEach=*/1, /*Tweak=*/{},
      /*BeforeWorkers=*/[&](uint16_t Port) {
        WorkerOptions WO;
        WO.Connect = "127.0.0.1:" + std::to_string(Port);
        WO.OnAdopt = [](const session::CheckpointMeta &, std::string *E) {
          *E = "benchmark not available on this joiner";
          return false;
        };
        WO.Runner = [](const LeaseRequest &) { return LeaseResult(); };
        Worker W(WO);
        EXPECT_EQ(W.run(), WorkerRefused);
        EXPECT_EQ(W.error(), "benchmark not available on this joiner");
      });
  EXPECT_EQ(D.WorkerRcs[0], WorkerDone);
  EXPECT_TRUE(D.Result.foundBug());
}

//===----------------------------------------------------------------------===//
// Stop / resume
//===----------------------------------------------------------------------===//

namespace {

/// Requests a cooperative stop once the merged execution count reaches a
/// threshold, and keeps the last resumable snapshot.
struct StopCapture : search::EngineObserver {
  uint64_t Threshold;
  std::atomic<bool> Stop{false};
  search::EngineSnapshot Snap;
  bool HaveResumable = false;

  explicit StopCapture(uint64_t Threshold) : Threshold(Threshold) {}

  bool checkpointDue(uint64_t Executions) override {
    if (Executions >= Threshold)
      Stop.store(true);
    return false;
  }
  bool stopRequested() override { return Stop.load(); }
  void onCheckpoint(const search::EngineSnapshot &S) override {
    if (!S.Final) {
      Snap = S;
      HaveResumable = true;
    }
  }
};

} // namespace

TEST(DistResume, StoppedServeResumesToIdenticalResult) {
  vm::Program Prog = racyCounter(3);
  session::CheckpointMeta Meta = sampleMeta();
  obs::MetricsRegistry RefReg;
  search::SearchResult Ref = runSequential(Prog, Meta, &RefReg);
  canonicalizeBugs(Ref);

  // Segment 1: stop after the first merged executions and capture the
  // resumable snapshot (outstanding leases folded back by the
  // coordinator).
  StopCapture Observer(1);
  DistRun First = runDistributed(
      Prog, Meta, /*Joiners=*/2, /*JobsEach=*/1,
      [&](CoordinatorOptions &CO) {
        CO.LeaseItems = 2;
        CO.Observer = &Observer;
      });
  ASSERT_TRUE(First.Result.Interrupted);
  ASSERT_TRUE(Observer.HaveResumable);
  ASSERT_LT(First.Result.Stats.Executions, Ref.Stats.Executions);
  // The stop reaches every joiner as `done`, mid-lease or not.
  for (int Rc : First.WorkerRcs)
    EXPECT_EQ(Rc, WorkerDone);

  // Segment 2: a fresh coordinator resumes from the snapshot; fresh
  // joiners finish the run.
  DistRun Second = runDistributed(
      Prog, Meta, /*Joiners=*/2, /*JobsEach=*/1,
      [&](CoordinatorOptions &CO) {
        CO.LeaseItems = 2;
        CO.Resume = &Observer.Snap;
      });
  for (int Rc : Second.WorkerRcs)
    EXPECT_EQ(Rc, WorkerDone);
  EXPECT_FALSE(Second.Result.Interrupted);
  expectIdenticalResults(Ref, Second.Result);
  expectSameDeterministicMetrics(RefReg.snapshot(), Second.Metrics);
}
