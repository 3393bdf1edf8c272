//===- perfbench/icb_perf.cpp - One benchmark check per process ----------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the benchmark (perfbench/run.py spawns it and does
/// the arithmetic). One process runs one check and prints one JSON line of
/// raw measurements: the deterministic counts, monotonic timestamps of the
/// entry call and the first completed execution, rusage, the registry
/// snapshot, and in traced mode the span totals. A fresh process per check
/// keeps one check's peak RSS from carrying into the next.
///
/// Checks:
///   dryad-drain      Dryad Channels, correct variant, bounds 0-1, rt
///                    executor, --jobs N
///   bug:BENCH/LABEL  one Table 2 variant at --jobs 1, runtime form where
///                    one exists, stopping at the first bug
///   bug:kv_server    the POSIX kv_server module (--module=PATH)
///   dist-bluetooth   bluetoothModel(3) through bound 4: an in-process
///                    loopback coordinator and --joiners tool::runJoin
///                    joiners started in --order
///
/// Modes:
///   timed      the public entry points (rt::IcbExplorer,
///              search::checkProgram, dist::Coordinator) with a metrics
///              registry attached and icb_check's defaults
///   bare       the same without a registry
///   setup      timed, but stopping at the first completed execution (an
///              execution limit of 1): one cheap set-up sample (local
///              checks only)
///   traced     the engine drivers over a forwarding executor that records
///              chain/probe/publish/account spans (written to --spans),
///              frontier and RSS samples, lease frame codec spans over the
///              frontier at every bound barrier, and for dist-bluetooth the
///              joiner threads' spans
///   reference  jobs 1 through the public entry points (dist-bluetooth:
///              the local sequential run) — the counts reference.json pins
///   stamp      prints the build stamp and exits
///
//===----------------------------------------------------------------------===//

#include "benchmarks/BluetoothModel.h"
#include "benchmarks/DryadChannels.h"
#include "benchmarks/Registry.h"
#include "common/DistDrive.h"
#include "common/ToolCommon.h"
#include "dist/Coordinator.h"
#include "dist/Protocol.h"
#include "dist/Wire.h"
#include "dist/Worker.h"
#include "obs/Metrics.h"
#include "posix/Module.h"
#include "rt/Explore.h"
#include "rt/ReplayExecutor.h"
#include "search/BoundPolicy.h"
#include "search/Checker.h"
#include "search/IcbEngine.h"
#include "search/VmExecutor.h"
#include "vm/Interp.h"
#include <sys/resource.h>
#include <unistd.h>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

using namespace icb;

namespace {

// icb_check's defaults (tools/common/ToolCommon.h RunConfig).
constexpr unsigned CliMaxBound = 4;
constexpr uint64_t CliMaxExecutions = 1u << 20;
constexpr unsigned CliLeaseItems = 32;

// dryad-drain: the registry's default Dryad test is 3 workers and 2 items,
// whose bound-1 drain needs ~3 GB; one item keeps every layer busy in a
// frontier this machine class can hold several times over.
constexpr unsigned DryadWorkers = 3;
constexpr unsigned DryadItems = 1;
constexpr unsigned DryadMaxBound = 1;
constexpr unsigned BluetoothWorkers = 3;
constexpr const char *BluetoothName = "bluetooth-model-3";

/// Frontier/RSS sampling period of the traced run.
constexpr uint64_t SampleEveryNs = 5'000'000;
/// Lease frames encoded and decoded per bound barrier by the codec probe.
constexpr size_t CodecLeasesPerBarrier = 64;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t residentBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  return N == 2 ? Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

/// Appends one JSON object's members; values are numbers, strings, or
/// nested text built by another JsonOut. (session::JsonValue holds only
/// unsigned integers and pretty-prints; run.py reads one line per check.)
class JsonOut {
public:
  JsonOut &num(const char *Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonOut &real(const char *Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.9g", V);
    return raw(Key, Buf);
  }
  JsonOut &str(const char *Key, const std::string &V) {
    return raw(Key, quote(V));
  }
  JsonOut &raw(const char *Key, const std::string &V) {
    Text += Text.empty() ? "{" : ",";
    Text += quote(Key) + ":" + V;
    return *this;
  }
  std::string done() const { return Text.empty() ? "{}" : Text + "}"; }

  static std::string quote(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\') {
        Out += '\\';
        Out += C;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
    return Out + "\"";
  }

private:
  std::string Text;
};

std::string jsonArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? "," : "") + Items[I];
  return Out + "]";
}

//===----------------------------------------------------------------------===//
// Observer: first execution, frontier/RSS samples, bound marks, codec
//===----------------------------------------------------------------------===//

/// Lease-frame codec totals over the probed barrier frontiers.
struct CodecTotals {
  uint64_t Frames = 0, Items = 0, Bytes = 0, EncodeNs = 0, DecodeNs = 0;
  uint64_t Errors = 0;
};

/// Claims a progress tick until the first completed execution is seen
/// (setup_s ends there), then — traced runs only — one every
/// SampleEveryNs for the frontier and RSS samples. Traced runs also ask
/// for a snapshot right after each bound completes, so the codec probe
/// sees the frontier the next bound is cut from (the coordinator's leases,
/// or what a lease of a local run's frontier would carry).
class BenchObserver final : public search::EngineObserver {
public:
  explicit BenchObserver(bool Traced) : Traced(Traced) {}

  bool progressDue() override {
    if (FirstExecNs.load(std::memory_order_relaxed) == 0)
      return true;
    if (!Traced)
      return false;
    uint64_t Due = NextSampleNs.load(std::memory_order_relaxed);
    uint64_t Now = nowNs();
    return Now >= Due && NextSampleNs.compare_exchange_strong(
                             Due, Now + SampleEveryNs,
                             std::memory_order_relaxed);
  }

  void onProgress(const obs::ProgressSample &S) override {
    if (S.Executions == 0)
      return; // The coordinator's roots lease completes no execution.
    uint64_t Zero = 0;
    bool First = FirstExecNs.compare_exchange_strong(Zero, nowNs());
    if (!Traced)
      return;
    uint64_t Rss = residentBytes();
    uint64_t Queued = S.FrontierRemaining + S.DeferredNext;
    std::lock_guard<std::mutex> Lock(M);
    if (First)
      RssFirst = Rss;
    if (Queued >= PeakQueued) {
      PeakQueued = Queued;
      RssAtPeak = Rss;
    }
  }

  void onBoundComplete(const search::BoundCoverage &B) override {
    if (!Traced)
      return;
    BoundMarks.push_back({B.Bound, nowNs()});
    BarrierPending.store(true, std::memory_order_relaxed);
  }

  bool checkpointDue(uint64_t) override {
    return BarrierPending.exchange(false, std::memory_order_relaxed);
  }

  void onCheckpoint(const search::EngineSnapshot &Snap) override {
    if (Snap.Final || !Traced)
      return;
    const std::vector<search::SavedWorkItem> &Q = Snap.CurrentQueue;
    for (size_t I = 0, Leases = 0;
         I < Q.size() && Leases != CodecLeasesPerBarrier;
         I += CliLeaseItems, ++Leases) {
      dist::LeaseRequest Req;
      Req.Bound = Snap.Bound;
      Req.Items.assign(Q.begin() + I,
                       Q.begin() + std::min(I + CliLeaseItems, Q.size()));
      uint64_t T0 = nowNs();
      std::string Bytes = dist::encodeFrame(dist::leaseFrame(++LeaseId, Req));
      uint64_t T1 = nowNs();
      size_t Off = 0;
      session::JsonValue V;
      std::string Err;
      uint64_t Id = 0;
      dist::LeaseRequest Back;
      bool Ok = dist::decodeFrame(Bytes, Off, V, &Err) ==
                    dist::DecodeStatus::Ok &&
                dist::leaseFromJson(V, Id, Back);
      uint64_t T2 = nowNs();
      ++Codec.Frames;
      Codec.Items += Req.Items.size();
      Codec.Bytes += Bytes.size();
      Codec.EncodeNs += T1 - T0;
      Codec.DecodeNs += T2 - T1;
      if (!Ok || Id != LeaseId || Back.Items.size() != Req.Items.size())
        ++Codec.Errors;
    }
  }

  std::atomic<uint64_t> FirstExecNs{0};
  uint64_t RssFirst = 0, RssAtPeak = 0, PeakQueued = 0;
  std::vector<std::pair<unsigned, uint64_t>> BoundMarks;
  CodecTotals Codec;

private:
  const bool Traced;
  std::atomic<uint64_t> NextSampleNs{0};
  std::mutex M;
  std::atomic<bool> BarrierPending{false};
  uint64_t LeaseId = 0;
};

//===----------------------------------------------------------------------===//
// Traced executor: chain spans and their probe/publish/account children
//===----------------------------------------------------------------------===//

enum Cat : unsigned { Probe, Publish, Account, NumCats };

/// One chain span with its children folded in; the chain id is the
/// record's index in its executor's (that is, its worker thread's) vector.
struct ChainRec {
  uint64_t Start = 0;
  uint64_t Dur = 0;
  uint64_t Ns[NumCats] = {};
  uint64_t Calls[NumCats] = {};
};

/// The Ctx the wrapped executor drives: forwards every hook to the
/// driver's Ctx and times the probe (claimItem/noteState/noteTerminal),
/// publish (branch/defer) and account (recordBug/endExecution) calls.
///
/// The rt executor issues all its hooks back to back after the execution,
/// so \p PerCall false times each run of same-kind calls as one batch: a
/// clock read only where the kind changes. An account call always ends its
/// batch, because the executor's own teardown follows the last one. The VM
/// executor interleaves hooks with interpreter steps, so each call is
/// timed on its own.
template <bool PerCall, typename Ctx> class TracedCtx {
public:
  TracedCtx(Ctx &C, ChainRec &Rec) : C(C), Rec(Rec) {}

  bool claimItem(uint64_t D) {
    Span S(*this, Probe);
    return C.claimItem(D);
  }
  void noteState(uint64_t D) {
    Span S(*this, Probe);
    C.noteState(D);
  }
  void noteTerminal(uint64_t D) {
    Span S(*this, Probe);
    C.noteTerminal(D);
  }
  template <typename Item> void branch(Item &&W) {
    Span S(*this, Publish);
    C.branch(std::forward<Item>(W));
  }
  template <typename Item> void defer(Item &&W) {
    Span S(*this, Publish);
    C.defer(std::forward<Item>(W));
  }
  void recordBug(search::Bug B) {
    Span S(*this, Account);
    C.recordBug(std::move(B));
  }
  void endExecution(const search::ExecutionFacts &F) {
    Span S(*this, Account);
    C.endExecution(F);
  }
  void countSteps(uint64_t N) { C.countSteps(N); }
  unsigned bound() const { return C.bound(); }
  const search::BoundPolicy &policy() const { return C.policy(); }
  obs::MetricShard *metrics() { return C.metrics(); }

  /// Ends the open batch (batch mode) at the chain's end.
  void close() {
    if (Open != NumCats)
      Rec.Ns[Open] += nowNs() - OpenStart;
    Open = NumCats;
  }

private:
  struct Span {
    Span(TracedCtx &T, Cat K) : T(T), K(K) {
      ++T.Rec.Calls[K];
      if (PerCall || T.Open != K) {
        uint64_t Now = nowNs();
        if (T.Open != NumCats)
          T.Rec.Ns[T.Open] += Now - T.OpenStart;
        T.Open = K;
        T.OpenStart = Now;
      }
    }
    ~Span() {
      if (PerCall || K == Account)
        T.close();
    }
    TracedCtx &T;
    const Cat K;
  };

  Ctx &C;
  ChainRec &Rec;
  unsigned Open = NumCats;
  uint64_t OpenStart = 0;
};

/// Forwards an executor and records one ChainRec per runChain. Each
/// instance runs on one worker thread only (the drivers' executor
/// contract), so its record vector is that thread's span store.
template <typename Inner> class TracedExecutor {
public:
  using WorkItem = typename Inner::WorkItem;
  static constexpr bool PerCall = !std::is_same_v<Inner, rt::ReplayExecutor>;

  template <typename... Args>
  explicit TracedExecutor(Args &&...A) : E(std::forward<Args>(A)...) {}

  template <typename Ctx> std::vector<WorkItem> rootItems(Ctx &C) {
    return E.rootItems(C);
  }
  template <typename Ctx> void runChain(WorkItem Item, Ctx &C) {
    ChainRec &Rec = Chains.emplace_back();
    TracedCtx<PerCall, Ctx> T(C, Rec);
    Rec.Start = nowNs();
    E.runChain(std::move(Item), T);
    T.close();
    Rec.Dur = nowNs() - Rec.Start;
  }
  search::SavedWorkItem saveItem(const WorkItem &W) const {
    return E.saveItem(W);
  }
  WorkItem loadItem(const search::SavedWorkItem &S) const {
    return E.loadItem(S);
  }

  std::vector<ChainRec> Chains;

private:
  Inner E;
};

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

enum class Form { Rt, Vm, Dist };

struct Check {
  std::string Id;
  Form F = Form::Rt;
  unsigned MaxBound = CliMaxBound;
  /// The bound Table 2 (or the example's header, for kv_server) reports;
  /// -1 for the drains.
  int PaperBound = -1;
  std::function<rt::TestCase()> MakeRt;
  std::function<vm::Program()> MakeVm;
};

bool resolveCheck(const std::string &Id, const posix::TestModule *Module,
                  Check &C, std::string &Err) {
  C.Id = Id;
  if (Id == "dryad-drain") {
    C.MaxBound = DryadMaxBound;
    C.MakeRt = [] {
      return bench::dryadTest({DryadWorkers, DryadItems, bench::DryadBug::None});
    };
    return true;
  }
  if (Id == "dist-bluetooth") {
    C.F = Form::Dist;
    C.MakeVm = [] { return bench::bluetoothModel(BluetoothWorkers, false); };
    return true;
  }
  if (Id == "bug:kv_server") {
    if (!Module) {
      Err = "bug:kv_server needs --module=PATH";
      return false;
    }
    C.MakeRt = [Module] { return posix::moduleTestCase(*Module); };
    C.PaperBound = 1;
    return true;
  }
  size_t Slash = Id.find('/');
  if (Id.rfind("bug:", 0) != 0 || Slash == std::string::npos) {
    Err = "unknown check '" + Id + "'";
    return false;
  }
  const bench::BenchmarkEntry *B = bench::findBenchmark(Id.substr(4, Slash - 4));
  if (B) {
    for (const bench::BugVariant &V : B->Bugs) {
      if (V.Label != Id.substr(Slash + 1))
        continue;
      C.PaperBound = static_cast<int>(V.PaperBound);
      if (V.MakeRt) {
        C.MakeRt = V.MakeRt; // The runtime form wherever one exists.
      } else {
        C.F = Form::Vm;
        C.MakeVm = V.MakeVm;
      }
      return true;
    }
  }
  Err = "unknown bug check '" + Id + "'";
  return false;
}

/// icb_check's limits; a set-up sample stops at its first execution.
search::SearchLimits cliLimits(unsigned MaxBound, bool Setup) {
  search::SearchLimits L;
  L.MaxExecutions = Setup ? 1 : CliMaxExecutions;
  L.MaxPreemptionBound = MaxBound;
  L.StopAtFirstBug = true;
  return L;
}

std::unique_ptr<search::BoundPolicy> cliPolicy(unsigned MaxBound) {
  return search::makeBoundPolicy({"preemption", MaxBound, 0});
}

/// What one run measured.
struct RunOut {
  search::SearchResult R;
  uint64_t EntryNs = 0, EndNs = 0;
  unsigned Workers = 1;
  std::vector<const std::vector<ChainRec> *> Spans; ///< Per worker thread.
  std::vector<dist::JoinerStats> Joiners;
  std::vector<int> JoinerRc;
  /// Traced dist runs: each joiner thread's tool::runJoin span.
  std::vector<std::pair<uint64_t, uint64_t>> JoinerSpans;
};

/// Runs the driver the public entry points pick for \p Jobs over \p Jobs
/// fresh traced executors, kept in \p Keep so their spans outlive the run.
template <typename Inner, typename MakeInner>
search::SearchResult runTraced(unsigned Jobs, search::IcbEngineOptions EO,
                               MakeInner Make, RunOut &Out,
                               std::vector<std::unique_ptr<
                                   TracedExecutor<Inner>>> &Keep) {
  for (unsigned I = 0; I != Jobs; ++I)
    Keep.push_back(Make());
  for (auto &E : Keep)
    Out.Spans.push_back(&E->Chains);
  if (Jobs == 1)
    return search::runSequentialIcbEngine(*Keep[0], EO);
  return search::runParallelIcbEngine(Keep, EO);
}

struct Args {
  std::string Check, Mode = "timed", Module, SpansPath;
  unsigned Jobs = 1, Joiners = 3;
  std::vector<unsigned> Order;
};

int runLocal(const Check &C, const Args &A, BenchObserver &Obs,
             obs::MetricsRegistry *Reg, RunOut &Out,
             std::vector<std::unique_ptr<TracedExecutor<rt::ReplayExecutor>>>
                 &KeepRt,
             std::vector<std::unique_ptr<TracedExecutor<search::VmExecutor>>>
                 &KeepVm) {
  bool Traced = A.Mode == "traced";
  unsigned Jobs = A.Mode == "reference" ? 1 : A.Jobs;
  Out.Workers = Jobs;
  auto Policy = cliPolicy(C.MaxBound);
  const search::SearchLimits Limits =
      cliLimits(C.MaxBound, A.Mode == "setup");
  if (C.F == Form::Rt) {
    const rt::TestCase Test = C.MakeRt();
    rt::Scheduler::Options Exec;
    Exec.Detector = rt::DetectorKind::VectorClock;
    Out.EntryNs = nowNs();
    if (Traced) {
      search::IcbEngineOptions EO;
      EO.Limits = Limits;
      EO.Policy = Policy.get();
      EO.CanonicalBugs = true; // As rt::IcbExplorer sets it.
      EO.Observer = &Obs;
      EO.Metrics = Reg;
      Out.R = runTraced<rt::ReplayExecutor>(
          Jobs, EO,
          [&] {
            return std::make_unique<TracedExecutor<rt::ReplayExecutor>>(
                Test, Exec, /*Por=*/true);
          },
          Out, KeepRt);
    } else {
      rt::ExploreOptions O;
      O.Limits = Limits;
      O.Policy = Policy.get();
      O.Jobs = Jobs;
      O.Por = true;
      O.Exec = Exec;
      O.Observer = &Obs;
      O.Metrics = Reg;
      Out.R = rt::IcbExplorer(O).explore(Test);
    }
    Out.EndNs = nowNs();
    return 0;
  }

  const vm::Program Prog = C.MakeVm();
  Out.EntryNs = nowNs();
  if (Traced) {
    const vm::Interp Interp(Prog);
    search::IcbEngineOptions EO;
    EO.Limits = Limits;
    EO.Policy = Policy.get();
    // As search::IcbSearch / ParallelIcbSearch set it for a local run.
    EO.CanonicalBugs = Jobs != 1;
    EO.Observer = &Obs;
    EO.Metrics = Reg;
    search::VmExecutor::Options VO;
    VO.UseSleepSets = true;
    Out.R = runTraced<search::VmExecutor>(
        Jobs, EO,
        [&] {
          return std::make_unique<TracedExecutor<search::VmExecutor>>(Interp,
                                                                      VO);
        },
        Out, KeepVm);
  } else {
    search::SearchOptions O;
    O.Kind = search::StrategyKind::Icb;
    O.Policy = Policy.get();
    O.Jobs = Jobs;
    O.UseSleepSets = true;
    O.Limits = Limits;
    O.Observer = &Obs;
    O.Metrics = Reg;
    Out.R = search::checkProgram(Prog, O);
  }
  Out.EndNs = nowNs();
  return 0;
}

/// The distributed check: the coordinator as `icb_check --serve` sets it
/// up, and the joiners as `icb_check --join --jobs 1` runs them, over
/// loopback in this process.
int runDist(const Check &C, const Args &A, BenchObserver &Obs,
            obs::MetricsRegistry *Reg, RunOut &Out) {
  tool::RunConfig Cfg;
  Cfg.MaxBound = C.MaxBound;
  tool::SessionState SS;
  SS.Benchmark = BluetoothName;
  SS.Bug = "default";
  auto Policy = cliPolicy(C.MaxBound);

  dist::CoordinatorOptions CO;
  CO.Bind = "127.0.0.1:0";
  CO.Meta = tool::makeRunMeta(SS, Cfg, "vm");
  CO.Limits = cliLimits(C.MaxBound, false);
  CO.FrontierBound = Policy->frontierBound();
  CO.LeaseItems = CliLeaseItems;
  CO.Observer = &Obs;
  CO.Metrics = Reg;

  Out.EntryNs = nowNs();
  auto Coord = std::make_unique<dist::Coordinator>(CO);
  std::string Err;
  if (!Coord->start(&Err)) {
    std::fprintf(stderr, "icb_perf: coordinator: %s\n", Err.c_str());
    return 2;
  }
  const std::string Addr = "127.0.0.1:" + std::to_string(Coord->port());
  tool::DistResolver Resolve =
      [&C](const session::CheckpointMeta &Meta,
           std::function<rt::TestCase()> &,
           std::function<vm::Program()> &MakeVm, std::string *Error) {
        if (Meta.Benchmark != BluetoothName) {
          *Error = "unexpected benchmark '" + Meta.Benchmark + "'";
          return false;
        }
        MakeVm = C.MakeVm;
        return true;
      };

  const bool Traced = A.Mode == "traced";
  Out.Workers = A.Joiners;
  Out.JoinerRc.assign(A.Joiners, -1);
  Out.JoinerSpans.assign(Traced ? A.Joiners : 0, {0, 0});
  std::vector<std::thread> Joiners;
  for (unsigned I : A.Order)
    Joiners.emplace_back([&Out, &Addr, &Resolve, Traced, I] {
      uint64_t Start = Traced ? nowNs() : 0;
      Out.JoinerRc[I] = tool::runJoin(Addr, 1, 0, Resolve);
      if (Traced)
        Out.JoinerSpans[I] = {Start, nowNs()};
    });
  Out.R = Coord->run();
  Out.EndNs = nowNs();
  Out.Joiners = Coord->joinerStats();
  // Close the listening socket before waiting for the joiners: one still
  // reconnecting after a revoked lease is then refused (and gives up after
  // its backoff) instead of waiting on a hello nobody will answer.
  Coord.reset();
  for (std::thread &T : Joiners)
    T.join();
  return 0;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

std::string countsJson(const search::SearchResult &R,
                       const obs::MetricsSnapshot *M) {
  JsonOut J;
  J.num("executions", R.Stats.Executions)
      .num("steps", R.Stats.TotalSteps)
      .num("states", R.Stats.DistinctStates)
      .num("terminal", R.Stats.DistinctTerminalStates)
      .num("completed", R.Stats.Completed ? 1 : 0);
  std::vector<std::string> PerBound, Bugs;
  for (const search::BoundCoverage &B : R.Stats.PerBound)
    PerBound.push_back(std::to_string(B.Executions));
  J.raw("per_bound_executions", jsonArray(PerBound));
  for (const search::Bug &B : R.Bugs)
    Bugs.push_back(JsonOut()
                       .str("kind", search::bugKindName(B.Kind))
                       .num("bound", B.Preemptions)
                       .done());
  J.raw("bugs", jsonArray(Bugs));
  if (M && !M->Counters.empty())
    for (size_t I = 0; I != obs::NumCounters; ++I)
      if (obs::counterIsDeterministic(static_cast<obs::Counter>(I)))
        J.num(obs::counterName(static_cast<obs::Counter>(I)), M->Counters[I]);
  return J.done();
}

std::string registryJson(const obs::MetricsSnapshot &M) {
  JsonOut J;
  JsonOut Counters, Phases;
  for (size_t I = 0; I != M.Counters.size(); ++I)
    Counters.num(obs::counterName(static_cast<obs::Counter>(I)),
                 M.Counters[I]);
  for (size_t I = 0; I != M.Phases.size(); ++I) {
    std::vector<std::string> Hist;
    if (I < M.PhaseHist.size())
      for (uint64_t B : M.PhaseHist[I].buckets())
        Hist.push_back(std::to_string(B));
    Phases.raw(obs::phaseName(static_cast<obs::Phase>(I)),
               JsonOut()
                   .num("count", M.Phases[I].count())
                   .num("sum_ns", M.Phases[I].sum())
                   .raw("log2_hist", jsonArray(Hist))
                   .done());
  }
  uint64_t Busy = 0, Idle = 0;
  for (const obs::WorkerMetrics &W : M.Workers) {
    Busy += W.BusyNanos;
    Idle += W.IdleNanos;
  }
  J.raw("counters", Counters.done())
      .raw("phases", Phases.done())
      .num("replay_depth_count", M.ReplayDepth.count())
      .num("replay_depth_sum", M.ReplayDepth.sum())
      .num("busy_ns", Busy)
      .num("idle_ns", Idle);
  return J.done();
}

std::string traceJson(const RunOut &Out, const BenchObserver &Obs,
                      const std::string &SpansPath, std::string &Err) {
  JsonOut J;
  uint64_t ChainNs = 0, Ns[NumCats] = {}, Calls[NumCats] = {};
  std::FILE *F = nullptr;
  if (!SpansPath.empty()) {
    F = std::fopen(SpansPath.c_str(), "w");
    if (!F) {
      Err = "cannot write " + SpansPath;
      return "";
    }
    std::fprintf(F, "thread\tchain\tstart_ns\tdur_ns\tprobe_ns\tpublish_ns\t"
                    "account_ns\tprobes\tpublishes\taccounts\n");
  }
  for (size_t T = 0; T != Out.Spans.size(); ++T) {
    const std::vector<ChainRec> &V = *Out.Spans[T];
    for (size_t I = 0; I != V.size(); ++I) {
      const ChainRec &R = V[I];
      ChainNs += R.Dur;
      for (unsigned K = 0; K != NumCats; ++K) {
        Ns[K] += R.Ns[K];
        Calls[K] += R.Calls[K];
      }
      if (F)
        std::fprintf(F,
                     "%zu\t%zu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t"
                     "%llu\n",
                     T, I, (unsigned long long)(R.Start - Out.EntryNs),
                     (unsigned long long)R.Dur,
                     (unsigned long long)R.Ns[Probe],
                     (unsigned long long)R.Ns[Publish],
                     (unsigned long long)R.Ns[Account],
                     (unsigned long long)R.Calls[Probe],
                     (unsigned long long)R.Calls[Publish],
                     (unsigned long long)R.Calls[Account]);
    }
  }
  if (F && std::fclose(F) != 0) {
    Err = "cannot write " + SpansPath;
    return "";
  }
  std::vector<std::string> Marks, Joiners, JoinerSpans;
  for (const auto &M : Obs.BoundMarks)
    Marks.push_back(JsonOut()
                        .num("bound", M.first)
                        .num("t_ns", M.second - Out.EntryNs)
                        .done());
  // A joiner stranded after the verdict (see main) ends past the run; only
  // its time up to the verdict counts.
  for (const auto &S : Out.JoinerSpans)
    JoinerSpans.push_back(
        JsonOut()
            .num("dur_ns", std::min(S.second, Out.EndNs) - S.first)
            .done());
  for (const dist::JoinerStats &S : Out.Joiners)
    Joiners.push_back(JsonOut()
                          .num("leases", S.Leases)
                          .num("items", S.Items)
                          .num("executions", S.Executions)
                          .num("steps", S.Steps)
                          .num("revocations", S.Revocations)
                          .num("reconnect", S.Reconnect ? 1 : 0)
                          .done());
  J.num("chain_ns", ChainNs)
      .num("probe_ns", Ns[Probe])
      .num("publish_ns", Ns[Publish])
      .num("account_ns", Ns[Account])
      .num("probes", Calls[Probe])
      .num("publishes", Calls[Publish])
      .num("accounts", Calls[Account])
      .num("frontier_peak_items", Obs.PeakQueued)
      .num("rss_first", Obs.RssFirst)
      .num("rss_at_peak", Obs.RssAtPeak)
      .raw("bound_marks", jsonArray(Marks))
      .raw("joiners", jsonArray(Joiners))
      .raw("joiner_spans", jsonArray(JoinerSpans))
      .raw("codec", JsonOut()
                        .num("frames", Obs.Codec.Frames)
                        .num("items", Obs.Codec.Items)
                        .num("bytes", Obs.Codec.Bytes)
                        .num("encode_ns", Obs.Codec.EncodeNs)
                        .num("decode_ns", Obs.Codec.DecodeNs)
                        .num("errors", Obs.Codec.Errors)
                        .done());
  return J.done();
}

std::string stampJson() {
#ifdef __OPTIMIZE__
  const bool Optimized = true;
#else
  const bool Optimized = false;
#endif
#ifdef ICB_NO_METRICS
  const bool NoMetrics = true;
#else
  const bool NoMetrics = false;
#endif
  return JsonOut()
      .str("compiler", std::string("g++ ") + __VERSION__)
      .str("build_type", ICB_PERF_BUILD_TYPE)
      .num("optimized", Optimized ? 1 : 0)
      .num("icb_no_metrics", NoMetrics ? 1 : 0)
      .done();
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string S = Argv[I];
    size_t Eq = S.find('=');
    std::string Key = S.substr(0, Eq), Val = Eq == S.npos ? "" : S.substr(Eq + 1);
    if (Key == "--check")
      A.Check = Val;
    else if (Key == "--mode")
      A.Mode = Val;
    else if (Key == "--module")
      A.Module = Val;
    else if (Key == "--spans")
      A.SpansPath = Val;
    else if (Key == "--jobs")
      A.Jobs = static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
    else if (Key == "--joiners")
      A.Joiners = static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
    else if (Key == "--order") {
      for (size_t P = 0; P < Val.size();) {
        size_t Comma = Val.find(',', P);
        A.Order.push_back(static_cast<unsigned>(
            std::strtoul(Val.substr(P, Comma - P).c_str(), nullptr, 10)));
        P = Comma == Val.npos ? Val.size() : Comma + 1;
      }
    } else {
      std::fprintf(stderr, "icb_perf: unknown argument '%s'\n", S.c_str());
      return false;
    }
  }
  if (A.Order.empty())
    for (unsigned I = 0; I != A.Joiners; ++I)
      A.Order.push_back(I);
  std::vector<bool> Seen(A.Joiners, false);
  for (unsigned I : A.Order) {
    if (I >= A.Joiners || Seen[I]) {
      std::fprintf(stderr, "icb_perf: --order must permute 0..%u\n",
                   A.Joiners - 1);
      return false;
    }
    Seen[I] = true;
  }
  if (A.Order.size() != A.Joiners || A.Jobs == 0 || A.Joiners == 0) {
    std::fprintf(stderr, "icb_perf: bad --jobs/--joiners/--order\n");
    return false;
  }
  static const char *Modes[] = {"timed",     "bare",  "setup", "traced",
                                "reference", "stamp"};
  for (const char *M : Modes)
    if (A.Mode == M)
      return A.Mode == "stamp" || !A.Check.empty();
  std::fprintf(stderr, "icb_perf: unknown --mode '%s'\n", A.Mode.c_str());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  const uint64_t StartNs = nowNs();
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: icb_perf --check=ID "
                 "[--mode=timed|bare|setup|traced|reference|stamp] "
                 "[--jobs=N] "
                 "[--joiners=N --order=I,J,..] [--module=PATH] "
                 "[--spans=PATH]\n");
    return 2;
  }
  if (A.Mode == "stamp") {
    std::printf("%s\n", stampJson().c_str());
    return 0;
  }

  posix::TestModule Module;
  if (!A.Module.empty()) {
    std::string Err;
    if (!posix::loadTestModule(A.Module, Module, Err)) {
      std::fprintf(stderr, "icb_perf: %s\n", Err.c_str());
      return 2;
    }
  }
  Check C;
  std::string Err;
  if (!resolveCheck(A.Check, A.Module.empty() ? nullptr : &Module, C, Err)) {
    std::fprintf(stderr, "icb_perf: %s\n", Err.c_str());
    return 2;
  }
  if (A.Mode == "setup" && C.F == Form::Dist) {
    // Stopping a coordinator early strands the joiners that are
    // reconnecting after a revoked lease.
    std::fprintf(stderr, "icb_perf: --mode=setup is for local checks\n");
    return 2;
  }

  const bool Traced = A.Mode == "traced";
  BenchObserver Obs(Traced);
  obs::MetricsRegistry Reg;
  obs::MetricsRegistry *RegPtr = A.Mode == "bare" ? nullptr : &Reg;
  RunOut Out;
  std::vector<std::unique_ptr<TracedExecutor<rt::ReplayExecutor>>> KeepRt;
  std::vector<std::unique_ptr<TracedExecutor<search::VmExecutor>>> KeepVm;

  int Rc;
  if (C.F == Form::Dist && A.Mode != "reference") {
    Rc = runDist(C, A, Obs, RegPtr, Out);
  } else {
    if (C.F == Form::Dist)
      C.F = Form::Vm; // The deterministic half of a distributed run.
    Rc = runLocal(C, A, Obs, RegPtr, Out, KeepRt, KeepVm);
  }
  if (Rc != 0)
    return Rc;
  // The coordinator hands a joiner its next lease as it merges a result,
  // then revokes it when the joiner's own need_work arrives; the joiner
  // reconnects. One still reconnecting when the run ends finds the
  // coordinator gone and gives up with exit 4 after the verdict is in.
  // That is counted (stranded_joiners), not failed; any other nonzero exit
  // is a failure.
  uint64_t Stranded = 0;
  for (int JRc : Out.JoinerRc) {
    if (JRc == dist::WorkerNetFail) {
      ++Stranded;
    } else if (JRc != 0) {
      std::fprintf(stderr, "icb_perf: a joiner exited with %d\n", JRc);
      return 1;
    }
  }

  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  obs::MetricsSnapshot Snap;
  if (RegPtr)
    Snap = Reg.snapshot();

  JsonOut J;
  J.str("check", C.Id)
      .str("mode", A.Mode)
      .str("form", C.F == Form::Rt ? "rt" : C.F == Form::Vm ? "vm" : "dist")
      .raw("paper_bound", std::to_string(C.PaperBound))
      .num("workers", Out.Workers)
      .num("start_ns", StartNs)
      .num("entry_ns", Out.EntryNs)
      .num("first_exec_ns", Obs.FirstExecNs.load())
      .num("end_ns", Out.EndNs)
      .num("stranded_joiners", Stranded)
      .num("maxrss_kb", static_cast<uint64_t>(Usage.ru_maxrss))
      .real("utime_s", Secs(Usage.ru_utime))
      .real("stime_s", Secs(Usage.ru_stime))
      .raw("counts", countsJson(Out.R, RegPtr ? &Snap : nullptr));
  if (RegPtr)
    J.raw("registry", registryJson(Snap));
  if (Traced) {
    std::string Trace = traceJson(Out, Obs, A.SpansPath, Err);
    if (Trace.empty()) {
      std::fprintf(stderr, "icb_perf: %s\n", Err.c_str());
      return 4;
    }
    J.raw("trace", Trace);
  }
  std::printf("%s\n", J.done().c_str());
  return 0;
}
