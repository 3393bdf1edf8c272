//===- bench/parallel_scaling.cpp - Parallel ICB speedup harness ----------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the parallel ICB engine's wall-clock speedup over the
/// sequential reference as the worker count grows, for both executors:
/// the model-VM engine on the model-form benchmarks and the stateless
/// (CHESS-side) engine replaying schedule prefixes on the fiber runtime.
/// Every configuration must report identical executions/steps/states —
/// the engine's determinism guarantee — so the harness fails loudly if
/// any run diverges from its jobs=1 reference.
///
/// Emits a human-readable table plus a machine-readable JSON block
/// (between BEGIN/END JSON markers) with one record per (engine,
/// benchmark, jobs) triple: wall microseconds, speedup vs jobs=1 (in
/// thousandths), executions/steps/states, and hardware concurrency so plots can
/// annotate core counts. Speedup is bounded by the physical core count:
/// on a single-core container every configuration necessarily measures
/// ~1.0x.
///
/// `--dist` switches to the distributed service instead: an in-process
/// coordinator on a loopback ephemeral port with 1/2/4 joiner threads,
/// each joiner running the same lease runner the CLI's --join plugs in.
/// The merged result must match the local sequential run exactly — the
/// subsystem's determinism contract — and the JSON block is named
/// dist_scaling (the CI distributed job archives it as BENCH_dist.json).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Bluetooth.h"
#include "benchmarks/BluetoothModel.h"
#include "benchmarks/WorkStealingQueue.h"
#include "benchmarks/WsqModel.h"
#include "dist/Coordinator.h"
#include "dist/Worker.h"
#include "rt/Explore.h"
#include "search/BoundPolicy.h"
#include "search/Checker.h"
#include "search/IcbSearch.h"
#include "session/Json.h"
#include "support/Format.h"
#include "vm/Interp.h"
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace icb;
using namespace icb::bench;
using namespace icb::benchutil;

namespace {

struct Sample {
  std::string Engine;
  std::string Benchmark;
  unsigned Jobs = 0;
  double Seconds = 0;
  double Speedup = 0;
  search::SearchStats Stats;
};

double runModelOnce(const vm::Program &Prog, unsigned Jobs, unsigned MaxBound,
                    search::SearchStats *Out) {
  search::IcbSearch::Options Opts;
  Opts.Jobs = Jobs;
  Opts.UseStateCache = true;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  search::IcbSearch Search(Opts);
  vm::Interp VM(Prog);
  auto Start = std::chrono::steady_clock::now();
  search::SearchResult R = Search.run(VM);
  auto End = std::chrono::steady_clock::now();
  if (Out)
    *Out = R.Stats;
  return std::chrono::duration<double>(End - Start).count();
}

double runStatelessOnce(const rt::TestCase &Test, unsigned Jobs,
                        unsigned MaxBound, search::SearchStats *Out) {
  rt::ExploreOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Limits.StopAtFirstBug = false;
  rt::IcbExplorer Icb(Opts);
  auto Start = std::chrono::steady_clock::now();
  rt::ExploreResult R = Icb.explore(Test);
  auto End = std::chrono::steady_clock::now();
  if (Out)
    *Out = R.Stats;
  return std::chrono::duration<double>(End - Start).count();
}

/// One timed (engine, benchmark) scaling series: per job count, best of
/// three repetitions, divergence-checked against the jobs=1 reference.
struct Series {
  std::string Engine;
  std::string Name;
  std::function<double(unsigned, search::SearchStats *)> Run;
};

//===----------------------------------------------------------------------===//
// --dist: loopback coordinator/joiner scaling
//===----------------------------------------------------------------------===//

/// The model-VM lease runner the CLI's --join plugs in (see
/// tools/common/DistDrive.cpp): fresh policy, caches, and metrics
/// registry per lease.
dist::LeaseRunner distRunner(const vm::Program &Prog, unsigned MaxBound) {
  return [&Prog, MaxBound](const dist::LeaseRequest &Req) {
    obs::MetricsRegistry Reg;
    std::unique_ptr<search::BoundPolicy> Policy =
        search::makeBoundPolicy({"preemption", MaxBound, 0});
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
    O.Jobs = 1;
    O.Resume = Resume;
    O.Metrics = &Reg;
    O.Lease =
        Req.Roots ? search::LeaseMode::Roots : search::LeaseMode::Drain;
    search::SearchResult R = search::checkProgram(Prog, O);

    dist::LeaseResult Res;
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

/// One coordinator + \p Joiners worker threads over loopback; returns
/// wall seconds for the whole merged run.
double runDistOnce(const vm::Program &Prog, unsigned MaxBound,
                   unsigned Joiners, search::SearchStats *Out) {
  dist::CoordinatorOptions CO;
  CO.Bind = "127.0.0.1:0";
  CO.Meta.Benchmark = "bench";
  CO.Meta.Bug = "default";
  CO.Meta.Form = "vm";
  CO.Meta.Strategy = "icb";
  CO.Meta.Bound = "preemption";
  CO.Meta.Limits.MaxPreemptionBound = MaxBound;
  CO.FrontierBound = MaxBound;
  dist::Coordinator Coord(CO);
  std::string Err;
  if (!Coord.start(&Err)) {
    std::fprintf(stderr, "FAIL: coordinator bind: %s\n", Err.c_str());
    return -1;
  }
  uint16_t Port = Coord.port();

  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Joiners; ++I)
    Threads.emplace_back([&Prog, MaxBound, Port] {
      dist::WorkerOptions WO;
      WO.Connect = "127.0.0.1:" + std::to_string(Port);
      WO.Runner = distRunner(Prog, MaxBound);
      dist::Worker W(WO);
      W.run();
    });
  search::SearchResult R = Coord.run();
  auto End = std::chrono::steady_clock::now();
  for (std::thread &T : Threads)
    T.join();
  if (Out)
    *Out = R.Stats;
  return std::chrono::duration<double>(End - Start).count();
}

int runDistScaling() {
  const unsigned Hardware = std::thread::hardware_concurrency();
  printHeader("Distributed ICB scaling",
              strFormat("loopback coordinator + joiner threads; hardware "
                        "concurrency %u",
                        Hardware ? Hardware : 1));

  struct DistCase {
    const char *Name;
    vm::Program Prog;
    unsigned MaxBound;
  };
  const DistCase Cases[] = {
      {"wsq-model", wsqModel({3, WsqBug::None}), 3},
      {"bluetooth-model", bluetoothModel(3, /*WithBug=*/false), 4},
  };
  const unsigned JoinerCounts[] = {1, 2, 4};

  std::vector<std::vector<std::string>> Rows;
  session::JsonValue SampleArr = session::JsonValue::array();
  bool Deterministic = true;
  for (const DistCase &C : Cases) {
    // The local sequential run every merged result must reproduce.
    std::unique_ptr<search::BoundPolicy> Policy =
        search::makeBoundPolicy({"preemption", C.MaxBound, 0});
    search::SearchOptions O;
    O.Kind = search::StrategyKind::Icb;
    O.Policy = Policy.get();
    O.Jobs = 1;
    auto Start = std::chrono::steady_clock::now();
    search::SearchResult Ref = search::checkProgram(C.Prog, O);
    auto End = std::chrono::steady_clock::now();
    double Baseline = std::chrono::duration<double>(End - Start).count();
    Rows.push_back({C.Name, "local", "1",
                    strFormat("%.3f", Baseline), "1.00x",
                    withCommas(Ref.Stats.Executions),
                    withCommas(Ref.Stats.TotalSteps),
                    withCommas(Ref.Stats.DistinctStates)});

    for (unsigned Joiners : JoinerCounts) {
      // Best of two repetitions; the run is socket-bound enough that a
      // third adds wall time without steadying the numbers further.
      search::SearchStats Stats;
      double Seconds = runDistOnce(C.Prog, C.MaxBound, Joiners, &Stats);
      Seconds = std::min(Seconds,
                         runDistOnce(C.Prog, C.MaxBound, Joiners, nullptr));
      if (Stats.Executions != Ref.Stats.Executions ||
          Stats.TotalSteps != Ref.Stats.TotalSteps ||
          Stats.DistinctStates != Ref.Stats.DistinctStates) {
        std::fprintf(stderr,
                     "FAIL: %s with %u joiners diverged from the local "
                     "sequential run\n",
                     C.Name, Joiners);
        Deterministic = false;
      }
      double Speedup = Seconds > 0 ? Baseline / Seconds : 0;
      Rows.push_back({C.Name, "dist", std::to_string(Joiners),
                      strFormat("%.3f", Seconds),
                      strFormat("%.2fx", Speedup),
                      withCommas(Stats.Executions),
                      withCommas(Stats.TotalSteps),
                      withCommas(Stats.DistinctStates)});

      session::JsonValue Rec = session::JsonValue::object();
      Rec.set("benchmark", session::JsonValue::str(C.Name));
      Rec.set("joiners", session::JsonValue::number(Joiners));
      Rec.set("seconds_us",
              session::JsonValue::number(scaledU64(Seconds, 1e6)));
      Rec.set("baseline_us",
              session::JsonValue::number(scaledU64(Baseline, 1e6)));
      Rec.set("speedup_milli",
              session::JsonValue::number(scaledU64(Speedup, 1e3)));
      Rec.set("executions", session::JsonValue::number(Stats.Executions));
      Rec.set("steps", session::JsonValue::number(Stats.TotalSteps));
      Rec.set("states", session::JsonValue::number(Stats.DistinctStates));
      Rec.set("deterministic",
              session::JsonValue::boolean(
                  Stats.Executions == Ref.Stats.Executions &&
                  Stats.TotalSteps == Ref.Stats.TotalSteps &&
                  Stats.DistinctStates == Ref.Stats.DistinctStates));
      SampleArr.Arr.push_back(std::move(Rec));
    }
  }

  printTable({"benchmark", "mode", "joiners", "seconds", "speedup",
              "executions", "steps", "states"},
             Rows);

  session::JsonValue Doc = session::JsonValue::object();
  Doc.set("hardware_concurrency", session::JsonValue::number(Hardware));
  Doc.set("samples", std::move(SampleArr));
  printJsonBlock("dist_scaling", Doc);

  std::string Error;
  if (!session::atomicWriteFile("BENCH_dist.json", session::jsonWrite(Doc),
                                &Error)) {
    std::fprintf(stderr, "failed to write BENCH_dist.json: %s\n",
                 Error.c_str());
    return 1;
  }
  std::printf("wrote BENCH_dist.json\n");

  return Deterministic ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--dist") == 0)
      return runDistScaling();

  const unsigned Hardware = std::thread::hardware_concurrency();
  printHeader("Parallel ICB scaling",
              strFormat("speedup vs worker count; hardware concurrency %u",
                        Hardware ? Hardware : 1));

  const vm::Program WsqProg = wsqModel({3, WsqBug::None});
  const vm::Program BtProg = bluetoothModel(3, /*WithBug=*/false);
  const rt::TestCase WsqTest = workStealingTest({3, 4, WsqBug::None});
  const rt::TestCase BtTest = bluetoothTest({2, /*WithBug=*/false});

  const Series AllSeries[] = {
      {"model", "wsq-model",
       [&](unsigned Jobs, search::SearchStats *Out) {
         return runModelOnce(WsqProg, Jobs, 3, Out);
       }},
      {"model", "bluetooth-model",
       [&](unsigned Jobs, search::SearchStats *Out) {
         return runModelOnce(BtProg, Jobs, 4, Out);
       }},
      {"stateless", "wsq-rt",
       [&](unsigned Jobs, search::SearchStats *Out) {
         return runStatelessOnce(WsqTest, Jobs, 2, Out);
       }},
      {"stateless", "bluetooth-rt",
       [&](unsigned Jobs, search::SearchStats *Out) {
         return runStatelessOnce(BtTest, Jobs, 2, Out);
       }},
  };
  const unsigned JobCounts[] = {1, 2, 4, 8};

  std::vector<Sample> Samples;
  std::vector<std::vector<std::string>> Rows;
  bool Deterministic = true;
  for (const Series &W : AllSeries) {
    // One untimed warm-up run per workload primes allocator arenas (and,
    // for the stateless engine, fiber stack pools) so the jobs=1 baseline
    // is not penalized for first-touch page faults.
    W.Run(1, nullptr);
    double Baseline = 0;
    search::SearchStats Reference;
    for (unsigned Jobs : JobCounts) {
      Sample S;
      S.Engine = W.Engine;
      S.Benchmark = W.Name;
      S.Jobs = Jobs;
      // Best of three repetitions smooths scheduler noise.
      S.Seconds = W.Run(Jobs, &S.Stats);
      for (int Rep = 0; Rep != 2; ++Rep)
        S.Seconds = std::min(S.Seconds, W.Run(Jobs, nullptr));
      if (Jobs == 1) {
        Baseline = S.Seconds;
        Reference = S.Stats;
      } else if (S.Stats.Executions != Reference.Executions ||
                 S.Stats.TotalSteps != Reference.TotalSteps ||
                 S.Stats.DistinctStates != Reference.DistinctStates) {
        std::fprintf(stderr,
                     "FAIL: %s %s with %u jobs diverged from jobs=1\n",
                     W.Engine.c_str(), W.Name.c_str(), Jobs);
        Deterministic = false;
      }
      S.Speedup = S.Seconds > 0 ? Baseline / S.Seconds : 0;
      Rows.push_back({W.Engine, W.Name, std::to_string(Jobs),
                      strFormat("%.3f", S.Seconds),
                      strFormat("%.2fx", S.Speedup),
                      withCommas(S.Stats.Executions),
                      withCommas(S.Stats.TotalSteps),
                      withCommas(S.Stats.DistinctStates)});
      Samples.push_back(std::move(S));
    }
  }

  printTable({"engine", "benchmark", "jobs", "seconds", "speedup",
              "executions", "steps", "states"},
             Rows);

  // Machine-readable block via the session JSON writer. Session JSON
  // numbers are unsigned integers, so fractional measurements are scaled:
  // seconds_us is wall time in microseconds, speedup_milli is speedup
  // times 1000.
  session::JsonValue Doc = session::JsonValue::object();
  Doc.set("hardware_concurrency", session::JsonValue::number(Hardware));
  session::JsonValue SampleArr = session::JsonValue::array();
  for (const Sample &S : Samples) {
    session::JsonValue Rec = session::JsonValue::object();
    Rec.set("engine", session::JsonValue::str(S.Engine));
    Rec.set("benchmark", session::JsonValue::str(S.Benchmark));
    Rec.set("jobs", session::JsonValue::number(S.Jobs));
    Rec.set("seconds_us", session::JsonValue::number(scaledU64(S.Seconds, 1e6)));
    Rec.set("speedup_milli",
            session::JsonValue::number(scaledU64(S.Speedup, 1e3)));
    Rec.set("executions", session::JsonValue::number(S.Stats.Executions));
    Rec.set("steps", session::JsonValue::number(S.Stats.TotalSteps));
    Rec.set("states", session::JsonValue::number(S.Stats.DistinctStates));
    SampleArr.Arr.push_back(std::move(Rec));
  }
  Doc.set("samples", std::move(SampleArr));
  printJsonBlock("parallel_scaling", Doc);

  return Deterministic ? 0 : 1;
}
