//===- bench/micro_benchmarks.cpp - Substrate microbenchmarks --------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the hot substrate paths: the model
/// VM's step loop, state hashing, fiber context switching, full controlled
/// executions, the happens-before tracker (fingerprint and race check) and
/// the Goldilocks detector.
/// These set expectations for how many executions per second the
/// experiment harnesses can explore.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/WorkStealingQueue.h"
#include "race/Goldilocks.h"
#include "race/HbTracker.h"
#include "rt/Explore.h"
#include "rt/Fiber.h"
#include "testutil/TestPrograms.h"
#include "vm/Interp.h"
#include <benchmark/benchmark.h>

using namespace icb;

namespace {

void BM_VmStep(benchmark::State &State) {
  vm::Program Prog = testutil::eventPingPong(50);
  vm::Interp VM(Prog);
  vm::State S0 = VM.initialState();
  uint64_t Steps = 0;
  for (auto _ : State) {
    vm::State S = S0;
    while (true) {
      std::vector<vm::ThreadId> Enabled = VM.enabledThreads(S);
      if (Enabled.empty())
        break;
      VM.step(S, Enabled.front());
      ++Steps;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}
BENCHMARK(BM_VmStep);

void BM_VmStateHash(benchmark::State &State) {
  vm::Program Prog = testutil::racyCounter(4);
  vm::Interp VM(Prog);
  vm::State S = VM.initialState();
  for (auto _ : State)
    benchmark::DoNotOptimize(S.hash());
}
BENCHMARK(BM_VmStateHash);

void BM_VmStateCopy(benchmark::State &State) {
  vm::Program Prog = testutil::racyCounter(4);
  vm::Interp VM(Prog);
  vm::State S = VM.initialState();
  for (auto _ : State) {
    vm::State Copy = S;
    benchmark::DoNotOptimize(&Copy);
  }
}
BENCHMARK(BM_VmStateCopy);

void BM_FiberSwitch(benchmark::State &State) {
  // Ping-pong between the main context and one looping fiber: two context
  // switches per iteration.
  rt::MachineContext Main;
  rt::Fiber *FibPtr = nullptr;
  rt::Fiber Looper([&FibPtr, &Main] {
    while (true)
      FibPtr->yieldTo(Main);
  });
  FibPtr = &Looper;
  for (auto _ : State)
    Looper.resume(Main);
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

void BM_ControlledExecution(benchmark::State &State) {
  rt::TestCase Test = bench::workStealingTest({3, 4, bench::WsqBug::None});
  rt::Scheduler Sched(rt::Scheduler::Options{});
  for (auto _ : State) {
    rt::NonPreemptivePolicy Policy;
    rt::ExecutionResult R = Sched.run(Test, Policy);
    benchmark::DoNotOptimize(R.Fingerprint);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ControlledExecution);

void BM_HbTracker(benchmark::State &State) {
  // One execution as the scheduler feeds it: clocks 32 threads wide (its
  // thread limit), 64 sync steps and 64 race-checked data steps, each
  // hashed into the digest, and the step digests handed over at the end.
  race::HbTracker Hb(32);
  for (auto _ : State) {
    Hb.startExecution(/*CheckRaces=*/true, /*MS=*/nullptr);
    for (unsigned I = 0; I != 64; ++I) {
      Hb.syncStep(I % 4, 200 + I % 3, static_cast<uint16_t>(I % 5));
      benchmark::DoNotOptimize(Hb.dataStep(I % 4, 100 + I % 5, I % 2));
    }
    benchmark::DoNotOptimize(Hb.takeStepDigests());
  }
  State.SetItemsProcessed(State.iterations() * 128);
}
BENCHMARK(BM_HbTracker);

void BM_GoldilocksDetector(benchmark::State &State) {
  for (auto _ : State) {
    race::GoldilocksDetector D(8);
    for (unsigned I = 0; I != 64; ++I) {
      D.onSyncOp(I % 4, 200 + I % 3);
      benchmark::DoNotOptimize(D.onDataAccess(I % 4, 100 + I % 5, I % 2));
    }
  }
  State.SetItemsProcessed(State.iterations() * 128);
}
BENCHMARK(BM_GoldilocksDetector);

void BM_IcbExploreWsq(benchmark::State &State) {
  // Executions explored per second by the stateless ICB explorer.
  uint64_t Executions = 0;
  for (auto _ : State) {
    rt::ExploreOptions Opts;
    Opts.Limits.MaxExecutions = 200;
    rt::IcbExplorer Icb(Opts);
    rt::ExploreResult R =
        Icb.explore(bench::workStealingTest({3, 4, bench::WsqBug::None}));
    Executions += R.Stats.Executions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Executions));
}
BENCHMARK(BM_IcbExploreWsq);

} // namespace

BENCHMARK_MAIN();
