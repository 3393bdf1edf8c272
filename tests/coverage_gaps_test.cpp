//===- tests/coverage_gaps_test.cpp - Remaining corner coverage ------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Precision tests for corners the module suites do not reach: arithmetic
/// and error paths of the VM interpreter, disassembler formats, scheduler
/// step-text collection, strategy naming, cache behaviour, and the
/// smaller support types.
///
//===----------------------------------------------------------------------===//

#include "rt/Atomic.h"
#include "rt/Explore.h"
#include "rt/Managed.h"
#include "rt/Scheduler.h"
#include "rt/Sync.h"
#include "rt/Thread.h"
#include "search/Checker.h"
#include "search/Dfs.h"
#include "search/ShardedStateCache.h"
#include "support/CommandLine.h"
#include "vm/Builder.h"
#include "vm/Disassembler.h"
#include "vm/Interp.h"
#include <gtest/gtest.h>

using namespace icb;
using namespace icb::vm;

namespace {

//===----------------------------------------------------------------------===//
// VM arithmetic and error paths
//===----------------------------------------------------------------------===//

/// Runs a single-thread program to completion and returns its final state.
State runToEnd(const Program &Prog) {
  Interp VM(Prog);
  State S = VM.initialState();
  while (!VM.enabledThreads(S).empty())
    VM.step(S, VM.enabledThreads(S).front());
  return S;
}

TEST(VmArithmetic, MulModAndComparisons) {
  ProgramBuilder PB("arith");
  GlobalVar Out = PB.addGlobal("out", 0);
  ThreadBuilder &T = PB.addThread("t");
  T.imm(Reg{1}, 7);
  T.imm(Reg{2}, 3);
  T.mul(Reg{3}, Reg{1}, Reg{2});  // 21
  T.mod(Reg{4}, Reg{3}, Reg{2});  // 0
  T.le(Reg{5}, Reg{2}, Reg{1});   // 1
  T.lt(Reg{6}, Reg{1}, Reg{2});   // 0
  T.ne(Reg{7}, Reg{1}, Reg{2});   // 1
  T.bitOr(Reg{8}, Reg{4}, Reg{5}); // 1
  T.bitAnd(Reg{9}, Reg{7}, Reg{8}); // 1
  T.sub(Reg{10}, Reg{3}, Reg{9});  // 20
  T.storeG(Out, Reg{10});
  T.halt();
  State S = runToEnd(PB.build());
  EXPECT_EQ(S.Globals[0], 20);
}

TEST(VmArithmetic, ModByZeroIsModelError) {
  ProgramBuilder PB("modzero");
  GlobalVar G = PB.addGlobal("g", 0);
  ThreadBuilder &T = PB.addThread("t");
  T.loadG(Reg{1}, G); // Shared access so the error occurs inside step().
  T.imm(Reg{2}, 0);
  T.mod(Reg{3}, Reg{1}, Reg{2});
  T.halt();
  Program Prog = PB.build();
  Interp VM(Prog);
  State S = VM.initialState();
  StepResult R = VM.step(S, 0);
  EXPECT_EQ(R.Status, StepStatus::ModelError);
  EXPECT_NE(R.ModelErrorText.find("mod by zero"), std::string::npos);
}

TEST(VmValidate, RejectsBadAssertMessageId) {
  Program Prog;
  Prog.Name = "bad-msg";
  Instruction Assert{Op::Assert, 0, 0, 0, 0, /*MsgId=*/5};
  Prog.Threads.push_back(
      {"t", {Assert, Instruction{Op::Halt, 0, 0, 0, 0, 0}}});
  EXPECT_NE(Prog.validate(), "");
}

TEST(VmValidate, RejectsBadJoinTarget) {
  Program Prog;
  Prog.Name = "bad-join";
  Prog.Threads.push_back(
      {"t",
       {Instruction{Op::Join, 7, 0, 0, 0, 0},
        Instruction{Op::Halt, 0, 0, 0, 0, 0}}});
  EXPECT_NE(Prog.validate(), "");
}

TEST(VmValidate, RejectsEmptyProgram) {
  Program Prog;
  Prog.Name = "empty";
  EXPECT_NE(Prog.validate(), "");
}

TEST(VmDisassembler, RendersAtomicsAndEvents) {
  ProgramBuilder PB("disasm");
  GlobalVar G = PB.addGlobal("g", 0);
  EventVar E = PB.addEvent("evt", /*ManualReset=*/true, /*InitiallySet=*/true);
  SemVar Sem = PB.addSemaphore("sem", 2);
  ThreadBuilder &T = PB.addThread("t");
  T.imm(Reg{1}, 1);
  T.casG(Reg{0}, G, Reg{1}, Reg{2});
  T.xchgG(Reg{3}, G, Reg{1});
  T.addG(Reg{4}, G, Reg{1});
  T.resetE(E);
  T.semV(Sem);
  T.halt();
  Program Prog = PB.build();
  std::string Text = disassembleProgram(Prog);
  EXPECT_NE(Text.find("casg r0, g, r1, r2"), std::string::npos);
  EXPECT_NE(Text.find("xchgg r3, g, r1"), std::string::npos);
  EXPECT_NE(Text.find("addg r4, g, r1"), std::string::npos);
  EXPECT_NE(Text.find("resete evt"), std::string::npos);
  EXPECT_NE(Text.find("semv sem"), std::string::npos);
  EXPECT_NE(Text.find("event evt manual-reset (initially set)"),
            std::string::npos);
  EXPECT_NE(Text.find("semaphore sem = 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Search odds and ends
//===----------------------------------------------------------------------===//

TEST(StrategyNames, AreStable) {
  using namespace icb::search;
  SearchOptions Opts;
  Opts.Kind = StrategyKind::Icb;
  EXPECT_EQ(makeStrategy(Opts)->name(), "icb");
  Opts.Kind = StrategyKind::Dfs;
  EXPECT_EQ(makeStrategy(Opts)->name(), "dfs");
  Opts.Kind = StrategyKind::DepthBoundedDfs;
  Opts.DepthBound = 17;
  EXPECT_EQ(makeStrategy(Opts)->name(), "db:17");
  Opts.Kind = StrategyKind::IterativeDfs;
  EXPECT_EQ(makeStrategy(Opts)->name(), "idfs-17");
  Opts.Kind = StrategyKind::Random;
  EXPECT_EQ(makeStrategy(Opts)->name(), "random");
}

TEST(StateCacheTest, InsertAndWorkItems) {
  using icb::search::ShardedStateCache;
  ShardedStateCache Cache;
  EXPECT_TRUE(Cache.insert(42));
  EXPECT_FALSE(Cache.insert(42));
  EXPECT_TRUE(Cache.contains(42));
  EXPECT_FALSE(Cache.contains(43));
  EXPECT_TRUE(Cache.insertWorkItem(42, 1));
  EXPECT_FALSE(Cache.insertWorkItem(42, 1));
  EXPECT_TRUE(Cache.insertWorkItem(42, 2)); // Different thread: new item.
  EXPECT_EQ(Cache.size(), 3u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Runtime odds and ends
//===----------------------------------------------------------------------===//

TEST(RtStepText, CollectedWhenRequested) {
  using namespace icb::rt;
  Scheduler::Options Opts;
  Opts.CollectStepText = true;
  TestCase Test{"steptext", [] {
    Mutex M("protectMe");
    M.lock();
    M.unlock();
  }};
  Scheduler S(Opts);
  NonPreemptivePolicy Policy;
  ExecutionResult R = S.run(Test, Policy);
  ASSERT_EQ(R.Status, RunStatus::Terminated);
  ASSERT_EQ(R.StepText.size(), R.Steps);
  bool SawLock = false;
  for (const std::string &Text : R.StepText)
    SawLock |= Text == "lock protectMe";
  EXPECT_TRUE(SawLock);
  EXPECT_EQ(R.StepThreadNames.front(), "main");
}

TEST(RtTryLock, FailsWhenHeldByAnotherThread) {
  using namespace icb::rt;
  TestCase Test{"trylock-contended", [] {
    Mutex M("m");
    Event Locked("locked");
    Event Done("done");
    Thread Holder(
        [&] {
          M.lock();
          Locked.set();
          Done.wait();
          M.unlock();
        },
        "holder");
    Locked.wait();
    testAssert(!M.tryLock(), "tryLock must fail while held elsewhere");
    Done.set();
    Holder.join();
  }};
  Scheduler S{Scheduler::Options{}};
  NonPreemptivePolicy Policy;
  EXPECT_EQ(S.run(Test, Policy).Status, RunStatus::Terminated);
}

TEST(RtManaged, AliveReflectsDestroy) {
  using namespace icb::rt;
  TestCase Test{"alive", [] {
    ManagedPtr<int> P = makeManaged<int>("int", 7);
    testAssert(P.alive(), "fresh object is alive");
    testAssert(*P == 7, "value accessible");
    P.destroy();
    testAssert(!P.alive(), "destroyed object is dead");
  }};
  Scheduler S{Scheduler::Options{}};
  NonPreemptivePolicy Policy;
  EXPECT_EQ(S.run(Test, Policy).Status, RunStatus::Terminated);
}

TEST(RtEvents, ManualResetReleasesEveryWaiter) {
  using namespace icb::rt;
  rt::ExploreOptions Opts;
  Opts.Limits.MaxExecutions = 60000;
  Opts.Limits.StopAtFirstBug = true;
  Opts.Limits.MaxPreemptionBound = 2;
  TestCase Test{"manual-reset", [] {
    Event Gate("gate", /*ManualReset=*/true);
    Atomic<int> Through("through", 0);
    auto WaiterBody = [&] {
      Gate.wait();
      Through.fetchAdd(1);
    };
    Thread W1(WaiterBody, "w1");
    Thread W2(WaiterBody, "w2");
    Gate.set();
    W1.join();
    W2.join();
    testAssert(Through.load() == 2, "both waiters pass a manual gate");
  }};
  rt::IcbExplorer Icb(Opts);
  rt::ExploreResult R = Icb.explore(Test);
  EXPECT_FALSE(R.foundBug()) << R.Bugs[0].str();
}

//===----------------------------------------------------------------------===//
// Support odds and ends
//===----------------------------------------------------------------------===//

TEST(CommandLineUsage, MentionsEveryFlagAndDefault) {
  FlagSet Flags("desc line");
  Flags.addInt("num", 5, "a number");
  Flags.addBool("flag", true, "a flag");
  Flags.addString("name", "dflt", "a name");
  std::string Text = Flags.usage("prog");
  EXPECT_NE(Text.find("desc line"), std::string::npos);
  EXPECT_NE(Text.find("--num"), std::string::npos);
  EXPECT_NE(Text.find("default: 5"), std::string::npos);
  EXPECT_NE(Text.find("default: true"), std::string::npos);
  EXPECT_NE(Text.find("default: dflt"), std::string::npos);
}

TEST(CommandLineHelp, ReturnsUsageViaError) {
  FlagSet Flags("helpful");
  const char *Argv[] = {"prog", "--help"};
  std::string Error;
  EXPECT_FALSE(Flags.parse(2, Argv, &Error));
  EXPECT_NE(Error.find("usage:"), std::string::npos);
}

} // namespace
