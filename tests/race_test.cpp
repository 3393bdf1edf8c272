//===- tests/race_test.cpp - Race detector unit tests ----------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit-tests the two race detectors directly on hand-built event streams,
/// then cross-checks them on thousands of randomized executions: Section
/// 3.1's soundness rests on race detection being correct, so the
/// happens-before tracker's vector-clock check and the Goldilocks-style
/// detector must agree, access by access, up to each execution's first
/// race. Also tests the tracker's digest, the happens-before fingerprint
/// of Section 4.3.
///
//===----------------------------------------------------------------------===//

#include "race/DynamicPartition.h"
#include "race/Goldilocks.h"
#include "race/HbTracker.h"
#include "support/Prng.h"
#include <gtest/gtest.h>
#include <memory>

using namespace icb;
using namespace icb::race;

/// The tracker's race check behind the event interface Goldilocks has, so
/// the typed tests and the cross-check drive both the same way. Declared
/// outside the anonymous namespace so the typed tests' names read
/// `<TrackerDetector>`.
class TrackerDetector {
public:
  explicit TrackerDetector(unsigned NumThreads) : Hb(NumThreads) {}

  void onSyncOp(uint32_t Tid, uint64_t VarCode) {
    Hb.syncStep(Tid, VarCode, /*OpCode=*/0);
  }

  std::optional<RaceReport> onDataAccess(uint32_t Tid, uint64_t VarCode,
                                         bool IsWrite) {
    return Hb.dataStep(Tid, VarCode, IsWrite);
  }

private:
  HbTracker Hb;
};

namespace {

constexpr uint64_t VarX = 100;
constexpr uint64_t VarY = 101;
constexpr uint64_t LockM = 200;
constexpr uint64_t LockN = 201;

template <typename DetectorT> class RaceDetectorTest : public ::testing::Test {
protected:
  DetectorT Detector{4};
};

using DetectorTypes = ::testing::Types<TrackerDetector, GoldilocksDetector>;

TYPED_TEST_SUITE(RaceDetectorTest, DetectorTypes, );

TYPED_TEST(RaceDetectorTest, UnorderedWritesRace) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, /*IsWrite=*/true).has_value());
  auto Race = D.onDataAccess(1, VarX, /*IsWrite=*/true);
  ASSERT_TRUE(Race.has_value());
  EXPECT_EQ(Race->FirstTid, 0u);
  EXPECT_EQ(Race->SecondTid, 1u);
  EXPECT_TRUE(Race->FirstWasWrite);
  EXPECT_TRUE(Race->SecondWasWrite);
}

TYPED_TEST(RaceDetectorTest, LockOrderingPreventsRace) {
  auto &D = this->Detector;
  D.onSyncOp(0, LockM);
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  D.onSyncOp(0, LockM); // Unlock (every sync op releases knowledge).
  D.onSyncOp(1, LockM); // Other thread acquires.
  EXPECT_FALSE(D.onDataAccess(1, VarX, true).has_value());
}

TYPED_TEST(RaceDetectorTest, WrongLockDoesNotOrder) {
  auto &D = this->Detector;
  D.onSyncOp(0, LockM);
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  D.onSyncOp(0, LockM);
  D.onSyncOp(1, LockN); // Different lock: no ordering.
  EXPECT_TRUE(D.onDataAccess(1, VarX, true).has_value());
}

TYPED_TEST(RaceDetectorTest, ConcurrentReadsDoNotRace) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, false).has_value());
  EXPECT_FALSE(D.onDataAccess(1, VarX, false).has_value());
  EXPECT_FALSE(D.onDataAccess(2, VarX, false).has_value());
}

TYPED_TEST(RaceDetectorTest, WriteAfterUnorderedReadRaces) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, false).has_value());
  auto Race = D.onDataAccess(1, VarX, true);
  ASSERT_TRUE(Race.has_value());
  EXPECT_FALSE(Race->FirstWasWrite);
  EXPECT_TRUE(Race->SecondWasWrite);
}

TYPED_TEST(RaceDetectorTest, ReadAfterUnorderedWriteRaces) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  auto Race = D.onDataAccess(1, VarX, false);
  ASSERT_TRUE(Race.has_value());
  EXPECT_TRUE(Race->FirstWasWrite);
  EXPECT_FALSE(Race->SecondWasWrite);
}

TYPED_TEST(RaceDetectorTest, SameThreadAlwaysOrdered) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  EXPECT_FALSE(D.onDataAccess(0, VarX, false).has_value());
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
}

TYPED_TEST(RaceDetectorTest, TransitiveOrderingThroughChainOfLocks) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  D.onSyncOp(0, LockM);
  D.onSyncOp(1, LockM);
  D.onSyncOp(1, LockN);
  D.onSyncOp(2, LockN);
  // Thread 2 is ordered after thread 0's write via M then N.
  EXPECT_FALSE(D.onDataAccess(2, VarX, true).has_value());
}

TYPED_TEST(RaceDetectorTest, IndependentVariablesDoNotInterfere) {
  auto &D = this->Detector;
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  EXPECT_FALSE(D.onDataAccess(1, VarY, true).has_value());
  // Y was written by thread 1; thread 0's unordered read races, and the
  // write to X never interferes with Y's history.
  EXPECT_TRUE(D.onDataAccess(0, VarY, false).has_value());
}

TYPED_TEST(RaceDetectorTest, SyncAfterAccessPublishes) {
  auto &D = this->Detector;
  // t0: write X; release M. t1: acquire M; write X: ordered.
  // t2 (never synced): write X: races with t1's write.
  EXPECT_FALSE(D.onDataAccess(0, VarX, true).has_value());
  D.onSyncOp(0, LockM);
  D.onSyncOp(1, LockM);
  EXPECT_FALSE(D.onDataAccess(1, VarX, true).has_value());
  EXPECT_TRUE(D.onDataAccess(2, VarX, true).has_value());
}

//===----------------------------------------------------------------------===//
// Randomized cross-check: the two detectors must agree exactly.
//===----------------------------------------------------------------------===//

struct RandomEvent {
  bool IsSync;
  uint32_t Tid;
  uint64_t Var;
  bool IsWrite;
};

std::vector<RandomEvent> randomTrace(Xoshiro256 &Rng, unsigned Length) {
  std::vector<RandomEvent> Trace;
  Trace.reserve(Length);
  for (unsigned I = 0; I != Length; ++I) {
    RandomEvent E;
    E.IsSync = Rng.nextBounded(3) == 0;
    E.Tid = static_cast<uint32_t>(Rng.nextBounded(4));
    E.Var = E.IsSync ? (200 + Rng.nextBounded(3)) : (100 + Rng.nextBounded(3));
    E.IsWrite = Rng.nextBounded(2) == 0;
    Trace.push_back(E);
  }
  return Trace;
}

TEST(DetectorCrossCheck, AgreeOnThousandsOfRandomTraces) {
  Xoshiro256 Rng(2024);
  unsigned Disagreements = 0;
  for (unsigned Iter = 0; Iter != 2000; ++Iter) {
    std::vector<RandomEvent> Trace = randomTrace(Rng, 40);
    TrackerDetector Vc(4);
    GoldilocksDetector Gl(4);
    for (const RandomEvent &E : Trace) {
      if (E.IsSync) {
        Vc.onSyncOp(E.Tid, E.Var);
        Gl.onSyncOp(E.Tid, E.Var);
        continue;
      }
      auto RVc = Vc.onDataAccess(E.Tid, E.Var, E.IsWrite);
      auto RGl = Gl.onDataAccess(E.Tid, E.Var, E.IsWrite);
      if (RVc.has_value() != RGl.has_value()) {
        ++Disagreements;
        break;
      }
      // Once a race is found on a variable the detectors may diverge in
      // their bookkeeping; stop this trace at the first race, like the
      // runtime does (a race ends the execution).
      if (RVc.has_value())
        break;
    }
  }
  EXPECT_EQ(Disagreements, 0u);
}

//===----------------------------------------------------------------------===//
// The tracker's digest: the happens-before fingerprint.
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, InterleavingInvariance) {
  // Two threads touching different sync vars: both orders equivalent.
  HbTracker F1(2), F2(2);
  F1.syncStep(0, 10, 1);
  F1.syncStep(1, 20, 1);
  F2.syncStep(1, 20, 1);
  F2.syncStep(0, 10, 1);
  EXPECT_EQ(F1.digest(), F2.digest());
}

TEST(FingerprintTest, ConflictOrderMatters) {
  // Same sync var: the access order is part of the happens-before.
  HbTracker F1(2), F2(2);
  F1.syncStep(0, 10, 1);
  F1.syncStep(1, 10, 1);
  F2.syncStep(1, 10, 1);
  F2.syncStep(0, 10, 1);
  EXPECT_NE(F1.digest(), F2.digest());
}

TEST(FingerprintTest, DataStepsOrderedOnlyByThread) {
  // Data steps on the same variable by different threads do not order
  // each other; swapping them keeps the digest.
  HbTracker F1(2), F2(2);
  F1.dataStep(0, 10, /*IsWrite=*/false);
  F1.dataStep(1, 10, /*IsWrite=*/false);
  F2.dataStep(1, 10, /*IsWrite=*/false);
  F2.dataStep(0, 10, /*IsWrite=*/false);
  EXPECT_EQ(F1.digest(), F2.digest());
}

TEST(FingerprintTest, SyncCreatesCrossThreadOrder) {
  // t0: var A; sync M. t1: sync M; var A. Reordering the sync ops changes
  // the partial order and hence the digest.
  HbTracker F1(2), F2(2);
  F1.syncStep(0, 10, 1); // t0 syncs M first.
  F1.syncStep(1, 10, 1);
  F1.syncStep(1, 99, 2);
  F2.syncStep(1, 10, 1); // t1 syncs M first.
  F2.syncStep(1, 99, 2);
  F2.syncStep(0, 10, 1);
  EXPECT_NE(F1.digest(), F2.digest());
}

TEST(FingerprintTest, StepMultiplicityCounts) {
  HbTracker F1(1), F2(1);
  F1.syncStep(0, 10, 1);
  F2.syncStep(0, 10, 1);
  F2.syncStep(0, 10, 1);
  EXPECT_NE(F1.digest(), F2.digest());
}

TEST(DynamicPartitionTest, ClassifiesAndPromotes) {
  DynamicPartition P;
  EXPECT_EQ(P.classify(7), VarClass::Data);
  P.registerSync(7);
  EXPECT_EQ(P.classify(7), VarClass::Sync);
  EXPECT_TRUE(P.isSync(7));
  EXPECT_EQ(P.promotionCount(), 0u);
  P.promoteToSync(9);
  EXPECT_EQ(P.classify(9), VarClass::Sync);
  EXPECT_EQ(P.promotionCount(), 1u);
  EXPECT_EQ(P.syncVarCount(), 2u);
}

TEST(RaceReportTest, FormatsReadably) {
  RaceReport R;
  R.VarCode = 42;
  R.FirstTid = 1;
  R.SecondTid = 2;
  R.FirstWasWrite = true;
  R.SecondWasWrite = false;
  std::string Text = R.str();
  EXPECT_NE(Text.find("write by thread 1"), std::string::npos);
  EXPECT_NE(Text.find("read by thread 2"), std::string::npos);
}

} // namespace
