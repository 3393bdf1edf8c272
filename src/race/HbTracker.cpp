//===- race/HbTracker.cpp - Execution happens-before tracker --------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "race/HbTracker.h"
#include "obs/PhaseTimer.h"

using namespace icb;
using namespace icb::race;
using icb::trace::VectorClock;

std::string RaceReport::str() const {
  auto AccessName = [](bool IsWrite) { return IsWrite ? "write" : "read"; };
  std::string Text = "data race on variable ";
  Text += std::to_string(VarCode);
  Text += ": ";
  Text += AccessName(FirstWasWrite);
  Text += " by thread ";
  Text += std::to_string(FirstTid);
  Text += " races with ";
  Text += AccessName(SecondWasWrite);
  Text += " by thread ";
  Text += std::to_string(SecondTid);
  return Text;
}

HbTracker::HbTracker(unsigned NumThreads) : NumThreads(NumThreads) {
  startExecution(/*CheckRaces=*/true, /*MS=*/nullptr);
}

void HbTracker::startExecution(bool CheckRaces, obs::MetricShard *MS) {
  this->CheckRaces = CheckRaces;
  MShard = MS;
  ThreadClocks.assign(NumThreads, VectorClock(NumThreads));
  SyncClocks.clear();
  DataVars.clear();
  Hasher = StableHasher();
  StepDigests.clear();
}

void HbTracker::syncStep(uint32_t Tid, uint64_t VarCode, uint16_t OpCode) {
  ICB_ASSERT(Tid < NumThreads, "thread id out of range");
  obs::ScopedPhase HashTimer(MShard, obs::Phase::Hash);
  VectorClock &Mine = ThreadClocks[Tid];
  auto [It, Inserted] = SyncClocks.try_emplace(VarCode);
  if (!Inserted)
    Mine.join(It->second);
  Mine.tick(Tid);
  It->second = Mine;
  addEvent(Tid, VarCode, OpCode, /*IsSync=*/true);
}

std::optional<RaceReport> HbTracker::dataStep(uint32_t Tid, uint64_t VarCode,
                                              bool IsWrite) {
  ICB_ASSERT(Tid < NumThreads, "thread id out of range");
  {
    obs::ScopedPhase HashTimer(MShard, obs::Phase::Hash);
    ThreadClocks[Tid].tick(Tid);
    addEvent(Tid, VarCode, static_cast<uint16_t>(IsWrite ? 1 : 0),
             /*IsSync=*/false);
  }
  if (!CheckRaces)
    return std::nullopt;
  obs::ScopedPhase RaceTimer(MShard, obs::Phase::RaceDetect);
  return checkAccess(Tid, VarCode, IsWrite);
}

void HbTracker::addEvent(uint32_t Tid, uint64_t VarCode, uint16_t OpCode,
                         bool IsSync) {
  // The event identity: who, what, where, and its causal past. Because the
  // clock of an event is determined by the partial order alone (not the
  // interleaving), the unordered combination is interleaving-invariant.
  StableHasher Event;
  Event.add(Tid);
  Event.add(VarCode);
  Event.add(OpCode);
  Event.add(IsSync ? 1 : 0);
  Event.add(ThreadClocks[Tid].hash());
  Hasher.addUnordered(Event.digest());
  StepDigests.push_back(Hasher.digest());
}

std::optional<RaceReport> HbTracker::checkAccess(uint32_t Tid,
                                                 uint64_t VarCode,
                                                 bool IsWrite) {
  const VectorClock &Mine = ThreadClocks[Tid];
  auto [It, Inserted] = DataVars.try_emplace(VarCode);
  DataVar &Var = It->second;
  if (Inserted)
    Var.Reads = VectorClock(NumThreads);

  // Any access must be ordered after the last write.
  if (Var.LastWriteClock != 0 &&
      Mine.get(Var.LastWriteTid) < Var.LastWriteClock)
    return RaceReport{.VarCode = VarCode,
                      .FirstTid = Var.LastWriteTid,
                      .SecondTid = Tid,
                      .FirstWasWrite = true,
                      .SecondWasWrite = IsWrite};

  if (!IsWrite) {
    Var.Reads.set(Tid, Mine.get(Tid));
    return std::nullopt;
  }

  // A write must additionally be ordered after every previous read.
  for (unsigned Reader = 0; Reader != NumThreads; ++Reader)
    if (Var.Reads.get(Reader) != 0 &&
        Mine.get(Reader) < Var.Reads.get(Reader))
      return RaceReport{.VarCode = VarCode,
                        .FirstTid = Reader,
                        .SecondTid = Tid,
                        .FirstWasWrite = false,
                        .SecondWasWrite = true};
  Var.LastWriteTid = Tid;
  Var.LastWriteClock = Mine.get(Tid);
  Var.Reads = VectorClock(NumThreads);
  return std::nullopt;
}
