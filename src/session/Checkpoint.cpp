//===- session/Checkpoint.cpp - Durable checkpoint / resume ---------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "session/Checkpoint.h"
#include "session/Json.h"
#include "session/Serial.h"
#include "support/Debug.h"
#include <csignal>
#include <utility>

namespace icb::session {

//===----------------------------------------------------------------------===//
// File format
//===----------------------------------------------------------------------===//

/// The only format loadCheckpoint accepts is the one this build writes:
/// no checkpoint outlives the build that wrote it, so older versions are
/// refused rather than defaulted. Version 5 added the exploration
/// telemetry (the estimator mass and per-site profiles) to the v4 bound
/// policy, the v3 bounded-POR fields, and the v2 metrics block. Work-item
/// fields a writer omits when empty (`sleep`, `bound_threads`,
/// `bound_vars`, `est_mass`, `site`) stay optional.
static constexpr uint64_t CheckpointFormatVersion = 5;

uint64_t checkpointFormatVersion() { return CheckpointFormatVersion; }

JsonValue metaToJson(const CheckpointMeta &Meta) {
  JsonValue V = JsonValue::object();
  V.set("benchmark", JsonValue::str(Meta.Benchmark));
  V.set("bug", JsonValue::str(Meta.Bug));
  V.set("form", JsonValue::str(Meta.Form));
  V.set("strategy", JsonValue::str(Meta.Strategy));
  V.set("jobs", JsonValue::number(Meta.Jobs));
  V.set("shards", JsonValue::number(Meta.Shards));
  V.set("seed", JsonValue::number(Meta.Seed));
  V.set("every_access", JsonValue::boolean(Meta.EveryAccess));
  V.set("detector", JsonValue::str(Meta.Detector));
  V.set("por", JsonValue::boolean(Meta.Por));
  V.set("bound", JsonValue::str(Meta.Bound));
  V.set("var_bound", JsonValue::number(Meta.VarBound));
  V.set("limits", limitsToJson(Meta.Limits));
  return V;
}

bool metaFromJson(const JsonValue &V, CheckpointMeta &Out) {
  if (!V.isObject())
    return false;
  uint64_t Jobs = 0, Shards = 0, VarBound = 0;
  const JsonValue *Limits = V.find("limits");
  if (!V.getString("benchmark", Out.Benchmark) ||
      !V.getString("bug", Out.Bug) || !V.getString("form", Out.Form) ||
      !V.getString("strategy", Out.Strategy) || !V.getU64("jobs", Jobs) ||
      !V.getU64("shards", Shards) || !V.getU64("seed", Out.Seed) ||
      !V.getBool("every_access", Out.EveryAccess) ||
      !V.getString("detector", Out.Detector) || !V.getBool("por", Out.Por) ||
      !V.getString("bound", Out.Bound) || !V.getU64("var_bound", VarBound) ||
      !Limits || !limitsFromJson(*Limits, Out.Limits))
    return false;
  if (Jobs > ~0u || Shards > ~0u || VarBound > ~0u)
    return false;
  Out.Jobs = static_cast<unsigned>(Jobs);
  Out.Shards = static_cast<unsigned>(Shards);
  Out.VarBound = static_cast<unsigned>(VarBound);
  return true;
}

std::string checkpointPath(const std::string &Dir) {
  return Dir + "/checkpoint.json";
}

bool saveCheckpoint(const std::string &Path, const CheckpointData &Data,
                    std::string *Error) {
  JsonValue Doc = JsonValue::object();
  Doc.set("icb_checkpoint", JsonValue::number(CheckpointFormatVersion));
  Doc.set("meta", metaToJson(Data.Meta));
  Doc.set("wall_ms", JsonValue::number(Data.WallMillis));
  Doc.set("snapshot", snapshotToJson(Data.Snap));
  return atomicWriteFile(Path, jsonWrite(Doc) + "\n", Error);
}

bool loadCheckpoint(const std::string &Path, CheckpointData &Out,
                    std::string *Error) {
  std::string Text;
  if (!readFile(Path, Text, Error))
    return false;
  JsonValue Doc;
  if (!jsonParse(Text, Doc, Error))
    return false;
  uint64_t Version = 0;
  if (!Doc.getU64("icb_checkpoint", Version) ||
      Version != CheckpointFormatVersion) {
    if (Error)
      *Error = "not an icb checkpoint (or unsupported version)";
    return false;
  }
  const JsonValue *Meta = Doc.find("meta");
  const JsonValue *Snap = Doc.find("snapshot");
  if (!Meta || !metaFromJson(*Meta, Out.Meta) ||
      !Doc.getU64("wall_ms", Out.WallMillis) || !Snap ||
      !snapshotFromJson(*Snap, Out.Snap)) {
    if (Error)
      *Error = "malformed checkpoint: " + Path;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SignalGuard
//===----------------------------------------------------------------------===//

namespace {
volatile std::sig_atomic_t StopFlag = 0;

void onStopSignal(int Sig) {
  StopFlag = 1;
  // One chance to stop cooperatively; a second signal must be able to kill
  // a wedged run, so fall back to the default disposition now.
  std::signal(Sig, SIG_DFL);
}
} // namespace

SignalGuard::SignalGuard() {
  StopFlag = 0;
  PrevInt = std::signal(SIGINT, onStopSignal);
  PrevTerm = std::signal(SIGTERM, onStopSignal);
}

SignalGuard::~SignalGuard() {
  std::signal(SIGINT, PrevInt);
  std::signal(SIGTERM, PrevTerm);
}

bool SignalGuard::triggered() { return StopFlag != 0; }

//===----------------------------------------------------------------------===//
// CheckpointSink
//===----------------------------------------------------------------------===//

CheckpointSink::CheckpointSink(std::string Dir, uint64_t Every,
                               CheckpointMeta Meta, uint64_t StartExecutions,
                               uint64_t PriorWallMillis)
    : Dir(std::move(Dir)), Every(Every), Meta(std::move(Meta)),
      PriorWallMillis(PriorWallMillis),
      SegmentStart(std::chrono::steady_clock::now()),
      LastSnapExecutions(StartExecutions) {}

bool CheckpointSink::checkpointDue(uint64_t Executions) {
  if (Every == 0)
    return false;
  return Executions >= LastSnapExecutions.load(std::memory_order_relaxed) +
                           Every;
}

void CheckpointSink::onCheckpoint(const search::EngineSnapshot &Snap) {
  LastSnapExecutions.store(Snap.Stats.Executions, std::memory_order_relaxed);
  CheckpointData Data;
  Data.Meta = Meta;
  Data.Snap = Snap;
  Data.WallMillis = wallMillis();
  std::string Error;
  if (!saveCheckpoint(checkpointPath(Dir), Data, &Error) && ErrorMsg.empty())
    ErrorMsg = Error;
}

uint64_t CheckpointSink::wallMillis() const {
  auto Elapsed = std::chrono::steady_clock::now() - SegmentStart;
  return PriorWallMillis +
         static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                 .count());
}

} // namespace icb::session
