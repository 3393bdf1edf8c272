//===- tools/common/ToolCommon.cpp - Shared checker-CLI plumbing ----------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "common/ToolCommon.h"
#include "session/Minimize.h"
#include "session/Serial.h"
#include "support/Format.h"
#include "support/WorkerPool.h"
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>

using namespace icb;
using namespace icb::tool;

const char icb::tool::kExitCodesHelp[] =
    "exit codes:\n"
    "  0    clean: no bug within the explored bound, or the replayed /\n"
    "       minimized artifact reproduced its bug\n"
    "  1    a bug was found by the search\n"
    "  2    usage or configuration error\n"
    "  3    replay mismatch: the recorded bug did not reproduce\n"
    "  4    session I/O failure (manifest, checkpoint, or repro file)\n"
    "  130  interrupted; a resumable checkpoint was flushed first";

session::CheckpointMeta icb::tool::makeRunMeta(const SessionState &S,
                                               const RunConfig &C,
                                               const char *Form) {
  session::CheckpointMeta M;
  M.Benchmark = S.Benchmark;
  M.Bug = S.Bug;
  M.Form = Form;
  M.Strategy = C.Strategy;
  M.Jobs = C.Jobs;
  M.Shards = C.Shards;
  M.Seed = C.Seed;
  M.EveryAccess = C.EveryAccess;
  M.Detector = C.Detector;
  M.Por = C.Por;
  M.Limits.MaxExecutions = C.MaxExecutions;
  M.Limits.MaxPreemptionBound = C.MaxBound;
  M.Limits.StopAtFirstBug = C.StopAtFirst;
  M.Bound = C.BoundName;
  M.VarBound = C.VarBound;
  return M;
}

namespace {

/// The canonical spec text of the configured bound policy.
std::string boundSpecOf(const RunConfig &C) {
  return search::formatBoundSpec({C.BoundName, C.MaxBound, C.VarBound});
}

/// True when the configuration names the default policy family — the one
/// whose manifests, artifacts, and stdout must stay byte-identical to the
/// pre-policy-seam tools.
bool defaultBound(const RunConfig &C) {
  return C.BoundName == "preemption" && C.VarBound == 0;
}

/// The manifest record of a run still in flight: identity plus the bounds
/// finished so far.
session::JsonValue partialRunRecord(
    const SessionState &S, const char *Form, const RunConfig &C,
    const std::vector<search::BoundCoverage> &Bounds) {
  using session::JsonValue;
  JsonValue Run = JsonValue::object();
  Run.set("benchmark", JsonValue::str(S.Benchmark));
  Run.set("bug", JsonValue::str(S.Bug));
  Run.set("form", JsonValue::str(Form));
  Run.set("strategy", JsonValue::str(C.Strategy));
  Run.set("jobs", JsonValue::number(C.Jobs));
  Run.set("in_progress", JsonValue::boolean(true));
  JsonValue Arr = JsonValue::array();
  for (const search::BoundCoverage &B : Bounds) {
    JsonValue O = JsonValue::object();
    O.set("bound", JsonValue::number(B.Bound));
    O.set("states", JsonValue::number(B.States));
    O.set("executions", JsonValue::number(B.Executions));
    Arr.Arr.push_back(std::move(O));
  }
  Run.set("bounds_done", std::move(Arr));
  return Run;
}

} // namespace

//===----------------------------------------------------------------------===//
// RunSession
//===----------------------------------------------------------------------===//

RunSession::RunSession(SessionState &S, const RunConfig &Config,
                       const char *Form)
    : S(S), Config(Config), Form(Form),
      PriorWall(S.Resume ? S.Resume->WallMillis : 0) {
  if (S.Json) {
    RunIdx = S.Json->addRun(partialRunRecord(S, Form, Config, {}));
    S.Json->writeTo(S.JsonPath, nullptr);
    Obs.BoundHook = [this](const search::BoundCoverage &B) {
      Bounds.push_back(B);
      this->S.Json->updateRun(
          RunIdx,
          partialRunRecord(this->S, this->Form, this->Config, Bounds));
      this->S.Json->writeTo(this->S.JsonPath, nullptr);
    };
  }
  if (!S.CheckpointDir.empty()) {
    std::string Err;
    if (!session::ensureDir(S.CheckpointDir, &Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      Failed = true;
      return;
    }
    if (!Lock.acquire(S.CheckpointDir, &Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      Failed = true;
      return;
    }
    Guard = std::make_unique<session::SignalGuard>();
    Sink = std::make_unique<session::CheckpointSink>(
        S.CheckpointDir, S.CheckpointEvery, makeRunMeta(S, Config, Form),
        S.Resume ? S.Resume->Snap.Stats.Executions : 0, PriorWall);
    Obs.Sink = Sink.get();
  }
  if (!Config.TraceFile.empty()) {
    // 64Ki events (2 MiB) per worker: a late-run window big enough for a
    // few hundred thousand decisions; older events fall off the ring and
    // show up in the exporter's dropped count.
    Metrics.enableTracing(1 << 16);
  }
  if (Config.Progress || !Config.MetricsCsv.empty()) {
    // The meter is the sampling clock even when only the CSV wants rows;
    // RenderMeter keeps the stderr ticker tied to --progress alone.
    Meter = std::make_unique<obs::ProgressMeter>(Config.ProgressEveryMillis);
    Obs.Meter = Meter.get();
    Obs.RenderMeter = Config.Progress;
  }
  if (!Config.MetricsCsv.empty()) {
    Csv = std::fopen(Config.MetricsCsv.c_str(), "a");
    if (!Csv) {
      std::fprintf(stderr, "--metrics-csv: cannot open %s\n",
                   Config.MetricsCsv.c_str());
      Failed = true;
      return;
    }
    std::fseek(Csv, 0, SEEK_END);
    if (std::ftell(Csv) == 0)
      std::fprintf(Csv, "bound,max_bound,executions,total_steps,states,"
                        "frontier_remaining,deferred_next,bugs,"
                        "est_total_executions,explored_ppm\n");
    Obs.SampleHook = [this](const obs::ProgressSample &P) { csvRow(P); };
  }
}

RunSession::~RunSession() {
  if (Csv)
    std::fclose(Csv);
}

void RunSession::csvRow(const obs::ProgressSample &P) {
  if (!Csv)
    return;
  // Same Knuth-estimate math the progress ticker uses: completed
  // executions over the credited mass fraction. Zero columns while the
  // estimator is still dark.
  uint64_t EstTotal = 0, Ppm = 0;
  if (P.EstMass != 0) {
    EstTotal = static_cast<uint64_t>(
        static_cast<unsigned __int128>(P.Executions) * obs::EstimateOne /
        P.EstMass);
    Ppm = static_cast<uint64_t>(
        static_cast<unsigned __int128>(P.EstMass) * 1000000 /
        obs::EstimateOne);
  }
  std::fprintf(Csv,
               "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
               (unsigned long long)P.Bound, (unsigned long long)P.MaxBound,
               (unsigned long long)P.Executions,
               (unsigned long long)P.TotalSteps, (unsigned long long)P.States,
               (unsigned long long)P.FrontierRemaining,
               (unsigned long long)P.DeferredNext,
               (unsigned long long)P.Bugs, (unsigned long long)EstTotal,
               (unsigned long long)Ppm);
  std::fflush(Csv);
}

uint64_t RunSession::wallMillis() const {
  if (Sink)
    return Sink->wallMillis();
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  return PriorWall +
         static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                 .count());
}

bool RunSession::reemitFinished(search::SearchResult &R) {
  if (!finishedResume())
    return false;
  std::printf("  checkpoint describes a finished run; re-emitting its "
              "results\n");
  const search::EngineSnapshot &Done = S.Resume->Snap;
  R.Stats = Done.Stats;
  R.Bugs = Done.Bugs;
  Metrics.restore(Done.Metrics);
  return true;
}

int RunSession::finish(const search::SearchResult &R) {
  int Rc = 0;
  if (Meter || Csv) {
    obs::ProgressSample Last;
    Last.Bound = R.Stats.PerBound.empty() ? 0 : R.Stats.PerBound.back().Bound;
    Last.MaxBound = Config.MaxBound;
    Last.Executions = R.Stats.Executions;
    Last.TotalSteps = R.Stats.TotalSteps;
    Last.States = R.Stats.DistinctStates;
    Last.Bugs = R.Bugs.size();
    Last.EstMass = Metrics.snapshot().estMassTotal();
    csvRow(Last); // Final row so even a sub-period run leaves data.
    if (Meter && Config.Progress)
      Meter->finish(Last);
  }
  std::vector<std::string> Repros;
  if (!S.ReproDir.empty() && !R.Bugs.empty()) {
    std::string Err;
    if (!session::ensureDir(S.ReproDir, &Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      Rc = 4;
    } else {
      for (const search::Bug &B : R.Bugs) {
        session::ReproArtifact A;
        A.Benchmark = S.Benchmark;
        A.Bug = S.Bug;
        A.Form = Form;
        A.EveryAccess = Config.EveryAccess;
        A.Detector = Config.Detector;
        if (!defaultBound(Config))
          A.Bound = boundSpecOf(Config);
        A.Found = B;
        std::string Path = S.ReproDir + "/" + session::reproFileName(A);
        if (!session::saveRepro(Path, A, &Err)) {
          std::fprintf(stderr, "repro write failed: %s\n", Err.c_str());
          Rc = 4;
        } else {
          std::printf("  repro written: %s\n", Path.c_str());
          Repros.push_back(Path);
        }
      }
    }
  }
  if (S.Json) {
    using session::JsonValue;
    JsonValue Run = session::runRecord(S.Benchmark, S.Bug, Form,
                                       Config.Strategy, Config.Jobs, R,
                                       wallMillis());
    JsonValue Arr = JsonValue::array();
    for (const std::string &P : Repros)
      Arr.Arr.push_back(JsonValue::str(P));
    Run.set("repros", std::move(Arr));
    obs::MetricsSnapshot MSnap = Metrics.snapshot();
    if (!MSnap.empty())
      Run.set("metrics", session::metricsToJson(MSnap));
    if (HaveDist)
      Run.set("dist", std::move(Dist));
    S.Json->updateRun(RunIdx, std::move(Run));
    std::string Err;
    if (!S.Json->writeTo(S.JsonPath, &Err)) {
      std::fprintf(stderr, "manifest write failed: %s\n", Err.c_str());
      Rc = 4;
    }
  }
  if (!Config.TraceFile.empty()) {
    // The workers have joined by now, so the per-worker rings are safe to
    // read. Exported even on interrupt: a partial trace of a wedged run
    // is exactly when you want one.
    std::string Err;
    if (!obs::writePerfettoTrace(Metrics, Config.TraceFile, &Err)) {
      std::fprintf(stderr, "trace write failed: %s\n", Err.c_str());
      Rc = 4;
    } else {
      std::printf("  trace written: %s\n", Config.TraceFile.c_str());
    }
  }
  if (Sink && !Sink->ok()) {
    std::fprintf(stderr, "checkpoint write failed: %s\n",
                 Sink->error().c_str());
    Rc = 4;
  }
  if (R.Interrupted) {
    std::printf("  interrupted; resumable checkpoint in %s\n",
                S.CheckpointDir.c_str());
    Rc = std::max(Rc, 130);
  }
  return Rc;
}

//===----------------------------------------------------------------------===//
// Flag registration / parsing
//===----------------------------------------------------------------------===//

void icb::tool::addSearchFlags(FlagSet &Flags) {
  Flags.addString("strategy", "icb", "icb, dfs, db:N, or random");
  Flags.addInt("max-bound", 4, "maximum preemption bound (icb)");
  Flags.addString("bound", "",
                  "bound policy for the icb strategy: preemption:K, delay:K, "
                  "or thread:K[,variable:V]; a bare family name takes K from "
                  "--max-bound");
  Flags.addInt("max-executions", 1 << 20, "execution budget");
  Flags.addInt("seed", 1, "PRNG seed (random strategy)");
  Flags.addInt("jobs", 1,
               "worker threads for the icb strategy, model or runtime form "
               "(0 = hardware concurrency)");
  Flags.addInt("shards", 0,
               "state-cache shards with --jobs != 1 (0 = auto)");
  Flags.addOptString("trace", "on",
                     "bare/on: replay and print the counterexample; "
                     "--trace=FILE: write a Perfetto trace of the search "
                     "itself to FILE");
  Flags.addBool("keep-going", false, "collect all bugs, not just the first");
  Flags.addBool("every-access", false,
                "scheduling points at every data access (ablation mode)");
  Flags.addBool("por", true,
                "bounded partial-order reduction (sleep sets) with the icb "
                "strategy: on or off");
  Flags.addString("detector", "vc", "race detector: vc or goldilocks");
  Flags.addBool("progress", false,
                "live single-line progress ticker on stderr");
  Flags.addInt("progress-every", 1000,
               "progress ticker period in milliseconds (implies --progress)");
  Flags.addString("metrics-csv", "",
                  "append one CSV row per progress tick (same fields as the "
                  "--progress ticker) to this file");
}

void icb::tool::addSessionFlags(FlagSet &Flags) {
  Flags.addString("json", "", "write a machine-readable run manifest here");
  Flags.addString("checkpoint-dir", "",
                  "write resumable checkpoints into this directory (icb)");
  Flags.addInt("checkpoint-every", 4096,
               "checkpoint period in executions (0 = only on signal/finish)");
  Flags.addString("resume", "",
                  "resume the checkpointed run in this directory");
  Flags.addString("replay", "",
                  "replay a .icbrepro artifact and verify its bug fires");
  Flags.addBool("minimize", false,
                "with --replay: delta-debug the schedule, rewrite the "
                "artifact in place");
  Flags.addString("repro-dir", "",
                  "write a .icbrepro artifact per discovered bug here");
}

void icb::tool::readTraceFlag(const std::string &Text, bool &PrintTrace,
                              std::string &TraceFile) {
  PrintTrace = false;
  TraceFile.clear();
  if (Text.empty() || Text == "off" || Text == "false" || Text == "0")
    return;
  if (Text == "on" || Text == "true" || Text == "1") {
    PrintTrace = true;
    return;
  }
  TraceFile = Text;
}

bool icb::tool::readRunConfig(const FlagSet &Flags, RunConfig &Config) {
  Config.Strategy = Flags.getString("strategy");
  Config.MaxBound = static_cast<unsigned>(Flags.getInt("max-bound"));
  Config.MaxExecutions = static_cast<uint64_t>(Flags.getInt("max-executions"));
  Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  readTraceFlag(Flags.getString("trace"), Config.Trace, Config.TraceFile);
#ifdef ICB_NO_METRICS
  if (!Config.TraceFile.empty()) {
    std::fprintf(stderr,
                 "--trace=FILE needs the exploration-telemetry "
                 "instrumentation, which this binary was built without "
                 "(ICB_NO_METRICS)\n");
    return false;
  }
#endif
  Config.StopAtFirst = !Flags.getBool("keep-going");
  Config.EveryAccess = Flags.getBool("every-access");
  Config.Detector = Flags.getString("detector");
  Config.Jobs = static_cast<unsigned>(Flags.getInt("jobs"));
  Config.Shards = static_cast<unsigned>(Flags.getInt("shards"));
  Config.Progress =
      Flags.getBool("progress") || Flags.wasSet("progress-every");
  Config.ProgressEveryMillis =
      static_cast<uint64_t>(Flags.getInt("progress-every"));
  Config.MetricsCsv = Flags.getString("metrics-csv");
  if ((Config.Progress || !Config.MetricsCsv.empty()) &&
      Flags.getInt("progress-every") <= 0) {
    std::fprintf(stderr, "--progress-every must be positive (milliseconds)\n");
    return false;
  }
  if (Flags.wasSet("bound")) {
    std::string Text = Flags.getString("bound");
    search::BoundSpec Spec;
    std::string Err;
    if (!search::parseBoundSpec(Text, Spec, &Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return false;
    }
    // A bare family name ("delay") takes its K from --max-bound; a full
    // spec ("delay:3") owns K, and a contradicting --max-bound is an
    // error rather than a silent pick between the two.
    std::string Head = Text.substr(0, Text.find(','));
    if (Head.find(':') == std::string::npos)
      Spec.Bound = Config.MaxBound;
    else if (Flags.wasSet("max-bound") && Config.MaxBound != Spec.Bound) {
      std::fprintf(stderr,
                   "--max-bound=%u conflicts with --bound=%s; pass the bound "
                   "through one flag only\n",
                   Config.MaxBound, Text.c_str());
      return false;
    }
    Config.MaxBound = Spec.Bound;
    Config.BoundName = Spec.Name;
    Config.VarBound = Spec.VarBound;
    if (Config.Strategy != "icb") {
      std::fprintf(stderr,
                   "--bound applies to the icb strategy only (got "
                   "--strategy=%s)\n",
                   Config.Strategy.c_str());
      return false;
    }
  }
  // Reject flag combinations that have no defined meaning rather than
  // silently ignoring a flag or falling back to another engine.
  if (Config.Jobs != 1 && Config.Strategy != "icb") {
    std::fprintf(stderr,
                 "--jobs applies to the icb strategy only (got --strategy=%s)\n",
                 Config.Strategy.c_str());
    return false;
  }
  if (Config.Shards != 0 && Config.Jobs == 1) {
    std::fprintf(stderr,
                 "--shards configures the parallel engine; it requires "
                 "--jobs != 1\n");
    return false;
  }
  Config.Por = Flags.getBool("por");
  if (Config.Strategy != "icb") {
    if (Flags.wasSet("por")) {
      std::fprintf(stderr,
                   "--por applies to the icb strategy only (got "
                   "--strategy=%s)\n",
                   Config.Strategy.c_str());
      return false;
    }
    Config.Por = false; // The default gates on the strategy.
  }
  return true;
}

bool icb::tool::readSessionFlags(const FlagSet &Flags, SessionState &S,
                                 std::string &ResumeDir) {
  ResumeDir = Flags.getString("resume");
  if (!Flags.getString("checkpoint-dir").empty() && !ResumeDir.empty()) {
    std::fprintf(stderr,
                 "--resume continues checkpointing into its own directory; "
                 "do not also pass --checkpoint-dir\n");
    return false;
  }
  if (Flags.wasSet("checkpoint-every") &&
      Flags.getString("checkpoint-dir").empty() && ResumeDir.empty()) {
    std::fprintf(stderr,
                 "--checkpoint-every requires --checkpoint-dir or --resume\n");
    return false;
  }
  S.CheckpointDir = Flags.getString("checkpoint-dir");
  S.CheckpointEvery = static_cast<uint64_t>(Flags.getInt("checkpoint-every"));
  S.ReproDir = Flags.getString("repro-dir");
  S.JsonPath = Flags.getString("json");
  return true;
}

bool icb::tool::checkReplayExclusive(
    const FlagSet &Flags, std::initializer_list<const char *> ExtraFlags) {
  // --bound is deliberately absent: with --replay it names the policy the
  // artifact must have been recorded under (replayArtifact's mismatch
  // check), not a search configuration.
  static const char *const Incompatible[] = {
      "strategy",     "max-bound",      "max-executions",   "seed",
      "jobs",         "shards",         "keep-going",       "every-access",
      "por",          "detector",       "json",             "checkpoint-dir",
      "checkpoint-every", "resume",     "repro-dir",        "progress",
      "progress-every",   "metrics-csv",
  };
  auto Reject = [](const char *Name) {
    std::fprintf(stderr,
                 "--replay re-executes a recorded artifact; --%s "
                 "cannot be combined with it\n",
                 Name);
    return false;
  };
  for (const char *Name : Incompatible)
    if (Flags.wasSet(Name))
      return Reject(Name);
  for (const char *Name : ExtraFlags)
    if (Flags.wasSet(Name))
      return Reject(Name);
  return true;
}

bool icb::tool::checkJoinExclusive(
    const FlagSet &Flags, std::initializer_list<const char *> ExtraFlags) {
  // --jobs/--shards stay legal: they describe the joiner's own worker
  // pool, which (like --resume's topology exemption) never changes the
  // merged result. Everything else is owned by the coordinator and
  // adopted through the hello_ok meta.
  static const char *const Incompatible[] = {
      "strategy",     "max-bound",      "bound",          "max-executions",
      "seed",         "keep-going",     "every-access",   "por",
      "detector",     "json",           "checkpoint-dir", "checkpoint-every",
      "resume",       "replay",         "minimize",       "repro-dir",
      "progress",     "progress-every", "metrics-csv",    "trace",
  };
  auto Reject = [](const char *Name) {
    std::fprintf(stderr,
                 "--join adopts the coordinator's configuration; --%s "
                 "cannot be combined with it\n",
                 Name);
    return false;
  };
  for (const char *Name : Incompatible)
    if (Flags.wasSet(Name))
      return Reject(Name);
  for (const char *Name : ExtraFlags)
    if (Flags.wasSet(Name))
      return Reject(Name);
  return true;
}

void icb::tool::printResultSummary(
    const search::SearchResult &R, const RunConfig &Config, bool RtForm,
    const std::function<void(const search::Bug &)> &PerBug) {
  std::printf("  executions %s, steps %s, %s %s%s\n",
              withCommas(R.Stats.Executions).c_str(),
              withCommas(R.Stats.TotalSteps).c_str(),
              RtForm ? "visited states" : "states",
              withCommas(R.Stats.DistinctStates).c_str(),
              R.Stats.Completed ? " (state space exhausted)" : "");
  if (RtForm)
    for (const search::BoundCoverage &B : R.Stats.PerBound)
      std::printf("  bound %u: executions %s, visited states %s\n", B.Bound,
                  withCommas(B.Executions).c_str(),
                  withCommas(B.States).c_str());
  for (const search::Bug &Bug : R.Bugs) {
    std::printf("  BUG %s\n", Bug.str().c_str());
    if (PerBug)
      PerBug(Bug);
  }
  if (R.Bugs.empty() && !R.Interrupted) {
    if (defaultBound(Config))
      std::printf("  no bug within preemption bound %u\n", Config.MaxBound);
    else
      std::printf("  no bug within bound %s\n", boundSpecOf(Config).c_str());
  }
}

bool icb::tool::checkSessionStrategy(const RunConfig &Config,
                                     const SessionState &S) {
  if (!S.CheckpointDir.empty() && Config.Strategy != "icb") {
    std::fprintf(stderr,
                 "--checkpoint-dir/--resume apply to the icb strategy only "
                 "(got --strategy=%s)\n",
                 Config.Strategy.c_str());
    return false;
  }
  return true;
}

int icb::tool::applyResume(const FlagSet &Flags, const std::string &ResumeDir,
                           session::CheckpointData &Data, RunConfig &Config,
                           SessionState &S, std::string *BenchName,
                           std::string *BugLabel) {
  std::string Error;
  if (!session::loadCheckpoint(session::checkpointPath(ResumeDir), Data,
                               &Error)) {
    std::fprintf(stderr, "--resume: %s\n", Error.c_str());
    return 4;
  }
  const session::CheckpointMeta &M = Data.Meta;
  bool Bad = false;
  auto Conflict = [&](const char *Flag, const std::string &Cli,
                      const std::string &Recorded) {
    std::fprintf(stderr,
                 "--resume: --%s=%s conflicts with the checkpoint's "
                 "recorded %s=%s\n",
                 Flag, Cli.c_str(), Flag, Recorded.c_str());
    Bad = true;
  };
  auto CheckStr = [&](const char *Flag, const std::string &Cli,
                      const std::string &Recorded) {
    if (Flags.wasSet(Flag) && Cli != Recorded)
      Conflict(Flag, Cli, Recorded);
  };
  auto CheckNum = [&](const char *Flag, uint64_t Cli, uint64_t Recorded) {
    if (Flags.wasSet(Flag) && Cli != Recorded)
      Conflict(Flag, std::to_string(Cli), std::to_string(Recorded));
  };
  auto CheckBool = [&](const char *Flag, bool Cli, bool Recorded) {
    if (Flags.wasSet(Flag) && Cli != Recorded)
      Conflict(Flag, Cli ? "true" : "false", Recorded ? "true" : "false");
  };
  if (BenchName)
    CheckStr("benchmark", *BenchName, M.Benchmark);
  if (BugLabel)
    CheckStr("bug", *BugLabel == "none" ? "default" : *BugLabel, M.Bug);
  CheckStr("strategy", Config.Strategy, M.Strategy);
  CheckStr("detector", Config.Detector, M.Detector);
  // --jobs/--shards are intentionally NOT conflict-checked: the engine
  // frontier is worker-topology-neutral, so a checkpoint taken at one job
  // count resumes correctly at another.
  CheckNum("seed", Config.Seed, M.Seed);
  CheckNum("max-bound", Config.MaxBound, M.Limits.MaxPreemptionBound);
  // The policy decides which work items exist in the frontier (and what
  // their budgets mean), so the whole spec must match; the canonical spec
  // text compares family, K, and variable cap at once.
  if (Flags.wasSet("bound")) {
    std::string Cli = boundSpecOf(Config);
    std::string Recorded = search::formatBoundSpec(
        {M.Bound, M.Limits.MaxPreemptionBound, M.VarBound});
    if (Cli != Recorded)
      Conflict("bound", Cli, Recorded);
  }
  CheckNum("max-executions", Config.MaxExecutions, M.Limits.MaxExecutions);
  CheckBool("every-access", Config.EveryAccess, M.EveryAccess);
  CheckBool("keep-going", !Config.StopAtFirst, !M.Limits.StopAtFirstBug);
  // POR decides which work items exist in the checkpointed frontier, so a
  // run must resume under the setting it was started with.
  CheckBool("por", Config.Por, M.Por);
  // --model exists only on tools that offer both forms (wasSet asserts on
  // unregistered names); BenchName doubles as the "registry tool" signal.
  if (BenchName)
    CheckBool("model", Config.PreferModel, M.Form == "vm");
  if (Bad)
    return 2;

  Config.Strategy = M.Strategy;
  Config.Detector = M.Detector;
  if (!Flags.wasSet("jobs"))
    Config.Jobs = M.Jobs;
  if (!Flags.wasSet("shards"))
    Config.Shards = Config.Jobs != 1 ? M.Shards : 0;
  if (Config.Shards != 0 && Config.Jobs == 1) {
    std::fprintf(stderr,
                 "--shards configures the parallel engine; it requires "
                 "--jobs != 1\n");
    return 2;
  }
  Config.Seed = M.Seed;
  Config.MaxBound = M.Limits.MaxPreemptionBound;
  Config.BoundName = M.Bound;
  Config.VarBound = M.VarBound;
  Config.MaxExecutions = M.Limits.MaxExecutions;
  Config.EveryAccess = M.EveryAccess;
  Config.StopAtFirst = M.Limits.StopAtFirstBug;
  Config.Por = M.Por;
  Config.PreferModel = M.Form == "vm";
  if (BenchName)
    *BenchName = M.Benchmark;
  if (BugLabel)
    *BugLabel = M.Bug == "default" ? "none" : M.Bug;
  S.Resume = &Data;
  S.CheckpointDir = ResumeDir;
  return 0;
}

session::JsonValue icb::tool::configRecord(const RunConfig &Config) {
  using session::JsonValue;
  JsonValue Cfg = JsonValue::object();
  Cfg.set("strategy", JsonValue::str(Config.Strategy));
  Cfg.set("max_bound", JsonValue::number(Config.MaxBound));
  // Only a non-default policy is recorded, keeping default-run manifests
  // byte-identical to pre-policy-seam ones.
  if (!defaultBound(Config))
    Cfg.set("bound", JsonValue::str(boundSpecOf(Config)));
  Cfg.set("max_executions", JsonValue::number(Config.MaxExecutions));
  Cfg.set("seed", JsonValue::number(Config.Seed));
  Cfg.set("jobs", JsonValue::number(Config.Jobs));
  Cfg.set("shards", JsonValue::number(Config.Shards));
  Cfg.set("every_access", JsonValue::boolean(Config.EveryAccess));
  Cfg.set("por", JsonValue::boolean(Config.Por));
  Cfg.set("detector", JsonValue::str(Config.Detector));
  Cfg.set("keep_going", JsonValue::boolean(!Config.StopAtFirst));
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Run drivers
//===----------------------------------------------------------------------===//

int icb::tool::runRt(const rt::TestCase &Test, const RunConfig &Config,
                     SessionState &S) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxExecutions = Config.MaxExecutions;
  Opts.Limits.MaxPreemptionBound = Config.MaxBound;
  Opts.Limits.StopAtFirstBug = Config.StopAtFirst;
  std::unique_ptr<search::BoundPolicy> Policy = search::makeBoundPolicy(
      {Config.BoundName, Config.MaxBound, Config.VarBound});
  Opts.Policy = Policy.get();
  Opts.Jobs = Config.Jobs;
  Opts.Shards = Config.Shards;
  Opts.Por = Config.Por;
  if (Config.EveryAccess)
    Opts.Exec.Mode = rt::SchedPointMode::EveryAccess;
  Opts.Exec.Detector = Config.Detector == "goldilocks"
                           ? rt::DetectorKind::Goldilocks
                           : rt::DetectorKind::VectorClock;

  RunSession Sess(S, Config, "rt");
  if (Sess.failed())
    return 4;
  Opts.Observer = Sess.observer();
  Opts.Resume = Sess.resumeSnapshot();
  Opts.Metrics = Sess.metrics();

  std::unique_ptr<rt::Explorer> Explorer;
  if (Config.Strategy == "icb")
    Explorer = std::make_unique<rt::IcbExplorer>(Opts);
  else if (Config.Strategy == "dfs")
    Explorer = std::make_unique<rt::DfsExplorer>(Opts);
  else if (Config.Strategy.rfind("db:", 0) == 0)
    Explorer = std::make_unique<rt::DfsExplorer>(
        Opts, static_cast<unsigned>(
                  std::strtoul(Config.Strategy.c_str() + 3, nullptr, 10)));
  else if (Config.Strategy == "random")
    Explorer = std::make_unique<rt::RandomExplorer>(Opts, Config.Seed,
                                                    Config.MaxExecutions);
  else {
    std::fprintf(stderr, "unknown strategy '%s' (icb, dfs, db:N, random)\n",
                 Config.Strategy.c_str());
    return 2;
  }

  if (Config.Jobs != 1)
    std::printf("exploring '%s' with %s (%u jobs)...\n", Test.Name.c_str(),
                Explorer->name().c_str(),
                Config.Jobs ? Config.Jobs : WorkerPool::defaultWorkers());
  else
    std::printf("exploring '%s' with %s...\n", Test.Name.c_str(),
                Explorer->name().c_str());

  rt::ExploreResult R;
  if (!Sess.reemitFinished(R))
    R = Explorer->explore(Test);
  printResultSummary(R, Config, /*RtForm=*/true);
  if (Config.Trace && R.foundBug())
    std::printf("\n%s",
                rt::renderBugTrace(Test, *R.simplestBug(), Opts.Exec)
                    .c_str());
  int Rc = Sess.finish(R);
  return std::max(Rc, R.foundBug() ? 1 : 0);
}

int icb::tool::runVm(const vm::Program &Prog, const RunConfig &Config,
                     SessionState &S) {
  search::SearchOptions Opts;
  if (Config.Strategy == "icb")
    Opts.Kind = search::StrategyKind::Icb;
  else if (Config.Strategy == "dfs")
    Opts.Kind = search::StrategyKind::Dfs;
  else if (Config.Strategy == "random")
    Opts.Kind = search::StrategyKind::Random;
  else if (Config.Strategy.rfind("db:", 0) == 0) {
    Opts.Kind = search::StrategyKind::DepthBoundedDfs;
    Opts.DepthBound = static_cast<unsigned>(
        std::strtoul(Config.Strategy.c_str() + 3, nullptr, 10));
  } else {
    std::fprintf(stderr, "unknown strategy '%s' (icb, dfs, db:N, random)\n",
                 Config.Strategy.c_str());
    return 2;
  }
  Opts.Seed = Config.Seed;
  Opts.RandomExecutions = Config.MaxExecutions;
  std::unique_ptr<search::BoundPolicy> Policy = search::makeBoundPolicy(
      {Config.BoundName, Config.MaxBound, Config.VarBound});
  Opts.Policy = Policy.get();
  Opts.Jobs = Config.Jobs;
  Opts.Shards = Config.Shards;
  Opts.UseSleepSets = Config.Por;
  Opts.Limits.MaxExecutions = Config.MaxExecutions;
  Opts.Limits.MaxPreemptionBound = Config.MaxBound;
  Opts.Limits.StopAtFirstBug = Config.StopAtFirst;

  RunSession Sess(S, Config, "vm");
  if (Sess.failed())
    return 4;
  Opts.Observer = Sess.observer();
  Opts.Resume = Sess.resumeSnapshot();
  Opts.Metrics = Sess.metrics();

  if (Config.Jobs != 1)
    std::printf("exploring model '%s' with %s (%u jobs)...\n",
                Prog.Name.c_str(), Config.Strategy.c_str(),
                Config.Jobs ? Config.Jobs : WorkerPool::defaultWorkers());
  else
    std::printf("exploring model '%s' with %s...\n", Prog.Name.c_str(),
                Config.Strategy.c_str());

  search::SearchResult R;
  if (!Sess.reemitFinished(R))
    R = search::checkProgram(Prog, Opts);
  printResultSummary(R, Config, /*RtForm=*/false,
                     [&](const search::Bug &Bug) {
                       if (Config.Trace && !Bug.Schedule.empty()) {
                         std::printf("    schedule:");
                         for (vm::ThreadId Tid : Bug.Schedule)
                           std::printf(" %s", Prog.Threads[Tid].Name.c_str());
                         std::printf("\n");
                       }
                     });
  int Rc = Sess.finish(R);
  return std::max(Rc, R.foundBug() ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Replay driver
//===----------------------------------------------------------------------===//

int icb::tool::replayArtifact(const std::string &Path, bool Minimize,
                              bool Trace, const std::string &BoundName,
                              const ArtifactResolver &Resolve) {
  session::ReproArtifact A;
  std::string Error;
  if (!session::loadRepro(Path, A, &Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 4;
  }
  if (!session::reproBoundCompatible(A, BoundName, &Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 3;
  }
  std::function<rt::TestCase()> MakeRt;
  std::function<vm::Program()> MakeVm;
  if (!Resolve(A, MakeRt, MakeVm))
    return 2;

  std::printf("replaying %s (%s / %s, %s form)...\n", Path.c_str(),
              A.Benchmark.c_str(), A.Bug.c_str(), A.Form.c_str());
  session::ReplayOutcome Outcome;
  if (A.Form == "rt")
    Outcome = session::replayArtifactRt(A, MakeRt());
  else
    Outcome = session::replayArtifactVm(A, MakeVm());
  std::printf("  %s\n", Outcome.Detail.c_str());
  if (!Outcome.Reproduced)
    return 3;
  if (Trace && A.Form == "rt")
    std::printf("\n%s",
                rt::renderBugTrace(MakeRt(), Outcome.Observed,
                                   session::reproExecOptions(A))
                    .c_str());

  if (!Minimize)
    return 0;

  session::MinimizeResult M = A.Form == "rt"
                                  ? session::minimizeRt(A, MakeRt())
                                  : session::minimizeVm(A, MakeVm());
  if (!M.Reproduced) {
    // Cannot happen after a successful replay unless the test is
    // nondeterministic; report it rather than rewriting the artifact.
    std::fprintf(stderr,
                 "minimization could not re-reproduce the bug (%u replays)\n",
                 M.Replays);
    return 3;
  }
  std::printf("  minimized in %u replays: directives %u -> %u, preemptions "
              "%u -> %u, steps %s -> %s\n",
              M.Replays, M.DirectivesBefore, M.DirectivesAfter,
              M.PreemptionsBefore, M.PreemptionsAfter,
              withCommas(A.Found.Steps).c_str(),
              withCommas(M.Minimized.Steps).c_str());
  if (!M.Improved) {
    std::printf("  schedule was already minimal; artifact unchanged\n");
    return 0;
  }
  A.Found = M.Minimized;
  if (!session::saveRepro(Path, A, &Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 4;
  }
  std::printf("  minimized artifact rewritten: %s\n", Path.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Report-side JSON helpers
//===----------------------------------------------------------------------===//

uint64_t icb::tool::jsonNum(const session::JsonValue *V, const char *Key) {
  uint64_t Out = 0;
  if (V)
    V->getU64(Key, Out);
  return Out;
}

std::string icb::tool::jsonStr(const session::JsonValue *V, const char *Key) {
  std::string Out;
  if (V)
    V->getString(Key, Out);
  return Out;
}

int icb::tool::loadJsonDoc(std::string Path, session::JsonValue &Doc) {
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
    Path += "/checkpoint.json";
  std::string Text, Error;
  if (!session::readFile(Path, Text, &Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 4;
  }
  if (!session::jsonParse(Text, Doc, &Error)) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
    return 4;
  }
  return 0;
}
