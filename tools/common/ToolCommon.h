//===- tools/common/ToolCommon.h - Shared checker-CLI plumbing --*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line core shared by icb_check, icb_run, and icb_report:
/// the search/session flag set, the RunSession plumbing (manifest,
/// checkpointing, progress, repro artifacts), the runtime- and model-form
/// run drivers, resume loading with conflict checking, and the
/// replay/minimize driver parameterized over artifact resolution.
///
/// Tools differ only in where tests come from — the benchmark registry
/// (icb_check), a dlopen'ed pthreads module (icb_run), or a recorded
/// manifest (icb_report) — so everything downstream of test resolution
/// lives here and the tools stay thin.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_TOOLS_COMMON_TOOLCOMMON_H
#define ICB_TOOLS_COMMON_TOOLCOMMON_H

#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "rt/Explore.h"
#include "search/BoundPolicy.h"
#include "search/Checker.h"
#include "session/Checkpoint.h"
#include "session/DirLock.h"
#include "session/Json.h"
#include "session/Manifest.h"
#include "session/Repro.h"
#include "support/CommandLine.h"
#include <chrono>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace icb::tool {

/// The exit-code contract shared by the checking tools; append to the
/// tool-specific first line when building the --help banner.
extern const char kExitCodesHelp[];

/// One run's search configuration, read from the shared flag set.
struct RunConfig {
  std::string Strategy = "icb";
  unsigned MaxBound = 4;
  uint64_t MaxExecutions = 1u << 20;
  uint64_t Seed = 1;
  unsigned Jobs = 1;
  unsigned Shards = 0;
  bool Trace = false;
  /// --trace=FILE: export a Perfetto/Chrome trace of the search itself
  /// here after the run (empty = off). Distinct from bare --trace, which
  /// replays and prints the counterexample.
  std::string TraceFile;
  bool StopAtFirst = true;
  bool EveryAccess = false;
  /// Bounded POR (sleep sets composed with the preemption bound). On by
  /// default for the icb strategy; forced off for every other strategy.
  bool Por = true;
  bool PreferModel = false;
  std::string Detector = "vc";
  /// Bound policy family for the icb strategy ("preemption", "delay",
  /// "thread"); MaxBound carries the K of --bound=NAME:K and VarBound the
  /// optional variable bound of the thread policy.
  std::string BoundName = "preemption";
  unsigned VarBound = 0;
  bool Progress = false;
  uint64_t ProgressEveryMillis = 1000;
  /// Append one CSV row per progress tick to this file (empty = off).
  std::string MetricsCsv;
};

/// Session-wide state shared by the per-variant runs: manifest, repro
/// output, checkpointing, and (for one variant) a loaded resume snapshot.
struct SessionState {
  session::Manifest *Json = nullptr;
  std::string JsonPath;
  std::string ReproDir;
  std::string CheckpointDir;
  uint64_t CheckpointEvery = 0;
  const session::CheckpointData *Resume = nullptr;
  std::string Benchmark; ///< Current run identity (set per variant).
  std::string Bug;       ///< Bug variant label, "default" for none.
};

/// Bridges the engine observer to the optional checkpoint sink and the
/// optional per-bound manifest refresh.
class ToolObserver final : public search::EngineObserver {
public:
  session::CheckpointSink *Sink = nullptr;
  /// Cadence source for progress sampling. Rendering to stderr is gated
  /// separately (RenderMeter) so --metrics-csv can drive the sampling
  /// clock without implying the ticker.
  obs::ProgressMeter *Meter = nullptr;
  bool RenderMeter = true;
  std::function<void(const search::BoundCoverage &)> BoundHook;
  /// Fires on every claimed progress tick, before rendering (--metrics-csv).
  std::function<void(const obs::ProgressSample &)> SampleHook;

  bool checkpointDue(uint64_t Executions) override {
    return Sink && Sink->checkpointDue(Executions);
  }
  bool stopRequested() override { return Sink && Sink->stopRequested(); }
  void onCheckpoint(const search::EngineSnapshot &Snap) override {
    if (Sink)
      Sink->onCheckpoint(Snap);
  }
  void onBoundComplete(const search::BoundCoverage &Snapshot) override {
    if (BoundHook)
      BoundHook(Snapshot);
  }
  // Polled by every worker on the hot path: the meter's deadline check is
  // a single relaxed atomic load until a tick is actually due.
  bool progressDue() override { return Meter && Meter->due(); }
  void onProgress(const obs::ProgressSample &Sample) override {
    if (SampleHook)
      SampleHook(Sample);
    if (Meter && RenderMeter)
      Meter->tick(Sample);
  }
};

/// Per-run session plumbing shared by the runtime and model forms: opens
/// the manifest record, installs signal handling + checkpoint sink when
/// requested, and finalizes everything (repros, manifest, exit code)
/// after the search returns.
class RunSession {
public:
  RunSession(SessionState &S, const RunConfig &Config, const char *Form);
  ~RunSession();

  bool failed() const { return Failed; }
  search::EngineObserver *observer() {
    return (S.Json || Sink || Meter) ? &Obs : nullptr;
  }
  obs::MetricsRegistry *metrics() { return &Metrics; }
  /// The engine-level snapshot to resume from (null when none, or when the
  /// checkpoint describes a finished run — see finishedResume()).
  const search::EngineSnapshot *resumeSnapshot() const {
    return (S.Resume && !S.Resume->Snap.Final) ? &S.Resume->Snap : nullptr;
  }
  /// True when --resume points at a finished run's final checkpoint: its
  /// results are re-emitted without searching again (reemitFinished()).
  bool finishedResume() const { return S.Resume && S.Resume->Snap.Final; }
  /// When finishedResume(), fills \p R with the checkpoint's stats and
  /// bugs, restores its metrics into this run's registry (so finish()
  /// writes them to the manifest), and returns true; otherwise leaves
  /// \p R alone and returns false.
  bool reemitFinished(search::SearchResult &R);

  uint64_t wallMillis() const;

  /// Attaches a distributed-run block (per-joiner lease accounting) to the
  /// run's manifest record; written by finish(). Timing-class by nature —
  /// the CI determinism diffs drop it alongside metrics.timing.
  void setDistBlock(session::JsonValue Block) {
    Dist = std::move(Block);
    HaveDist = true;
  }

  /// Repro artifacts, final manifest record, checkpoint error surfacing.
  /// Returns the session part of the exit code (0, 4, or 130).
  int finish(const search::SearchResult &R);

private:
  void csvRow(const obs::ProgressSample &P);

  SessionState &S;
  const RunConfig &Config;
  const char *Form;
  ToolObserver Obs;
  /// Advisory exclusive lock on the checkpoint directory: two concurrent
  /// runs (plain or --serve) writing one dir would corrupt each other's
  /// resume state, so the loser exits 4 instead.
  session::DirLock Lock;
  std::unique_ptr<session::SignalGuard> Guard;
  std::unique_ptr<session::CheckpointSink> Sink;
  /// One registry per run: each variant's manifest record carries its own
  /// metrics. Under ICB_NO_METRICS every shard stays zero, the snapshot
  /// reports empty(), and the manifest block is simply omitted.
  obs::MetricsRegistry Metrics;
  std::unique_ptr<obs::ProgressMeter> Meter;
  std::FILE *Csv = nullptr; ///< --metrics-csv sink (append mode).
  session::JsonValue Dist;  ///< --serve: per-joiner manifest block.
  bool HaveDist = false;
  std::vector<search::BoundCoverage> Bounds;
  size_t RunIdx = 0;
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  uint64_t PriorWall = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Flag registration / parsing
//===----------------------------------------------------------------------===//

/// Registers the search flags every checking tool shares: strategy,
/// bounds, budget, parallelism, trace, detector, progress.
void addSearchFlags(FlagSet &Flags);

/// Registers the session flags: manifest, checkpointing, resume, replay,
/// minimize, repro output.
void addSessionFlags(FlagSet &Flags);

/// Splits the optional-value --trace flag's text: bare `--trace` (and
/// on/true/1) asks for the counterexample printout, `--trace=FILE` names
/// a Perfetto trace output path, off/false/0/absent means neither.
void readTraceFlag(const std::string &Text, bool &PrintTrace,
                   std::string &TraceFile);

/// Reads the search flags into \p Config and validates the combinations
/// that have no defined meaning (--jobs off-icb, --shards without --jobs,
/// non-positive --progress-every). Returns false after printing a usage
/// error (exit 2).
bool readRunConfig(const FlagSet &Flags, RunConfig &Config);

/// Reads the session flags into \p S, validates the checkpoint/resume
/// combinations, and reports --resume's directory through \p ResumeDir
/// (empty when not resuming; the caller then runs applyResume). Returns
/// false after printing a usage error (exit 2).
bool readSessionFlags(const FlagSet &Flags, SessionState &S,
                      std::string &ResumeDir);

/// --replay is a mode of its own: a deterministic re-execution, not a
/// search. Rejects any search/session flag set alongside it; tools pass
/// their identity flags (e.g. icb_check's benchmark/bug/model) in
/// \p ExtraFlags. Returns false after printing a usage error (exit 2).
bool checkReplayExclusive(const FlagSet &Flags,
                          std::initializer_list<const char *> ExtraFlags);

/// --checkpoint-dir/--resume are implemented for the icb strategy only.
/// Returns false after printing a usage error (exit 2).
bool checkSessionStrategy(const RunConfig &Config, const SessionState &S);

/// --join adopts the coordinator's recorded configuration the way
/// --resume adopts a checkpoint's, so every search/session flag except
/// the joiner's local topology (--jobs/--shards) is rejected alongside
/// it; tools pass their identity flags in \p ExtraFlags. Returns false
/// after printing a usage error (exit 2).
bool checkJoinExclusive(const FlagSet &Flags,
                        std::initializer_list<const char *> ExtraFlags);

/// The checkpoint meta describing one run's identity and configuration —
/// written into checkpoints and sent to distributed joiners in the
/// hello_ok handshake (dist/Protocol.h).
session::CheckpointMeta makeRunMeta(const SessionState &S,
                                    const RunConfig &C, const char *Form);

/// The post-search stdout block shared by the local drivers and the
/// distributed coordinator: the executions/steps/states line, the
/// per-bound lines (runtime form only), one BUG line per bug (\p PerBug,
/// when set, prints a bug's extras directly after its line), and the
/// no-bug-within-bound line. Keeping one printer is what lets the CI diff
/// a --serve run's stdout against a --jobs 1 run's.
void printResultSummary(const search::SearchResult &R,
                        const RunConfig &Config, bool RtForm,
                        const std::function<void(const search::Bug &)>
                            &PerBug = nullptr);

/// Loads \p ResumeDir's checkpoint into \p Data, rejects CLI flags that
/// conflict with the recorded run, adopts the recorded values for
/// everything left unset, and points \p S at the loaded data.
///
/// --jobs/--shards are deliberately exempt from conflict checking: the
/// frontier is worker-topology-neutral, so a run killed at --jobs 4 may
/// resume at --jobs 1 and vice versa. An explicit flag wins; otherwise
/// the recorded topology is adopted (shards reset to auto when the new
/// job count is 1).
///
/// \p BenchName/\p BugLabel are the tool's identity strings, checked
/// against the recorded identity and overwritten with it; pass nullptr
/// when the tool has no such flags (icb_run checks the module name
/// itself). Returns 0 on success, 2 on conflict, 4 when the checkpoint
/// cannot be loaded.
int applyResume(const FlagSet &Flags, const std::string &ResumeDir,
                session::CheckpointData &Data, RunConfig &Config,
                SessionState &S, std::string *BenchName,
                std::string *BugLabel);

/// The manifest `config` block fields common to all tools; the caller
/// adds its identity fields (benchmark/bug or module/test) on top.
session::JsonValue configRecord(const RunConfig &Config);

//===----------------------------------------------------------------------===//
// Run + replay drivers
//===----------------------------------------------------------------------===//

/// Runs one runtime-form test; returns 1 when a bug was found, 130 when
/// interrupted, 2 on a configuration error, 4 on a session I/O failure.
int runRt(const rt::TestCase &Test, const RunConfig &Config, SessionState &S);

/// Runs one model-form test; same exit-code scheme as runRt.
int runVm(const vm::Program &Prog, const RunConfig &Config, SessionState &S);

/// Resolves a loaded artifact's identity to runnable forms. Returns false
/// (after printing a message) when the artifact does not resolve; leave a
/// form's factory empty when the tool cannot produce it.
using ArtifactResolver =
    std::function<bool(const session::ReproArtifact &,
                       std::function<rt::TestCase()> &MakeRt,
                       std::function<vm::Program()> &MakeVm)>;

/// The --replay[ --minimize] entry: deterministic re-execution of one
/// .icbrepro, resolving its identity through \p Resolve. \p BoundName is
/// the policy family an explicit --bound requested (empty = replay under
/// whatever the artifact recorded); a mismatch is a replay failure (3),
/// since the recorded schedule was found under a different budget. Exit 0
/// iff the recorded bug reproduces (and, with --minimize, the artifact
/// was rewritten); 3 when the bug fails to reproduce, 2 when the artifact
/// does not resolve, 4 when the file cannot be read or rewritten.
int replayArtifact(const std::string &Path, bool Minimize, bool Trace,
                   const std::string &BoundName,
                   const ArtifactResolver &Resolve);

//===----------------------------------------------------------------------===//
// Report-side JSON helpers (icb_report)
//===----------------------------------------------------------------------===//

/// Missing-tolerant field reads used when rendering recorded runs.
uint64_t jsonNum(const session::JsonValue *V, const char *Key);
std::string jsonStr(const session::JsonValue *V, const char *Key);

/// FILE-OR-DIR convenience: a directory argument resolves to the
/// checkpoint.json inside it. Parses the file into \p Doc; returns 0, or
/// 4 (after printing a message) when it cannot be read or parsed.
int loadJsonDoc(std::string Path, session::JsonValue &Doc);

} // namespace icb::tool

#endif // ICB_TOOLS_COMMON_TOOLCOMMON_H
