//===- tools/common/DistDrive.cpp - --serve/--join CLI drivers ------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "common/DistDrive.h"
#include "dist/Coordinator.h"
#include "dist/Net.h"
#include "dist/Worker.h"
#include "support/Format.h"
#include <cstdlib>
#include <memory>

using namespace icb;
using namespace icb::tool;
using session::JsonValue;

namespace {

/// Positive-integer environment override, or \p Default.
uint64_t envU64(const char *Name, uint64_t Default) {
  const char *Text = std::getenv(Name);
  if (!Text || !*Text)
    return Default;
  char *End = nullptr;
  unsigned long long N = std::strtoull(Text, &End, 10);
  return (End && *End == '\0' && N > 0) ? N : Default;
}

/// Executes one lease against the adopted configuration: a fresh engine
/// with fresh caches and a fresh metrics registry, so everything reported
/// back is a lease-local delta. Roots leases run on one worker (they
/// execute nothing, and one worker hands the seeded frontier back in seed
/// order); drain leases resume from a synthetic snapshot carrying exactly
/// the leased items and use the joiner's local --jobs pool.
dist::LeaseResult runLease(const session::CheckpointMeta &Meta,
                           unsigned Jobs, unsigned Shards,
                           const std::function<rt::TestCase()> &MakeRt,
                           const std::function<vm::Program()> &MakeVm,
                           const dist::LeaseRequest &Req) {
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

  // Per-lease limits stay unlimited — budgets and the bound cap are
  // enforced globally by the coordinator — except stop-at-first-bug,
  // which also cuts the lease short (the unexecuted remainder travels
  // back and is folded into the frontier).
  search::SearchLimits Limits;
  Limits.StopAtFirstBug = Meta.Limits.StopAtFirstBug;
  unsigned LeaseJobs = Req.Roots ? 1 : Jobs;
  search::LeaseMode Mode =
      Req.Roots ? search::LeaseMode::Roots : search::LeaseMode::Drain;

  search::SearchResult R;
  if (Meta.Form == "vm") {
    search::SearchOptions O;
    O.Kind = search::StrategyKind::Icb;
    O.Policy = Policy.get();
    O.UseSleepSets = Meta.Por;
    O.Jobs = LeaseJobs;
    O.Shards = LeaseJobs != 1 ? Shards : 0;
    O.Limits = Limits;
    O.Observer = nullptr;
    O.Resume = Resume;
    O.Metrics = &Reg;
    O.Lease = Mode;
    R = search::checkProgram(MakeVm(), O);
  } else {
    rt::ExploreOptions O;
    O.Limits = Limits;
    O.Policy = Policy.get();
    O.Jobs = LeaseJobs;
    O.Shards = LeaseJobs != 1 ? Shards : 0;
    O.Por = Meta.Por;
    if (Meta.EveryAccess)
      O.Exec.Mode = rt::SchedPointMode::EveryAccess;
    O.Exec.Detector = Meta.Detector == "goldilocks"
                          ? rt::DetectorKind::Goldilocks
                          : rt::DetectorKind::VectorClock;
    O.Resume = Resume;
    O.Metrics = &Reg;
    O.Lease = Mode;
    rt::IcbExplorer Explorer(O);
    R = Explorer.explore(MakeRt());
  }

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
}

} // namespace

int icb::tool::runServe(const std::string &Bind, const RunConfig &Config,
                        SessionState &S, const char *Form,
                        const std::string &DisplayName) {
  if (Config.Strategy != "icb") {
    std::fprintf(stderr,
                 "--serve applies to the icb strategy only (got "
                 "--strategy=%s)\n",
                 Config.Strategy.c_str());
    return 2;
  }
  bool RtForm = std::string(Form) == "rt";

  RunSession Sess(S, Config, Form);
  if (Sess.failed())
    return 4;

  if (Sess.finishedResume()) {
    std::printf("exploring %s'%s' with icb (distributed)...\n",
                RtForm ? "" : "model ", DisplayName.c_str());
    search::SearchResult R;
    Sess.reemitFinished(R);
    printResultSummary(R, Config, RtForm);
    int Rc = Sess.finish(R);
    return std::max(Rc, R.foundBug() ? 1 : 0);
  }

  std::unique_ptr<search::BoundPolicy> Policy = search::makeBoundPolicy(
      {Config.BoundName, Config.MaxBound, Config.VarBound});

  dist::CoordinatorOptions CO;
  CO.Bind = Bind;
  CO.Meta = makeRunMeta(S, Config, Form);
  CO.Limits.MaxExecutions = Config.MaxExecutions;
  CO.Limits.MaxPreemptionBound = Config.MaxBound;
  CO.Limits.StopAtFirstBug = Config.StopAtFirst;
  CO.FrontierBound = Policy->frontierBound();
  CO.LeaseItems =
      static_cast<unsigned>(envU64("ICB_DIST_LEASE_ITEMS", 32));
  CO.HeartbeatMillis = envU64("ICB_DIST_HEARTBEAT_MS", 1000);
  CO.RevokeMillis = envU64("ICB_DIST_REVOKE_MS", 5000);
  CO.Observer = Sess.observer();
  CO.Resume = Sess.resumeSnapshot();
  CO.Metrics = Sess.metrics();

  dist::Coordinator Coord(CO);
  std::string Err;
  if (!Coord.start(&Err)) {
    std::fprintf(stderr, "--serve: %s\n", Err.c_str());
    return 2;
  }
  dist::Endpoint Ep;
  dist::parseEndpoint(Bind, Ep, &Err); // start() already validated it.
  // The header is the one line a distributed run may print differently
  // from a local one (CI filters "^exploring"); flushed eagerly so a
  // wrapper script can scrape the resolved port from a background server.
  std::printf("exploring %s'%s' with icb (serving on %s:%u)...\n",
              RtForm ? "" : "model ", DisplayName.c_str(), Ep.Host.c_str(),
              Coord.port());
  std::fflush(stdout);

  search::SearchResult R = Coord.run();
  printResultSummary(R, Config, RtForm);

  JsonValue Joiners = JsonValue::array();
  for (const dist::JoinerStats &J : Coord.joinerStats()) {
    JsonValue O = JsonValue::object();
    O.set("leases", JsonValue::number(J.Leases));
    O.set("items", JsonValue::number(J.Items));
    O.set("executions", JsonValue::number(J.Executions));
    O.set("steps", JsonValue::number(J.Steps));
    O.set("revocations", JsonValue::number(J.Revocations));
    O.set("reconnect", JsonValue::boolean(J.Reconnect));
    Joiners.Arr.push_back(std::move(O));
  }
  JsonValue Dist = JsonValue::object();
  Dist.set("joiners", std::move(Joiners));
  Sess.setDistBlock(std::move(Dist));

  int Rc = Sess.finish(R);
  return std::max(Rc, R.foundBug() ? 1 : 0);
}

int icb::tool::runJoin(const std::string &Addr, unsigned Jobs,
                       unsigned Shards, const DistResolver &Resolve) {
  /// The identity adopted from the coordinator's hello_ok, shared between
  /// the OnAdopt callback and the lease runner (re-resolved on every
  /// reconnect; the meta is stable for the coordinator's lifetime).
  struct JoinState {
    session::CheckpointMeta Meta;
    std::function<rt::TestCase()> MakeRt;
    std::function<vm::Program()> MakeVm;
  };
  auto State = std::make_shared<JoinState>();

  dist::WorkerOptions WO;
  WO.Connect = Addr;
  WO.MaxConnectAttempts =
      static_cast<unsigned>(envU64("ICB_DIST_CONNECT_ATTEMPTS", 8));
  WO.OnAdopt = [State, Resolve](const session::CheckpointMeta &Meta,
                                std::string *Error) {
    if (Meta.Strategy != "icb") {
      *Error = "coordinator runs strategy '" + Meta.Strategy +
               "'; only icb is distributable";
      return false;
    }
    if (Meta.Form != "rt" && Meta.Form != "vm") {
      *Error = "coordinator runs unknown form '" + Meta.Form + "'";
      return false;
    }
    State->MakeRt = nullptr;
    State->MakeVm = nullptr;
    if (!Resolve(Meta, State->MakeRt, State->MakeVm, Error))
      return false;
    if (Meta.Form == "rt" && !State->MakeRt) {
      *Error = "coordinator runs the runtime form, but '" + Meta.Benchmark +
               "'/'" + Meta.Bug + "' has none here";
      return false;
    }
    if (Meta.Form == "vm" && !State->MakeVm) {
      *Error = "coordinator runs the model-VM form, but '" +
               Meta.Benchmark + "'/'" + Meta.Bug + "' has none here";
      return false;
    }
    State->Meta = Meta;
    return true;
  };
  WO.Runner = [State, Jobs, Shards](const dist::LeaseRequest &Req) {
    return runLease(State->Meta, Jobs, Shards, State->MakeRt, State->MakeVm,
                    Req);
  };

  std::printf("joining coordinator at %s...\n", Addr.c_str());
  std::fflush(stdout);
  dist::Worker W(WO);
  int Rc = W.run();
  if (Rc == 0)
    std::printf("  joiner done: %s lease(s) executed\n",
                withCommas(W.leasesRun()).c_str());
  else
    std::fprintf(stderr, "--join: %s\n", W.error().c_str());
  return Rc;
}
