//===- search/SearchTypes.h - Bugs, limits, statistics ----------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary of both search engines — the ZING-style model-VM
/// strategies and the CHESS-style stateless explorers: bug reports with
/// their preemption counts (ICB's headline guarantee is that the first
/// exposure of a bug carries the *minimum* number of preemptions), resource
/// limits, and the statistics the experiment harnesses consume (Table 1's
/// K/B/c maxima, coverage curves for Figures 1-6).
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SEARCH_SEARCHTYPES_H
#define ICB_SEARCH_SEARCHTYPES_H

#include "support/Stats.h"
#include "trace/Schedule.h"
#include "vm/Ids.h"
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace icb::search {

/// The classes of errors a search can uncover. The first three come from
/// the model VM; the runtime (fiber) executor adds the dynamic detectors.
enum class BugKind : uint8_t {
  AssertFailure, ///< A model Assert / rt::testAssert evaluated false.
  Deadlock,      ///< Some thread is not Done, yet no thread is enabled.
  ModelError,    ///< The model itself misbehaved (bad unlock, runaway loop).
  DataRace,      ///< The per-execution race detector fired (runtime only).
  UseAfterFree,  ///< A managed object was touched after destruction.
  Diverged,      ///< Replay mismatch: the test is nondeterministic.
};

const char *bugKindName(BugKind Kind);

/// Inverse of bugKindName (repro/checkpoint loading); returns false on an
/// unrecognized name.
bool bugKindFromName(const std::string &Name, BugKind &Out);

/// One discovered bug, with the evidence needed to replay and rank it.
struct Bug {
  BugKind Kind = BugKind::AssertFailure;
  std::string Message;
  /// Preempting context switches in the exposing execution. Under ICB this
  /// is minimal over all executions exposing the same bug.
  unsigned Preemptions = 0;
  /// Context switches of either kind (runtime executor only; 0 for VM).
  unsigned ContextSwitches = 0;
  /// Length (steps) of the exposing execution.
  uint64_t Steps = 0;
  /// The exposing schedule: thread chosen at each scheduling point.
  std::vector<vm::ThreadId> Schedule;
  /// Runtime executor only: the annotated replayable schedule (preempting
  /// vs nonpreempting switches). Empty for model-VM bugs.
  trace::Schedule Sched;

  std::string str() const;
};

/// Resource limits for a search. Defaults are "unlimited".
struct SearchLimits {
  uint64_t MaxExecutions = std::numeric_limits<uint64_t>::max();
  uint64_t MaxSteps = std::numeric_limits<uint64_t>::max();
  uint64_t MaxStates = std::numeric_limits<uint64_t>::max();
  /// ICB only: stop after completely exploring this preemption bound.
  unsigned MaxPreemptionBound = std::numeric_limits<unsigned>::max();
  bool StopAtFirstBug = false;
};

/// One frontier work item in executor-neutral form: replay \p Prefix from
/// the initial state, then schedule \p Next (NoNext for the root item's
/// free first choice). This is both the checkpoint form (EngineObserver.h)
/// and the wire form leased between distributed checking processes
/// (dist/).
struct SavedWorkItem {
  static constexpr uint32_t NoNext = ~0u;

  std::vector<uint32_t> Prefix;
  uint32_t Next = NoNext;
  /// Threads asleep at the item's start state (bounded POR); empty when
  /// POR is off. Serialized only when non-empty (checkpoint format v3).
  std::vector<uint32_t> Sleep;
  /// BoundPolicy budget state (checkpoint format v4): the thread and
  /// variable sets a stateful policy carries. Empty for the preemption
  /// and delay policies; serialized only when non-empty.
  std::vector<uint32_t> BoundThreads;
  std::vector<uint64_t> BoundVars;
  /// Schedule-space mass assigned to the item's subtree (checkpoint
  /// format v5, see obs::EstimateOne); serialized only when nonzero so
  /// old checkpoints load with the estimator simply uncredited.
  uint64_t EstMass = 0;
  /// Display name of the preemption site that seeded this subtree
  /// (checkpoint format v5); empty for roots/free branches of untraced
  /// provenance and serialized only when non-empty.
  std::string Site;
};

/// How the ICB driver participates in a distributed run (dist/). A lease
/// is one batch of a single bound's work items executed in isolation by a
/// worker process with fresh caches; the coordinator owns the global
/// frontier and merges the per-lease deltas commutatively.
enum class LeaseMode : uint8_t {
  Off,   ///< Run Algorithm 1 in full (the default).
  Roots, ///< Seed the bound-0 frontier (executor root items charged and
         ///< mass-split exactly as a local run would) and return both
         ///< queues *unexecuted*; the degenerate no-schedulable-thread
         ///< program still accounts its single execution.
  Drain, ///< Resume from a synthetic snapshot carrying one bound's leased
         ///< items, drain exactly that bound, and return the deferred
         ///< continuations instead of advancing. Per-bound/coverage rows
         ///< are suppressed — the coordinator owns the bound barrier.
};

/// One sample of the states-vs-executions coverage curve (Figures 2/5/6).
struct CoveragePoint {
  uint64_t Executions = 0;
  uint64_t States = 0;
};

/// Distinct states discovered by the time a preemption bound was fully
/// explored (Figures 1/4).
struct BoundCoverage {
  unsigned Bound = 0;
  uint64_t States = 0;
  uint64_t Executions = 0;
};

/// Aggregate statistics of one search run.
struct SearchStats {
  uint64_t Executions = 0;
  uint64_t TotalSteps = 0;
  /// Distinct visited states. The model VM counts exact state hashes; the
  /// stateless runtime counts distinct happens-before fingerprints over
  /// every execution prefix (Section 4.3's coverage metric).
  uint64_t DistinctStates = 0;
  /// Distinct fingerprints of complete executions (runtime executor only;
  /// 0 for the model VM, which has exact terminal states instead).
  uint64_t DistinctTerminalStates = 0;
  /// Per-execution distributions; maxima feed Table 1.
  MinMax StepsPerExecution;   ///< K.
  MinMax BlockingPerExecution; ///< B.
  MinMax PreemptionsPerExecution; ///< c.
  /// Threads used per execution (runtime executor only; empty for VM).
  MinMax ThreadsPerExecution;
  /// Executions per preemption count. Since ICB and (uncached) DFS both
  /// enumerate every execution exactly once, their histograms must be
  /// equal — the test suite cross-validates the two engines this way.
  Histogram PreemptionHistogram;
  /// Sampled once per completed execution.
  std::vector<CoveragePoint> Coverage;
  /// ICB only: snapshot after each bound is exhausted.
  std::vector<BoundCoverage> PerBound;
  /// True if the strategy exhausted the state space within the limits.
  bool Completed = false;
};

/// Everything a strategy returns.
struct SearchResult {
  SearchStats Stats;
  std::vector<Bug> Bugs;
  /// True if an external stop (SIGINT/SIGTERM via the engine observer) cut
  /// the run short; a resumable checkpoint was emitted in that case.
  bool Interrupted = false;
  /// Lease-mode output (LeaseMode != Off; empty otherwise). Roots mode:
  /// LeaseCurrent/LeaseDeferred are the two seeded queues. Drain mode:
  /// LeaseCurrent holds whatever was left unexecuted when a limit or stop
  /// cut the lease short (normally empty), LeaseDeferred the continuations
  /// published for bound c + 1. The digest vectors are the lease-local
  /// distinct visited/terminal/work-item digests — the coordinator folds
  /// them into its authoritative sets to reconstruct the global hit/miss
  /// counter split.
  std::vector<SavedWorkItem> LeaseCurrent;
  std::vector<SavedWorkItem> LeaseDeferred;
  std::vector<uint64_t> LeaseSeen;
  std::vector<uint64_t> LeaseTerminal;
  std::vector<uint64_t> LeaseItems;

  bool foundBug() const { return !Bugs.empty(); }
  /// The bug with the fewest preemptions (the "simplest explanation").
  const Bug *simplestBug() const;
};

/// Deduplicates bugs by (kind, message), keeping the exposure with the
/// fewest preemptions. Strategies report every exposure; Table 2 wants one
/// row per distinct bug at its minimal bound.
class BugCollector {
public:
  /// Records an exposure; returns true if this is a new distinct bug.
  bool add(Bug NewBug);

  const std::vector<Bug> &bugs() const { return Bugs; }
  bool empty() const { return Bugs.empty(); }
  std::vector<Bug> take() { return std::move(Bugs); }

private:
  std::vector<Bug> Bugs;
  std::map<std::pair<BugKind, std::string>, size_t> Index;
};

/// Distinct bugs keyed by (kind, message), each holding its canonical
/// minimal exposure.
using CanonicalBugMap = std::map<std::pair<BugKind, std::string>, Bug>;

/// Keeps the lexicographically smallest (Preemptions, Steps, Schedule)
/// exposure per distinct (kind, message) bug. Taking a minimum is
/// associative and commutative, so merging maps in any order — and
/// accumulating exposures within a worker in any order — yields the same
/// final map. That is what makes bug reports reproducible across worker
/// counts.
void canonicalMergeBug(CanonicalBugMap &Into, Bug NewBug);

/// Flattens a canonical map into report order (sorted by kind, message —
/// std::map iteration order, hence deterministic).
std::vector<Bug> takeCanonicalBugs(CanonicalBugMap &&Map);

} // namespace icb::search

#endif // ICB_SEARCH_SEARCHTYPES_H
