//===- benchmarks/WsqModel.h - Work-stealing queue as a VM model -*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing queue benchmark expressed as a ZING-side model program
/// (the same THE protocol as benchmarks/WorkStealingQueue.h on the
/// stateless runtime): a victim pushes and pops at the tail, a thief steals
/// at the head under a lock, and the owner falls back to that lock only
/// when contending for the last element. The harness checks every pushed
/// item is taken exactly once.
///
/// Because the victim never overflows the buffer, Items slot globals
/// suffice; push writes the item number into Slots[t] (via a compare chain
/// — the VM has no indexed addressing) before publishing the tail, and
/// pop/steal read the slot back. Per-item take counters turn duplicate
/// takes and lost items into assertion failures.
///
/// The model form is what the parallel ICB engine explores, so this is
/// also the workload of the determinism tests in tests/parallel_test.cpp
/// (identical results for any --jobs value). The seeded bug variants
/// are exposed here through the builder API only — Table 2's registry rows
/// stay exactly as the paper reports them (the runtime-form variants).
///
//===----------------------------------------------------------------------===//

#ifndef ICB_BENCHMARKS_WSQMODEL_H
#define ICB_BENCHMARKS_WSQMODEL_H

#include "benchmarks/WorkStealingQueue.h"
#include "vm/Program.h"

namespace icb::bench {

struct WsqModelConfig {
  /// Items the victim pushes (popping some, the thief stealing others).
  unsigned Items = 3;
  /// Reuses the runtime form's bug taxonomy (WsqBug::None = correct).
  WsqBug Bug = WsqBug::None;
};

/// Builds the victim/thief work-stealing test as a model-VM program.
vm::Program wsqModel(WsqModelConfig Config);

} // namespace icb::bench

#endif // ICB_BENCHMARKS_WSQMODEL_H
