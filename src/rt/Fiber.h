//===- rt/Fiber.h - Cooperative fibers for the scheduler --------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative fibers. The CHESS-style runtime runs every test thread as a
/// fiber so that exactly one thread executes at a time and control returns
/// to the scheduler at every scheduling point — the paper's serialized,
/// fully controlled scheduler, with deterministic replay for free.
///
/// Stateless exploration re-executes the test millions of times, so fiber
/// creation and switching are on the critical path: stacks are pooled
/// across executions and switches use the minimal machine context
/// (FiberContext.h) rather than ucontext's syscall-per-switch.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_RT_FIBER_H
#define ICB_RT_FIBER_H

#include "rt/FiberContext.h"
#include <functional>

namespace icb::rt {

/// One cooperative fiber with its own (pooled) stack. The entry function
/// runs when the fiber is first resumed; when it returns, control
/// transfers back to the context that last resumed the fiber.
class Fiber {
public:
  explicit Fiber(std::function<void()> Entry,
                 size_t StackSize = DefaultStackSize);
  ~Fiber();

  Fiber(const Fiber &) = delete;
  Fiber &operator=(const Fiber &) = delete;

  /// Transfers control into this fiber, saving the caller into \p From.
  /// Returns when the fiber switches back to \p From (or finishes).
  void resume(MachineContext &From);

  /// Switches from this fiber back to \p To. Must be called on the fiber.
  void yieldTo(MachineContext &To);

  /// True once the entry function has returned.
  bool finished() const { return Finished; }

  static constexpr size_t DefaultStackSize = 128 * 1024;

private:
  static void trampoline(void *Self);

  std::function<void()> Entry;
  char *Stack = nullptr;
  size_t StackSize = 0;
  MachineContext Context;
  MachineContext *ReturnTo = nullptr;
  bool Finished = false;
#if defined(__SANITIZE_ADDRESS__)
  /// The stack of the context that last resumed this fiber, which the
  /// ASan switch annotations in Fiber.cpp name when switching back to it.
  const void *ResumerStack = nullptr;
  size_t ResumerStackSize = 0;
#endif
};

} // namespace icb::rt

#endif // ICB_RT_FIBER_H
