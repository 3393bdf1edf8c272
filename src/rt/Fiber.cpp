//===- rt/Fiber.cpp - Cooperative fibers for the scheduler ----------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Fiber.h"
#include "support/Debug.h"
#include <vector>

// AddressSanitizer must be told about every switch between stacks, or it
// reports false positives on the fiber stacks ("False positive error
// reports may follow"). Outside an ASan build none of this is compiled.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

using namespace icb;
using namespace icb::rt;

namespace {

/// Set once this thread's pool is destroyed. Trivially destructible, so it
/// stays readable for the rest of the thread's exit: a fiber released
/// after the pool (say, by another thread-local's destructor) bypasses it.
thread_local bool PoolDestroyed = false;

/// Pool of default-sized stacks, reused across executions. Thread-local:
/// each worker thread (each Scheduler instance) recycles its own stacks,
/// so parallel exploration needs no synchronization here. The pool is
/// bounded by the maximum number of simultaneously live fibers, and frees
/// its stacks when its thread exits.
struct StackPool {
  std::vector<char *> Stacks;
  ~StackPool() {
    for (char *Stack : Stacks)
      delete[] Stack;
    PoolDestroyed = true;
  }
};

std::vector<char *> &stackPool() {
  thread_local StackPool Pool;
  return Pool.Stacks;
}

char *acquireStack(size_t Size) {
  if (Size == Fiber::DefaultStackSize && !PoolDestroyed &&
      !stackPool().empty()) {
    char *Stack = stackPool().back();
    stackPool().pop_back();
#if defined(__SANITIZE_ADDRESS__)
    // A fiber that Scheduler::teardown abandoned without unwinding left
    // its frames' redzones poisoned on this stack.
    __asan_unpoison_memory_region(Stack, Size);
#endif
    return Stack;
  }
  return new char[Size];
}

void releaseStack(char *Stack, size_t Size) {
  if (Size == Fiber::DefaultStackSize && !PoolDestroyed &&
      stackPool().size() < 64) {
    stackPool().push_back(Stack);
    return;
  }
  delete[] Stack;
}

} // namespace

Fiber::Fiber(std::function<void()> EntryFn, size_t StackSizeBytes)
    : Entry(std::move(EntryFn)), Stack(acquireStack(StackSizeBytes)),
      StackSize(StackSizeBytes) {
  Context = makeFiberContext(Stack, StackSize, &Fiber::trampoline, this);
}

Fiber::~Fiber() { releaseStack(Stack, StackSize); }

void Fiber::trampoline(void *SelfPtr) {
  Fiber *Self = static_cast<Fiber *>(SelfPtr);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &Self->ResumerStack,
                                  &Self->ResumerStackSize);
#endif
  Self->Entry();
  Self->Finished = true;
  // Return control to whoever resumed us last; this context is dead, so
  // the save slot is a throwaway.
  ICB_ASSERT(Self->ReturnTo, "fiber finished with no return context");
  MachineContext Dead;
#if defined(__SANITIZE_ADDRESS__)
  // A null save slot: this stack is never switched back to.
  __sanitizer_start_switch_fiber(nullptr, Self->ResumerStack,
                                 Self->ResumerStackSize);
#endif
  switchFiberContext(Dead, *Self->ReturnTo);
  ICB_UNREACHABLE("switched back into a finished fiber");
}

void Fiber::resume(MachineContext &From) {
  ICB_ASSERT(!Finished, "resume of a finished fiber");
  ReturnTo = &From;
#if defined(__SANITIZE_ADDRESS__)
  void *FakeStack = nullptr;
  __sanitizer_start_switch_fiber(&FakeStack, Stack, StackSize);
#endif
  switchFiberContext(From, Context);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(FakeStack, nullptr, nullptr);
#endif
}

void Fiber::yieldTo(MachineContext &To) {
#if defined(__SANITIZE_ADDRESS__)
  void *FakeStack = nullptr;
  __sanitizer_start_switch_fiber(&FakeStack, ResumerStack, ResumerStackSize);
#endif
  switchFiberContext(Context, To);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(FakeStack, &ResumerStack,
                                  &ResumerStackSize);
#endif
}
