//===- io/ManagedHeap.cpp - Quarantine + poison heap arena ----------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "io/ManagedHeap.h"
#include "rt/Scheduler.h"
#include "support/Format.h"
#include <cstdlib>
#include <cstring>

using namespace icb;
using namespace icb::io;

namespace {

thread_local ManagedHeap WorkerHeap;

/// 16 bytes so payloads keep malloc's max_align_t alignment.
struct alignas(16) Header {
  uint32_t Magic;
  uint32_t Index; ///< Block serial == index into Blocks.
  uint64_t Pad;
};
static_assert(sizeof(Header) == 16, "header must preserve alignment");

constexpr uint32_t kLiveMagic = 0xA110CA7Eu;
constexpr uint32_t kFreedMagic = 0xDEADBEA7u;
constexpr unsigned char kPoison = 0xDB;

Header *headerOf(void *P) {
  return reinterpret_cast<Header *>(static_cast<unsigned char *>(P) -
                                    sizeof(Header));
}

[[noreturn]] void reportHeapBug(const std::string &Msg) {
  rt::Scheduler *S = rt::Scheduler::current();
  // The arena is only live inside a controlled execution, so the
  // scheduler is there to receive the report.
  S->failExecution(rt::RunStatus::UseAfterFree, Msg);
  std::abort(); // failExecution never returns.
}

} // namespace

ManagedHeap &ManagedHeap::current() { return WorkerHeap; }

void ManagedHeap::begin() {
  reset();
  Live = true;
}

void ManagedHeap::end() {
  if (Live)
    sweep();
  reset();
}

void ManagedHeap::reset() {
  for (Block &B : Blocks)
    std::free(B.Raw);
  Blocks.clear();
  Live = false;
}

int ManagedHeap::blockIndex(void *P) const {
  if (!P)
    return -1;
  const Header *H = headerOf(P);
  if (H->Magic != kLiveMagic && H->Magic != kFreedMagic)
    return -1;
  size_t I = H->Index;
  if (I >= Blocks.size() || Blocks[I].Raw + sizeof(Header) != P)
    return -1;
  return static_cast<int>(I);
}

bool ManagedHeap::owns(void *P) const { return blockIndex(P) >= 0; }

void *ManagedHeap::allocate(size_t N) {
  size_t Payload = N ? N : 1;
  auto *Raw =
      static_cast<unsigned char *>(std::malloc(sizeof(Header) + Payload));
  if (!Raw)
    return nullptr;
  auto *H = reinterpret_cast<Header *>(Raw);
  H->Magic = kLiveMagic;
  H->Index = static_cast<uint32_t>(Blocks.size());
  H->Pad = 0;
  Blocks.push_back(Block{Raw, Payload, /*Alive=*/true});
  return Raw + sizeof(Header);
}

void *ManagedHeap::callocate(size_t Count, size_t Size) {
  if (Size != 0 && Count > SIZE_MAX / Size)
    return nullptr;
  size_t N = Count * Size;
  void *P = allocate(N);
  if (P)
    std::memset(P, 0, N ? N : 1);
  return P;
}

void *ManagedHeap::reallocate(void *P, size_t N) {
  if (!P)
    return allocate(N);
  int I = blockIndex(P);
  if (I < 0)
    return std::realloc(P, N); // Foreign block: pass through.
  const Block &B = Blocks[static_cast<size_t>(I)];
  if (!B.Alive)
    reportHeapBug(strFormat("double free: realloc of freed heap block #%d "
                            "(%zu bytes)",
                            I, B.Size));
  // allocate() may grow Blocks, which would leave B dangling.
  size_t OldSize = B.Size;
  void *Q = allocate(N);
  if (!Q)
    return nullptr;
  std::memcpy(Q, P, OldSize < N ? OldSize : N);
  release(P);
  return Q;
}

void ManagedHeap::release(void *P) {
  if (!P)
    return;
  // Sweep first so a poison trample is attributed at the earliest free
  // after the stray write, deterministically.
  sweep();
  int I = blockIndex(P);
  if (I < 0) {
    std::free(P); // Foreign block (allocated outside the execution).
    return;
  }
  Block &B = Blocks[static_cast<size_t>(I)];
  if (!B.Alive)
    reportHeapBug(
        strFormat("double free of heap block #%d (%zu bytes)", I, B.Size));
  auto *H = reinterpret_cast<Header *>(B.Raw);
  H->Magic = kFreedMagic;
  B.Alive = false;
  // Quarantine: poison, keep the pages, release only at execution end.
  std::memset(B.Raw + sizeof(Header), kPoison, B.Size);
}

void ManagedHeap::sweep() {
  for (size_t I = 0; I != Blocks.size(); ++I) {
    const Block &B = Blocks[I];
    if (B.Alive)
      continue;
    const auto *H = reinterpret_cast<const Header *>(B.Raw);
    const unsigned char *Payload = B.Raw + sizeof(Header);
    bool Intact = H->Magic == kFreedMagic;
    for (size_t J = 0; Intact && J != B.Size; ++J)
      Intact = Payload[J] == kPoison;
    if (!Intact)
      reportHeapBug(strFormat("use-after-free: heap block #%zu (%zu bytes) "
                              "modified after free",
                              I, B.Size));
  }
}
