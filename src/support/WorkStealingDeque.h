//===- support/WorkStealingDeque.h - Per-worker work deque ------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-worker double-ended work queue: the owner pushes and pops at the
/// bottom (LIFO — keeps its own recently produced items hot), thieves take
/// from the top (FIFO — steal the oldest, typically largest, items).
///
/// This is the Chase-Lev lock-free deque (SPAA'05), in the C11
/// memory-model formulation of Le et al. (PPoPP'13), with two deliberate
/// deviations:
///
///   * Items are held by pointer. The search work items carry whole
///     `State` copies / schedule prefixes, so slots would otherwise be
///     torn by a concurrent steal; a pointer slot is a single atomic word
///     and the heap allocation is trivial next to the per-item search
///     work. Ownership transfers with the successful pop/steal.
///   * The standalone seq_cst fences of the reference algorithm are
///     expressed as seq_cst accesses of Top/Bottom instead. The ordering
///     argument is unchanged (the fences exist exactly to order the
///     owner's Bottom store against its Top load, and the thief's Top load
///     against its Bottom load), and ThreadSanitizer — which does not
///     model standalone fences — can then verify the implementation.
///
/// Retired ring buffers are kept alive until the deque is destroyed:
/// a thief may still be reading a slot of an old ring after the owner
/// grows, and the search engine's deques live for one search anyway.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SUPPORT_WORKSTEALINGDEQUE_H
#define ICB_SUPPORT_WORKSTEALINGDEQUE_H

#include <atomic>
#include <cstdint>
#include <utility>

namespace icb {

template <typename T> class WorkStealingDeque {
public:
  WorkStealingDeque() : Buf(new Ring(InitialCapacity)) {}

  ~WorkStealingDeque() {
    // Single-threaded by now (the pool has joined): drop leftovers, then
    // the ring chain.
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_relaxed);
    Ring *R = Buf.load(std::memory_order_relaxed);
    for (int64_t I = Tp; I < B; ++I)
      delete R->get(I);
    while (R) {
      Ring *Prev = R->Prev;
      delete R;
      R = Prev;
    }
  }

  WorkStealingDeque(const WorkStealingDeque &) = delete;
  WorkStealingDeque &operator=(const WorkStealingDeque &) = delete;

  /// Owner side: pushes an item at the bottom.
  void pushBottom(T &&Item) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_acquire);
    Ring *R = Buf.load(std::memory_order_relaxed);
    if (B - Tp >= R->Capacity)
      R = grow(R, Tp, B);
    R->put(B, new T(std::move(Item)));
    // Publish the slot before the new bottom becomes visible to thieves.
    Bottom.store(B + 1, std::memory_order_release);
  }

  /// Owner side: pops the most recently pushed item. Returns false when
  /// the deque is empty.
  bool tryPopBottom(T &Out) {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Ring *R = Buf.load(std::memory_order_relaxed);
    // seq_cst store/load pair: thieves must observe the reservation of
    // slot B before we read Top (the reference algorithm's fence).
    Bottom.store(B, std::memory_order_seq_cst);
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    if (Tp > B) {
      // Empty: undo the reservation.
      Bottom.store(B + 1, std::memory_order_relaxed);
      return false;
    }
    T *Item = nullptr;
    if (Tp != B) {
      // More than one item: slot B cannot be contended.
      Item = R->get(B);
      Out = std::move(*Item);
      delete Item;
      return true;
    }
    // Last item: race the thieves for it via the Top CAS.
    Item = R->get(B);
    bool Won = Top.compare_exchange_strong(
        Tp, Tp + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
    Bottom.store(B + 1, std::memory_order_relaxed);
    if (!Won)
      return false; // A thief claimed (and will delete) the item.
    Out = std::move(*Item);
    delete Item;
    return true;
  }

  /// Thief side: takes the oldest item. Returns false when empty or when
  /// it lost a race (callers retry or move on — spurious failure is part
  /// of the work-stealing contract).
  bool trySteal(T &Out) {
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (Tp >= B)
      return false;
    Ring *R = Buf.load(std::memory_order_acquire);
    T *Item = R->get(Tp);
    // Claim slot Tp before touching the item; the loser never dereferences.
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return false;
    Out = std::move(*Item);
    delete Item;
    return true;
  }

  /// Visits every queued item from the bottom (the next pop) to the top.
  /// Quiescent use only: no other thread may touch the deque meanwhile
  /// (the search engine snapshots its frontier only with no chain in
  /// flight).
  template <typename Fn> void forEachFromBottom(Fn &&Visit) const {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_relaxed);
    const Ring *R = Buf.load(std::memory_order_relaxed);
    for (int64_t I = B; I-- > Tp;)
      Visit(static_cast<const T &>(*R->get(I)));
  }

  /// Racy size hint; exact only while no other thread mutates the deque.
  size_t sizeHint() const {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_relaxed);
    return B > Tp ? static_cast<size_t>(B - Tp) : 0;
  }

private:
  /// A circular array of item pointers. Slots are atomic so a thief's
  /// read of an index racing the owner's store to a *different* index
  /// modulo growth stays well-defined.
  struct Ring {
    explicit Ring(int64_t Cap)
        : Capacity(Cap), Slots(new std::atomic<T *>[Cap]) {}
    ~Ring() { delete[] Slots; }

    T *get(int64_t I) const {
      return Slots[I & (Capacity - 1)].load(std::memory_order_relaxed);
    }
    void put(int64_t I, T *Item) {
      Slots[I & (Capacity - 1)].store(Item, std::memory_order_relaxed);
    }

    const int64_t Capacity; ///< Always a power of two.
    std::atomic<T *> *Slots;
    Ring *Prev = nullptr; ///< Retired predecessor, freed with the deque.
  };

  Ring *grow(Ring *Old, int64_t Tp, int64_t B) {
    Ring *Bigger = new Ring(Old->Capacity * 2);
    for (int64_t I = Tp; I < B; ++I)
      Bigger->put(I, Old->get(I));
    Bigger->Prev = Old;
    Buf.store(Bigger, std::memory_order_release);
    return Bigger;
  }

  static constexpr int64_t InitialCapacity = 64;

  std::atomic<int64_t> Top{0};
  std::atomic<int64_t> Bottom{0};
  std::atomic<Ring *> Buf;
};

} // namespace icb

#endif // ICB_SUPPORT_WORKSTEALINGDEQUE_H
