//===- support/StripedQueue.h - Lock-striped publish queue ------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-producer queue striped over independent locks. Producers push
/// with a stripe hint (the parallel ICB workers use their worker index, so
/// steady-state pushes are uncontended); a single consumer drains all
/// stripes in stripe order at a barrier. This carries the deferred
/// (preempting) continuations from the workers of bound c to the work
/// queue of bound c + 1. Stripes are chunked deques: a frontier of
/// millions of items grows without the copies and the up-to-2x slack of a
/// doubling vector.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SUPPORT_STRIPEDQUEUE_H
#define ICB_SUPPORT_STRIPEDQUEUE_H

#include <deque>
#include <memory>
#include <mutex>
#include <utility>

namespace icb {

template <typename T> class StripedQueue {
public:
  explicit StripedQueue(unsigned StripeCount)
      : Stripes(StripeCount ? StripeCount : 1),
        Lanes(new Stripe[StripeCount ? StripeCount : 1]) {}

  unsigned stripes() const { return Stripes; }

  /// Pushes an item onto stripe `Hint % stripes()`.
  void push(unsigned Hint, T &&Item) {
    Stripe &Lane = Lanes[Hint % Stripes];
    std::lock_guard<std::mutex> Guard(Lane.Mu);
    Lane.Items.push_back(std::move(Item));
  }

  /// Moves every queued item out, stripe by stripe in stripe order, and
  /// leaves the queue empty. Single-consumer; callers must ensure no
  /// concurrent push (the search engine drains only at bound barriers).
  std::deque<T> drain() {
    std::deque<T> Out;
    for (unsigned I = 0; I != Stripes; ++I) {
      Stripe &Lane = Lanes[I];
      std::lock_guard<std::mutex> Guard(Lane.Mu);
      if (Out.empty()) {
        Out.swap(Lane.Items);
        continue;
      }
      // Popping as we go frees the source chunks while Out grows.
      while (!Lane.Items.empty()) {
        Out.push_back(std::move(Lane.Items.front()));
        Lane.Items.pop_front();
      }
    }
    return Out;
  }

  /// Visits every queued item in drain order without removing it. Same
  /// contract as drain(): no concurrent push.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (unsigned I = 0; I != Stripes; ++I) {
      const Stripe &Lane = Lanes[I];
      std::lock_guard<std::mutex> Guard(Lane.Mu);
      for (const T &Item : Lane.Items)
        Visit(Item);
    }
  }

  bool empty() const {
    for (unsigned I = 0; I != Stripes; ++I) {
      Stripe &Lane = Lanes[I];
      std::lock_guard<std::mutex> Guard(Lane.Mu);
      if (!Lane.Items.empty())
        return false;
    }
    return true;
  }

private:
  struct Stripe {
    mutable std::mutex Mu;
    std::deque<T> Items;
  };

  unsigned Stripes;
  std::unique_ptr<Stripe[]> Lanes;
};

} // namespace icb

#endif // ICB_SUPPORT_STRIPEDQUEUE_H
