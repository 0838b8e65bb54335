// The fleet engine's due set (DESIGN.md §9): receivers keyed by their wake
// deadline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sensmart::net {

// A calendar of receiver ids: one bucket per quantum over a window of
// kSlots quanta, each bucket an intrusive doubly-linked list, plus a far
// list for deadlines past the window. Moving a deadline unlinks the id's
// single entry and links it again, so no bucket ever holds a stale entry:
// taking the due ids visits exactly them, and every operation but the
// rare far-list refill is O(1). A deadline of kNever leaves the id out
// until its deadline moves again.
//
// Deadlines are kept in cycles and bucketed by quanta of kQuantum cycles
// (an id is due in the first quantum edge at or after its deadline). The
// quantum is a compile-time constant, so set() divides by a multiply;
// take_due() steps the cycle of the next quantum edge.
template <uint64_t kQuantum>
class DueSet {
  static_assert(kQuantum > 0);

 public:
  static constexpr uint64_t kNever = ~0ULL;

  // Ids 0..n-1, every one due at cycle 0.
  void reset(size_t n) {
    next_q_ = 0;
    next_edge_ = 0;
    head_.assign(kSlots, kNone);
    far_ = kNone;
    far_min_ = kNever;
    wake_.assign(n, 0);
    prev_.assign(n, kNone);
    next_.assign(n, kNone);
    where_.assign(n, kOut);
    for (size_t id = 0; id < n; ++id) link(static_cast<uint32_t>(id));
  }

  uint64_t wake(size_t id) const { return wake_[id]; }

  // Give `id` the deadline `wake`, whether or not it is in the set now.
  void set(size_t id, uint64_t wake) {
    unlink(static_cast<uint32_t>(id));
    wake_[id] = wake;
    link(static_cast<uint32_t>(id));
  }

  // Take every id due at or before cycle `t` out of the set and append it
  // to `out` in increasing id order. Each goes back in with set(). Walks
  // one bucket per quantum since the last call.
  void take_due(uint64_t t, std::vector<uint32_t>& out) {
    const size_t first = out.size();
    while (next_edge_ <= t) {
      uint32_t& head = head_[next_q_ % kSlots];
      for (uint32_t id = head; id != kNone; id = next_[id]) {
        where_[id] = kOut;
        out.push_back(id);
      }
      head = kNone;
      ++next_q_;
      next_edge_ += kQuantum;
      if (far_min_ < next_q_ + kSlots) refill();
    }
    std::sort(out.begin() + static_cast<ptrdiff_t>(first), out.end());
  }

 private:
  static constexpr uint64_t kSlots = 1 << 14;
  static constexpr uint32_t kNone = ~0u;
  static constexpr uint32_t kFar = kSlots;      // where_: on the far list
  static constexpr uint32_t kOut = kSlots + 1;  // where_: not in the set

  // Quantum in which an id with deadline `wake` is due (never before the
  // next one taken): the first edge at or after `wake`.
  uint64_t quantum_of(uint64_t wake) const {
    if (wake <= next_edge_) return next_q_;
    const uint64_t d = wake - next_edge_;
    return next_q_ + d / kQuantum + (d % kQuantum != 0);
  }

  void push_front(uint32_t& head, uint32_t id, uint32_t where) {
    prev_[id] = kNone;
    next_[id] = head;
    if (head != kNone) prev_[head] = id;
    head = id;
    where_[id] = where;
  }
  void link(uint32_t id) {
    if (wake_[id] == kNever) return;
    const uint64_t q = quantum_of(wake_[id]);
    if (q < next_q_ + kSlots) {
      push_front(head_[q % kSlots], id, static_cast<uint32_t>(q % kSlots));
    } else {
      push_front(far_, id, kFar);
      far_min_ = std::min(far_min_, q);
    }
  }
  void unlink(uint32_t id) {
    if (where_[id] == kOut) return;
    uint32_t& head = where_[id] == kFar ? far_ : head_[where_[id]];
    if (prev_[id] != kNone)
      next_[prev_[id]] = next_[id];
    else
      head = next_[id];
    if (next_[id] != kNone) prev_[next_[id]] = prev_[id];
    where_[id] = kOut;
  }
  // Move far-list ids whose quantum entered the window into its buckets.
  void refill() {
    far_min_ = kNever;
    for (uint32_t id = far_; id != kNone;) {
      const uint32_t after = next_[id];
      const uint64_t q = quantum_of(wake_[id]);
      if (q < next_q_ + kSlots) {
        unlink(id);
        link(id);
      } else {
        far_min_ = std::min(far_min_, q);
      }
      id = after;
    }
  }

  uint64_t next_q_ = 0;            // first quantum not yet taken
  uint64_t next_edge_ = 0;         // its first cycle: next_q_ * kQuantum
  std::vector<uint32_t> head_;     // bucket lists, by quantum % kSlots
  uint32_t far_ = kNone;           // ids due past the window
  uint64_t far_min_ = kNever;      // earliest quantum on the far list
  std::vector<uint64_t> wake_;     // deadline by id
  std::vector<uint32_t> prev_, next_;
  std::vector<uint32_t> where_;    // bucket index, kFar or kOut
};

}  // namespace sensmart::net
