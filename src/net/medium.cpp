#include "net/medium.hpp"

#include <algorithm>

#include "net/frame.hpp"

namespace sensmart::net {

using emu::DeviceHub;

Medium::Arrival& Medium::arrival_at(uint64_t at) {
  for (Arrival& a : batch_)
    if (a.at == at) return a;
  Arrival& a = batch_.emplace_back();
  a.at = at;
  a.seq = enqueue_seq_++;
  return a;
}

void Medium::add_partition(std::span<const size_t> a,
                           std::span<const size_t> b, uint64_t begin,
                           uint64_t end) {
  for (size_t x : a)
    for (size_t y : b) {
      outages_.push_back({x, y, begin, end});
      outages_.push_back({y, x, begin, end});
    }
}

bool Medium::in_outage(size_t from, size_t to, uint64_t at) const {
  for (const LinkOutage& o : outages_) {
    if ((o.from == kAnyNode || o.from == from) &&
        (o.to == kAnyNode || o.to == to) && at >= o.begin && at < o.end)
      return true;
  }
  return false;
}

// Capture-model collision resolution: a delivery is destroyed at its
// receiver iff the transmission log holds an audible transmission that
// overlaps its airtime and either (a) came from the receiver itself
// (half-duplex) or (b) completed first — with a (done, sender-id) total
// order breaking exact ties. Purely a function of the deterministic
// transmission schedule; consumes no randomness.
//
// Only log entries that can overlap are visited: a competitor ends at most
// kMaxAirtime after it starts, so the scan begins at the first entry
// starting after tx_start - kMaxAirtime and stops at the first one starting
// at or after tx_done.
bool Medium::collided(size_t from, size_t to, uint64_t tx_start,
                      uint64_t tx_done) const {
  const uint64_t earliest = tx_start > kMaxAirtime ? tx_start - kMaxAirtime : 0;
  auto it = std::partition_point(
      txlog_.begin(), txlog_.end(),
      [earliest](const TxRec& r) { return r.start < earliest; });
  for (; it != txlog_.end() && it->start < tx_done; ++it) {
    const TxRec& r = *it;
    if (r.from == from) continue;  // own frames never overlap (serial radio)
    if (tx_start >= r.done) continue;  // ended before this one started
    if (r.from == to) return true;  // receiver was itself transmitting
    if (!topo_.linked(r.from, to)) continue;  // inaudible at the receiver
    if (r.done < tx_done || (r.done == tx_done && r.from < from))
      return true;  // the competitor completes first and is captured
  }
  return false;
}

void Medium::note_tx(size_t from, uint64_t start, uint64_t done) {
  if (!topo_.mesh) return;
  // Upper bound keeps equal starts in call order; an in-order note (the
  // simulator's only kind) lands at the end.
  const auto at = std::upper_bound(
      txlog_.begin(), txlog_.end(), start,
      [](uint64_t s, const TxRec& r) { return s < r.start; });
  txlog_.insert(at, TxRec{from, start, done});
}

void Medium::flush(uint64_t now) {
  flushed_to_.clear();
  while (!pending_.empty() && pending_.front().at <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), later);
    const Arrival a = std::move(pending_.back());
    pending_.pop_back();
    for (const Delivery& d : a.to) {
      if (a.tx_done != 0 && collided(a.from, d.to, a.tx_start, a.tx_done)) {
        ++stats_.collisions;
        if (observer_)
          observer_(a.tx_done, FaultAction::Collision, a.from, d.to);
        continue;
      }
      flushed_to_.push_back(
          {d.to, devs_[d.to]->schedule_rx(
                     d.corrupted ? d.corrupted : a.packet, a.at)});
    }
  }
  // Prune transmission-log entries far older than any delivery still in
  // flight can overlap (worst case: a reorder-delayed copy of a maximum-
  // length frame). Bounds the log; removal is purely time-based, so it
  // never changes a collision verdict.
  const uint64_t horizon = 64ull * (kMaxPayload + kFrameOverhead) *
                           DeviceHub::kCyclesPerRadioByte;
  const uint64_t cutoff = now > horizon ? now - horizon : 0;
  while (!txlog_.empty() && txlog_.front().done < cutoff) txlog_.pop_front();
}

void Medium::broadcast(size_t from, std::span<const uint8_t> packet,
                       uint64_t done_cycle) {
  const size_t n = devs_.size();
  if (link_tx_.size() < n * n) link_tx_.resize(n * n, 0);
  stats_.bytes_on_air += packet.size();

  const uint64_t base_latency =
      uint64_t(params_.latency_bytes) * DeviceHub::kCyclesPerRadioByte;
  const bool mesh = topo_.mesh;
  const uint64_t air = packet.size() * DeviceHub::kCyclesPerRadioByte;
  const uint64_t tx_start = done_cycle > air ? done_cycle - air : 0;

  // With a mesh delivery the collision check runs at flush time; every
  // enqueued copy (including duplicate/reordered ones: they model the
  // same airtime) carries the transmission identity.
  const uint64_t cid = mesh ? done_cycle : 0;

  // Deliver one copy of this packet to `to` at cycle `at`; a corrupted copy
  // gets its own buffer with 1..3 bits flipped at seeded positions — enough
  // to break the frame CRC (or, rarely, only the sync byte: the deframer
  // resyncs either way).
  auto enqueue = [&](size_t to, uint64_t at, bool corrupt) {
    emu::RadioPacketRef copy;
    if (corrupt) {
      std::vector<uint8_t> bytes(packet.begin(), packet.end());
      const uint32_t flips = prng_.range(1, 3);
      for (uint32_t i = 0; i < flips; ++i) {
        const uint32_t bit =
            prng_.below(static_cast<uint32_t>(bytes.size() * 8));
        bytes[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
      }
      copy = std::make_shared<const emu::RadioPacket>(std::move(bytes));
    }
    arrival_at(at).to.push_back({to, std::move(copy)});
  };

  for (size_t to = 0; to < n; ++to) {
    if (to == from) continue;
    uint32_t quality = 100;
    if (mesh) {
      quality = topo_.link_quality(from, to);
      if (quality == 0) continue;  // out of range: never offered, no rolls
    }
    const uint64_t tx_index = link_tx_[from * n + to]++;
    ++stats_.packets_offered;

    // Link-down windows are checked first and bypass both the scripted
    // policy and the random rolls — an outage consumes no randomness, so
    // scheduling one never perturbs deliveries outside its window.
    if (in_outage(from, to, done_cycle)) {
      ++stats_.outage_drops;
      if (observer_) observer_(done_cycle, FaultAction::Outage, from, to);
      continue;
    }

    // Decide this delivery's fate: scripted policy if installed, else one
    // random roll per fault class in a fixed order (drop, dup, reorder,
    // corrupt) so the consumed PRNG sequence is schedule-independent. A
    // mesh link's quality deficit folds into the single drop roll — the
    // draw count per offered link is identical to the star medium's.
    FaultAction act = FaultAction::None;
    if (policy_) {
      act = policy_(from, to, tx_index, packet);
    } else {
      const bool drop =
          prng_.percent(std::min(100u, params_.drop_pct + (100u - quality)));
      const bool dup = prng_.percent(params_.dup_pct);
      const bool reorder = prng_.percent(params_.reorder_pct);
      const bool corrupt = prng_.percent(params_.corrupt_pct);
      if (drop)
        act = FaultAction::Drop;
      else if (dup)
        act = FaultAction::Duplicate;
      else if (reorder)
        act = FaultAction::Reorder;
      else if (corrupt)
        act = FaultAction::Corrupt;
    }

    if (observer_) observer_(done_cycle, act, from, to);
    switch (act) {
      case FaultAction::Drop:
        ++stats_.dropped;
        continue;
      case FaultAction::Outage:  // scripted policy declared the link down
        ++stats_.outage_drops;
        continue;
      case FaultAction::Collision:  // scripted policy destroyed it outright
        ++stats_.collisions;
        continue;
      case FaultAction::Duplicate:
        ++stats_.duplicated;
        enqueue(to, done_cycle + base_latency, false);
        enqueue(to, done_cycle + base_latency + air, false);
        break;
      case FaultAction::Reorder: {
        // Push this packet past the next few transmissions: an extra
        // delay of 2..6 packet-lengths-worth of airtime.
        ++stats_.reordered;
        const uint64_t extra = uint64_t(prng_.range(2, 6)) * air;
        enqueue(to, done_cycle + base_latency + extra, false);
        break;
      }
      case FaultAction::Corrupt:
        ++stats_.corrupted;
        enqueue(to, done_cycle + base_latency, true);
        break;
      case FaultAction::None:
        enqueue(to, done_cycle + base_latency, false);
        break;
    }
    ++stats_.delivered;
  }

  if (batch_.empty()) return;
  const auto shared = std::make_shared<const ParsedPacket>(packet);
  for (Arrival& a : batch_) {
    a.packet = shared;
    a.from = from;
    a.tx_start = tx_start;
    a.tx_done = cid;
    pending_.push_back(std::move(a));
    std::push_heap(pending_.begin(), pending_.end(), later);
  }
  batch_.clear();
}

}  // namespace sensmart::net
