#include "net/medium.hpp"

#include <algorithm>
#include <stdexcept>

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

void Medium::attach(emu::DeviceHub* dev) {
  sent_at_attach_.push_back(broadcasts_ ? sent_ : std::vector<uint64_t>{});
  devs_.push_back(dev);
  sent_.push_back(0);
}

uint64_t Medium::link_tx_index(size_t from, size_t to) const {
  const std::vector<uint64_t>& before = sent_at_attach_[to];
  return sent_[from] - (from < before.size() ? before[from] : 0);
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

void Medium::set_topology(Topology t) {
  if (broadcasts_)
    throw std::invalid_argument("Medium::set_topology: broadcasts began");
  topo_ = std::move(t);
  mask_words_ = topo_.mesh ? (topo_.count + 63) / 64 : 0;
  audience_.assign(topo_.count * mask_words_, 0);
  kill_.assign(mask_words_, 0);
  const auto set = [this](size_t node, size_t bit) {
    audience_[node * mask_words_ + bit / 64] |= uint64_t(1) << (bit % 64);
  };
  for (size_t node = 0; node < topo_.neighbors.size(); ++node) {
    set(node, node);
    for (uint16_t r : topo_.neighbors[node]) set(node, r);
  }
}

// Capture-model collision resolution: a delivery is destroyed at its
// receiver iff the transmission log holds an audible transmission that
// overlaps its airtime and either (a) came from the receiver itself
// (half-duplex) or (b) completed first — with a (done, sender-id) total
// order breaking exact ties. Purely a function of the deterministic
// transmission schedule; consumes no randomness.
//
// The verdicts of every receiver of one arrival come from one scan: a
// competitor that completes first kills the delivery at everyone who hears
// it and at its own sender (its audience), and one that completes later
// kills it only at its sender. Only log entries that can overlap are
// visited: a competitor ends at most kMaxAirtime after it starts, so the
// scan begins at the first entry starting after tx_start - kMaxAirtime and
// stops at the first one starting at or after tx_done.
void Medium::resolve_collisions(const Arrival& a) {
  std::fill(kill_.begin(), kill_.end(), 0);
  const uint64_t earliest =
      a.tx_start > kMaxAirtime ? a.tx_start - kMaxAirtime : 0;
  const auto end = txlog_.end();
  auto it = std::partition_point(
      txlog_.begin() + txlog_head_, end,
      [earliest](const TxRec& r) { return r.start < earliest; });
  for (; it != end && it->start < a.tx_done; ++it) {
    const TxRec& r = *it;
    if (r.from == a.from) continue;  // own frames never overlap (serial radio)
    if (r.done <= a.tx_start) continue;  // ended before this one started
    if (r.done < a.tx_done || (r.done == a.tx_done && r.from < a.from)) {
      const uint64_t* hears = &audience_[r.from * mask_words_];
      for (size_t w = 0; w < mask_words_; ++w) kill_[w] |= hears[w];
    } else {
      kill_[r.from / 64] |= uint64_t(1) << (r.from % 64);
    }
  }
}

void Medium::note_tx(size_t from, uint64_t start, uint64_t done) {
  if (done < start || done - start > kMaxAirtime)
    throw std::invalid_argument(
        "Medium::note_tx: airtime window reversed or longer than "
        "kMaxAirtime");
  if (!topo_.mesh) return;
  if (from >= topo_.count)
    throw std::invalid_argument("Medium::note_tx: sender outside topology");
  // Upper bound keeps equal starts in call order; an in-order note (the
  // simulator's only kind) lands at the end.
  const auto at = std::upper_bound(
      txlog_.begin() + txlog_head_, txlog_.end(), start,
      [](uint64_t s, const TxRec& r) { return s < r.start; });
  txlog_.insert(at, TxRec{from, start, done});
}

void Medium::flush(uint64_t now) {
  flushed_to_.clear();
  while (!pending_.empty() && pending_.front().at <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), later);
    const Arrival a = std::move(pending_.back());
    pending_.pop_back();
    const bool mesh = a.tx_done != 0;
    if (mesh) resolve_collisions(a);
    auto corrupted = a.corrupted.begin();
    for (const uint32_t d : a.to) {
      const size_t to = d & ~kCorruptCopy;
      const emu::RadioPacketRef& packet =
          d & kCorruptCopy ? *corrupted++ : a.packet;
      if (mesh && (kill_[to / 64] >> (to % 64) & 1)) {
        ++stats_.collisions;
        if (observer_) observer_(a.tx_done, FaultAction::Collision, a.from, to);
        continue;
      }
      flushed_to_.push_back({to, devs_[to]->schedule_rx(packet, a.at)});
    }
  }
  // Prune transmission-log entries far older than any delivery still in
  // flight can overlap (worst case: a reorder-delayed copy of a maximum-
  // length frame). Bounds the log; removal is purely time-based, so it
  // never changes a collision verdict.
  const uint64_t horizon = 64ull * (kMaxPayload + kFrameOverhead) *
                           DeviceHub::kCyclesPerRadioByte;
  const uint64_t cutoff = now > horizon ? now - horizon : 0;
  while (txlog_head_ < txlog_.size() && txlog_[txlog_head_].done < cutoff)
    ++txlog_head_;
  if (txlog_head_ > txlog_.size() / 2) {
    txlog_.erase(txlog_.begin(), txlog_.begin() + txlog_head_);
    txlog_head_ = 0;
  }
}

void Medium::broadcast(size_t from, std::span<const uint8_t> packet,
                       uint64_t done_cycle) {
  const size_t n = devs_.size();
  if (from >= n)
    throw std::invalid_argument("Medium::broadcast: sender not attached");
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

  const uint64_t primary_at = done_cycle + base_latency;
  const size_t links = mesh ? topo_.neighbors[from].size() : n - 1;
  const bool outages = !outages_.empty();

  // The arrival at the base latency collects nearly every delivery: it is
  // made first, as batch_[0], and sized once for every link. Arrivals
  // drain by time first, so its sequence number ranks it only against
  // other broadcasts' arrivals, whose order it keeps.
  arrival_at(primary_at).to.reserve(links);

  // Deliver one copy of this packet to `to` at cycle `at`; a corrupted copy
  // gets its own buffer with 1..3 bits flipped at seeded positions — enough
  // to break the frame CRC (or, rarely, only the sync byte: the deframer
  // resyncs either way).
  auto enqueue = [&](size_t to, uint64_t at, bool corrupt) {
    Arrival& a = arrival_at(at);
    if (!corrupt) {
      a.to.push_back(static_cast<uint32_t>(to));
      return;
    }
    std::vector<uint8_t> bytes(packet.begin(), packet.end());
    const uint32_t flips = prng_.range(1, 3);
    for (uint32_t i = 0; i < flips; ++i) {
      const uint32_t bit =
          prng_.below(static_cast<uint32_t>(bytes.size() * 8));
      bytes[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
    }
    a.to.push_back(static_cast<uint32_t>(to) | kCorruptCopy);
    a.corrupted.push_back(
        std::make_shared<const emu::RadioPacket>(std::move(bytes)));
  };

  // Offer the packet on the link to `to`: outage check, then the fault
  // rolls, then the enqueue.
  auto offer = [&](size_t to, uint32_t quality) {
    ++stats_.packets_offered;

    // Link-down windows are checked first and bypass both the scripted
    // policy and the random rolls — an outage consumes no randomness, so
    // scheduling one never perturbs deliveries outside its window.
    if (outages && in_outage(from, to, done_cycle)) {
      ++stats_.outage_drops;
      if (observer_) observer_(done_cycle, FaultAction::Outage, from, to);
      return;
    }

    // Decide this delivery's fate: scripted policy if installed, else one
    // random roll per fault class in a fixed order (drop, dup, reorder,
    // corrupt) so the consumed PRNG sequence is schedule-independent. A
    // mesh link's quality deficit folds into the single drop roll — the
    // draw count per offered link is identical to the star medium's.
    FaultAction act = FaultAction::None;
    if (policy_) {
      act = policy_(from, to, link_tx_index(from, to), packet);
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
        return;
      case FaultAction::Outage:  // scripted policy declared the link down
        ++stats_.outage_drops;
        return;
      case FaultAction::Collision:  // scripted policy destroyed it outright
        ++stats_.collisions;
        return;
      case FaultAction::Duplicate:
        ++stats_.duplicated;
        enqueue(to, primary_at, false);
        enqueue(to, primary_at + air, false);
        break;
      case FaultAction::Reorder: {
        // Push this packet past the next few transmissions: an extra
        // delay of 2..6 packet-lengths-worth of airtime.
        ++stats_.reordered;
        const uint64_t extra = uint64_t(prng_.range(2, 6)) * air;
        enqueue(to, primary_at + extra, false);
        break;
      }
      case FaultAction::Corrupt:
        ++stats_.corrupted;
        enqueue(to, primary_at, true);
        break;
      case FaultAction::None:  // the primary arrival, made above
        batch_[0].to.push_back(static_cast<uint32_t>(to));
        break;
    }
    ++stats_.delivered;
  };

  // A mesh broadcast reaches the sender's in-range neighbors only (out of
  // range: never offered, no rolls); the list is ascending, the same link
  // order as the star's walk over every other node.
  if (mesh) {
    for (uint16_t to : topo_.neighbors[from]) {
      if (to >= n) break;
      offer(to, topo_.link_quality(from, to));
    }
  } else {
    for (size_t to = 0; to < n; ++to)
      if (to != from) offer(to, 100);
  }
  ++sent_[from];
  ++broadcasts_;

  std::shared_ptr<const ParsedPacket> shared;
  for (Arrival& a : batch_) {
    if (a.to.empty()) continue;  // every link dropped the primary copy
    if (!shared) shared = std::make_shared<const ParsedPacket>(packet);
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
