// Seeded lossy broadcast medium connecting the radio devices of the
// simulated nodes (DESIGN.md §7).
//
// Every transmitted packet is offered to every other node's receiver;
// per (sender, receiver) link the medium rolls — in a fixed order, from one
// SplitMix64 stream — drop, duplicate, corruption and reordering delay, so
// a run is a pure function of the chaos seed and the (deterministic)
// transmission sequence. A broadcast is copied once, into one shared
// ParsedPacket that every delivery refers to; only a corrupted delivery
// gets a private copy. Deliveries are buffered and flushed once per
// simulation quantum in delivery-time order (so a reorder-delayed packet
// really does land behind packets transmitted after it), then handed to
// the destination device via DeviceHub::schedule_rx, whose serial-medium
// queuing keeps overlapping deliveries ordered.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "chaos/prng.hpp"
#include "emu/devices.hpp"
#include "net/topology.hpp"

namespace sensmart::net {

struct LinkParams {
  // Probabilities in percent (0..100), rolled per link per packet.
  uint32_t drop_pct = 0;
  uint32_t dup_pct = 0;
  uint32_t reorder_pct = 0;
  uint32_t corrupt_pct = 0;
  // Propagation + turnaround latency in on-air byte times (>= 1: a packet
  // sent in one simulation quantum can never be consumed in the same one).
  uint32_t latency_bytes = 2;
};

// Scripted fault override for conformance tests: called once per
// (link, packet); the returned action replaces the random rolls for that
// delivery. `link_tx_index` counts packets offered on this link. Outage
// means the link is down for this delivery (counted separately from
// random drops).
enum class FaultAction : uint8_t {
  None, Drop, Duplicate, Reorder, Corrupt, Outage,
  // Mesh only (never produced by a scripted policy): the delivery was
  // destroyed by a concurrent audible transmission (capture model).
  Collision,
};
using FaultPolicy = std::function<FaultAction(
    size_t from, size_t to, uint64_t link_tx_index,
    std::span<const uint8_t> packet)>;

// Matches any node id in a LinkOutage endpoint.
inline constexpr size_t kAnyNode = static_cast<size_t>(-1);

// A link-down window [begin, end) in simulation cycles: every delivery
// whose transmission completes while the window is open is suppressed.
// Endpoints accept kAnyNode, so one entry can down every link touching a
// node (a crashed/rebooting node) or a whole direction of a partition.
// Outages are decided before any random roll and consume no randomness:
// adding a window never perturbs the fate of deliveries outside it.
struct LinkOutage {
  size_t from = kAnyNode;
  size_t to = kAnyNode;
  uint64_t begin = 0;
  uint64_t end = 0;  // exclusive
};

struct MediumStats {
  uint64_t packets_offered = 0;  // per-link deliveries attempted
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;
  uint64_t outage_drops = 0;  // deliveries suppressed by link-down windows
  uint64_t bytes_on_air = 0;  // sender-side airtime, bytes
  uint64_t collisions = 0;    // mesh: deliveries destroyed by concurrent
                              // audible transmissions (capture model)
};

class Medium {
 public:
  Medium(LinkParams params, uint64_t seed)
      : params_(params), prng_(seed ^ 0x6D656469756DULL) {
    if (params_.latency_bytes == 0) params_.latency_bytes = 1;
  }

  // Attach node radios in id order; ids are indices into this vector.
  void attach(emu::DeviceHub* dev) { devs_.push_back(dev); }
  size_t nodes() const { return devs_.size(); }

  void set_fault_policy(FaultPolicy p) { policy_ = std::move(p); }

  // Install a mesh topology (DESIGN.md §10). With a mesh topology a
  // broadcast is offered only to the sender's in-range neighbors, each
  // link's quality deficit (100 - quality) is folded into its single drop
  // roll (the PRNG draw count per offered link is unchanged), and
  // deliveries are subject to deterministic receiver-side collisions:
  // when two audible transmissions overlap in airtime at a receiver, the
  // one completing first is captured and the other destroyed (a node that
  // was itself transmitting receives nothing — half-duplex). Collisions
  // are resolved against the transmission log at flush time, consume no
  // randomness, and depend only on the (deterministic) transmission
  // schedule. Without a mesh topology behavior is byte-identical to the
  // legacy single-hop medium.
  void set_topology(Topology t) { topo_ = std::move(t); }
  const Topology& topology() const { return topo_; }

  // Schedule a link-down window; may be called mid-simulation (windows in
  // the past simply never match).
  void add_outage(const LinkOutage& o) { outages_.push_back(o); }
  // Two-sided partition: every link between a member of `a` and a member
  // of `b` is down for [begin, end), in both directions.
  void add_partition(std::span<const size_t> a, std::span<const size_t> b,
                     uint64_t begin, uint64_t end);
  const std::vector<LinkOutage>& outages() const { return outages_; }

  // Broadcast a packet transmitted by `from`, whose last byte left the air
  // at `done_cycle`, to every other attached node (with a mesh topology:
  // to the sender's in-range neighbors only). Deliveries are buffered
  // until flush().
  void broadcast(size_t from, std::span<const uint8_t> packet,
                 uint64_t done_cycle);

  // Mesh only: register a transmission's airtime window [start, done) the
  // moment it starts. The simulator calls this for every mesh frame it
  // puts on the air (in its canonical quantum order), giving the
  // collision check at flush time complete knowledge of overlapping
  // transmissions — including ones that complete after the delivery being
  // checked (half-duplex: a receiver mid-transmission hears nothing).
  // The log is kept in start order (the simulator notes transmissions as
  // they start, so this is an append) and no window may be longer than
  // kMaxAirtime: the collision check relies on both to scan only the
  // entries that can overlap. No-op without a mesh topology.
  void note_tx(size_t from, uint64_t start, uint64_t done);
  // Longest transmission any node may put on the air (the simulator's
  // hostile-packet ceiling; honest frames are shorter).
  static constexpr uint64_t kMaxAirtime =
      96 * uint64_t(emu::DeviceHub::kCyclesPerRadioByte);

  // Hand every delivery whose start time is <= `now` to its destination
  // radio, in (time, enqueue-order) order. Called once per simulation
  // quantum by the network simulator.
  void flush(uint64_t now);
  // Receivers the last flush() handed bytes to, in delivery order
  // (repeats possible), each with the cycle its radio starts receiving
  // them (DeviceHub::schedule_rx's answer).
  struct Handoff {
    size_t to;
    uint64_t begin;
  };
  const std::vector<Handoff>& flushed_to() const { return flushed_to_; }

  const MediumStats& stats() const { return stats_; }

  // Observer for the simulation trace: (done_cycle, action, from, to).
  using Observer = std::function<void(uint64_t, FaultAction, size_t, size_t)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

 private:
  bool in_outage(size_t from, size_t to, uint64_t at) const;
  bool collided(size_t from, size_t to, uint64_t tx_start,
                uint64_t tx_done) const;

  LinkParams params_;
  chaos::Prng prng_;
  Topology topo_;  // empty (mesh=false) for the legacy single-hop medium
  std::vector<LinkOutage> outages_;
  std::vector<emu::DeviceHub*> devs_;
  std::vector<uint64_t> link_tx_;  // per-link offered-packet counters
  FaultPolicy policy_;
  Observer observer_;
  MediumStats stats_;
  // Buffered deliveries, one entry per (transmission, arrival cycle): the
  // receivers a broadcast reaches at the same cycle share it, in link
  // order, and all but Corrupt ones point at the broadcast's one packet.
  // Entries drain in (arrival, enqueue sequence) order, a min-heap on that
  // pair, so the per-link drain order is exactly one sequence number per
  // delivery would give: a broadcast's deliveries are enqueued together,
  // in link order. Mesh entries carry the transmission's identity and
  // airtime window for the collision check at flush time.
  struct Delivery {
    size_t to;
    emu::RadioPacketRef corrupted;  // private bit-flipped copy, or null
  };
  struct Arrival {
    uint64_t at = 0;
    uint64_t seq = 0;
    emu::RadioPacketRef packet;
    size_t from = 0;
    uint64_t tx_start = 0;
    uint64_t tx_done = 0;  // 0 = star-mode delivery, no collision check
    std::vector<Delivery> to;
  };
  // The entry of the broadcast in progress that lands at `at`, created on
  // first use (with the next enqueue sequence).
  Arrival& arrival_at(uint64_t at);
  static bool later(const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
  std::vector<Arrival> pending_;  // heap ordered by later()
  std::vector<Arrival> batch_;    // the broadcast in progress
  uint64_t enqueue_seq_ = 0;
  // Mesh transmission log for collision resolution. Broadcasts reach the
  // medium in a canonical deterministic order (the engine fires TX
  // completions in machine-id order within each quantum), and every
  // delivery is flushed at least one quantum after its transmission
  // completed, so by the time a delivery is checked the log holds every
  // transmission that completed at or before its own completion — exactly
  // the competitors the capture rule consults. Entries are in start order,
  // so pruning pops from the front.
  struct TxRec {
    size_t from;
    uint64_t start, done;
  };
  std::deque<TxRec> txlog_;
  std::vector<Handoff> flushed_to_;
};

}  // namespace sensmart::net
