// Multi-hop mesh dissemination (DESIGN.md §10): spatial topology
// construction (placement, link quality, BFS hops, the Random
// connectivity fix-up), the mesh frame codecs (payload-length
// discriminated, star encodings untouched), the deterministic
// capture-model collision check in the Medium, end-to-end multi-hop
// convergence on line/grid placements, and peer-to-peer chunk serving —
// a node out of the base's radio range installs a byte-identical image
// fed entirely by a peer, with the base never retransmitting for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/treesearch.hpp"
#include "chaos/prng.hpp"
#include "emu/devices.hpp"
#include "emu/machine.hpp"
#include "emu/memory.hpp"
#include "net/frame.hpp"
#include "net/image_codec.hpp"
#include "net/medium.hpp"
#include "net/netsim.hpp"
#include "net/topology.hpp"
#include "rewriter/linker.hpp"

namespace sensmart {
namespace {

std::vector<uint8_t> test_blob() {
  rw::Linker linker(rw::RewriteOptions{}, true);
  for (const auto& img : apps::fig7_mix(8, 1)) linker.add(img);
  return net::serialize_system(linker.link());
}

// --- Topology construction --------------------------------------------------

TEST(Topology, StarSpecBuildsNoMesh) {
  net::TopologySpec spec;  // default kind = Star
  EXPECT_FALSE(spec.mesh());
  const net::Topology t = net::build_topology(spec, 5, 1);
  EXPECT_FALSE(t.mesh);
  EXPECT_TRUE(t.quality.empty());
  EXPECT_TRUE(t.neighbors.empty());
}

TEST(Topology, LineLinksAdjacentNodesOnly) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::Line;
  const net::Topology t = net::build_topology(spec, 5, 1);
  ASSERT_TRUE(t.mesh);
  ASSERT_EQ(t.count, 5u);
  // Node k sits at (k, 0) spacings; the default range (1.5 spacings)
  // links adjacent nodes at full quality and nothing further.
  EXPECT_EQ(t.neighbors[0], (std::vector<uint16_t>{1}));
  EXPECT_EQ(t.neighbors[2], (std::vector<uint16_t>{1, 3}));
  EXPECT_EQ(t.link_quality(0, 1), 100u);
  EXPECT_EQ(t.link_quality(0, 2), 0u);
  EXPECT_FALSE(t.linked(0, 2));
  EXPECT_FALSE(t.linked(1, 1));  // no self-links
  // BFS hops: the line is the worst-case diameter.
  const std::vector<uint16_t> want = {0, 1, 2, 3, 4};
  EXPECT_EQ(t.hops, want);
  EXPECT_EQ(t.max_hops(), 4u);
}

TEST(Topology, GridLinksEightNeighborhoodWithDiagonalFalloff) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::Grid;
  const net::Topology t = net::build_topology(spec, 10, 1);
  ASSERT_TRUE(t.mesh);
  // 10 nodes -> 4-wide row-major grid, base at the corner: id 5 sits at
  // (1, 1), diagonally adjacent to the base.
  EXPECT_EQ(t.link_quality(0, 1), 100u);  // one spacing: full quality
  const uint8_t diag = t.link_quality(0, 5);
  EXPECT_GT(diag, 0u);
  EXPECT_LT(diag, 100u);  // farther than a spacing: reduced quality
  EXPECT_GE(diag, spec.quality_floor_pct);
  EXPECT_FALSE(t.linked(0, 2));  // two spacings: out of range
  // Hop counts follow the 8-neighborhood (Chebyshev) distance.
  EXPECT_EQ(t.hops[0], 0u);
  EXPECT_EQ(t.hops[5], 1u);
  EXPECT_EQ(t.hops[2], 2u);
  // Quality matrix is symmetric.
  for (size_t a = 0; a < t.count; ++a)
    for (size_t b = 0; b < t.count; ++b)
      EXPECT_EQ(t.link_quality(a, b), t.link_quality(b, a));
}

TEST(Topology, RandomPlacementIsSeededAndAlwaysConnected) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::Random;
  const net::Topology a = net::build_topology(spec, 20, 7);
  const net::Topology b = net::build_topology(spec, 20, 7);
  EXPECT_EQ(a.x, b.x);  // pure function of (spec, count, seed)
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.hops, b.hops);
  // The connectivity fix-up guarantees every node a BFS path to the base.
  for (uint16_t h : a.hops) EXPECT_NE(h, net::kUnreachableHop);
  // A different stream tag moves the placement.
  net::TopologySpec other = spec;
  other.seed = 1;
  const net::Topology c = net::build_topology(other, 20, 7);
  EXPECT_NE(a.x, c.x);
}

// --- Mesh frame codecs ------------------------------------------------------

TEST(MeshFrame, SummaryCarriesSenderAndHop) {
  net::SummaryInfo info;
  info.total_chunks = 129;
  info.image_bytes = 4112;
  info.image_crc = 0xDEADBEEF;
  info.chunk_payload = 32;
  const net::Frame f = net::make_mesh_summary(3, info, 12, 2);
  const auto back = net::parse_summary(f);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->has_sender);
  EXPECT_EQ(back->sender, 12u);
  EXPECT_EQ(f.seq, 2u);  // sender hop rides in seq
  EXPECT_EQ(back->total_chunks, info.total_chunks);
  EXPECT_EQ(back->image_bytes, info.image_bytes);
  EXPECT_EQ(back->image_crc, info.image_crc);
  EXPECT_EQ(back->chunk_payload, info.chunk_payload);
  // The star encoding is payload-length distinguishable and unchanged.
  const auto star = net::parse_summary(net::make_summary(3, info));
  ASSERT_TRUE(star.has_value());
  EXPECT_FALSE(star->has_sender);
}

TEST(MeshFrame, NackRoundTripsTargetAndSolicitation) {
  const std::vector<uint16_t> missing = {3, 7, 100};
  const net::Frame f = net::make_mesh_nack(3, 9, missing, 4, 3);
  const auto back = net::parse_mesh_nack(f);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->missing, missing);
  EXPECT_EQ(back->target, 4u);
  EXPECT_EQ(back->hop, 3u);
  EXPECT_EQ(f.seq, 9u);  // sender id, as in star mode
  // Empty missing list + kNackAnyTarget: the post-reboot solicitation.
  const auto any = net::parse_mesh_nack(
      net::make_mesh_nack(3, 9, {}, net::kNackAnyTarget, 0xFFFF));
  ASSERT_TRUE(any.has_value());
  EXPECT_TRUE(any->missing.empty());
  EXPECT_EQ(any->target, net::kNackAnyTarget);
  // A star Nack has no mesh fields.
  EXPECT_FALSE(net::parse_mesh_nack(net::make_nack(3, 9, missing)));
}

TEST(MeshFrame, AckPreservesOriginThroughRelays) {
  const net::Frame f = net::make_mesh_ack(3, 21, 5, 1);
  EXPECT_EQ(f.seq, 21u);  // origin, exactly as in star mode
  const auto back = net::parse_mesh_ack(f);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->relayer, 5u);
  EXPECT_EQ(back->hop, 1u);
}

// --- Capture-model collisions in the Medium ---------------------------------

net::Topology line_topology(size_t count) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::Line;
  return net::build_topology(spec, count, 1);
}

TEST(MeshMedium, OverlappingTransmissionsCaptureTheFirstToComplete) {
  // base(0) - 1 - 2 on a line: node 1 hears both ends. Two overlapping
  // transmissions; the one completing first is captured, the other is
  // destroyed at the shared receiver. No randomness is consumed.
  emu::Machine a, b, c;
  net::Medium medium(net::LinkParams{}, 1);
  medium.attach(&a.dev());
  medium.attach(&b.dev());
  medium.attach(&c.dev());
  medium.set_topology(line_topology(3));
  const std::vector<uint8_t> p1{1, 2, 3, 4};
  const std::vector<uint8_t> p2{5, 6, 7, 8, 9};

  medium.note_tx(0, 10'000, 20'000);
  medium.note_tx(2, 12'000, 26'000);
  medium.broadcast(0, p1, 20'000);  // completes first: captured at node 1
  medium.broadcast(2, p2, 26'000);  // destroyed at node 1
  medium.flush(1'000'000);
  b.dev().sync(1'000'000);

  EXPECT_EQ(medium.stats().collisions, 1u);
  EXPECT_EQ(b.dev().rx_delivered(), p1.size());
}

TEST(MeshMedium, HalfDuplexReceiverHearsNothingWhileTransmitting) {
  emu::Machine a, b, c;
  net::Medium medium(net::LinkParams{}, 1);
  medium.attach(&a.dev());
  medium.attach(&b.dev());
  medium.attach(&c.dev());
  medium.set_topology(line_topology(3));
  const std::vector<uint8_t> pkt{1, 2, 3};

  // Node 1 transmits over the whole window the base's frame is on the
  // air, so the base's delivery to node 1 is destroyed even though node
  // 1's own transmission completes later.
  medium.note_tx(0, 10'000, 14'000);
  medium.note_tx(1, 8'000, 30'000);
  medium.broadcast(0, pkt, 14'000);
  medium.flush(1'000'000);
  b.dev().sync(1'000'000);

  EXPECT_EQ(medium.stats().collisions, 1u);
  EXPECT_EQ(b.dev().rx_delivered(), 0u);
}

TEST(MeshMedium, OutOfRangeNodesAreNeverOffered) {
  emu::Machine a, b, c;
  net::Medium medium(net::LinkParams{}, 1);
  medium.attach(&a.dev());
  medium.attach(&b.dev());
  medium.attach(&c.dev());
  medium.set_topology(line_topology(3));
  const std::vector<uint8_t> pkt{7, 7};

  medium.note_tx(0, 10'000, 12'000);
  medium.broadcast(0, pkt, 12'000);  // neighbors of the base: node 1 only
  medium.flush(1'000'000);
  b.dev().sync(1'000'000);
  c.dev().sync(1'000'000);

  EXPECT_EQ(medium.stats().packets_offered, 1u);
  EXPECT_EQ(b.dev().rx_delivered(), pkt.size());
  EXPECT_EQ(c.dev().rx_delivered(), 0u);
}

TEST(MeshMedium, NoteTxRejectsWindowsTheScanCannotBound) {
  // The collision scan only visits log entries starting within
  // kMaxAirtime of a delivery, so a longer window would let overlaps go
  // unseen: note_tx refuses it (and a reversed one), mesh or not.
  constexpr uint64_t kMax = net::Medium::kMaxAirtime;
  emu::Machine a, b, c;
  net::Medium star(net::LinkParams{}, 1);
  star.attach(&a.dev());
  EXPECT_THROW(star.note_tx(0, 500, 499), std::invalid_argument);
  EXPECT_THROW(star.note_tx(0, 0, kMax + 1), std::invalid_argument);
  EXPECT_NO_THROW(star.note_tx(0, 0, kMax));

  net::Medium mesh(net::LinkParams{}, 1);
  mesh.attach(&a.dev());
  mesh.attach(&b.dev());
  mesh.attach(&c.dev());
  mesh.set_topology(line_topology(3));
  EXPECT_THROW(mesh.note_tx(1, 10'000, 9'999), std::invalid_argument);
  EXPECT_THROW(mesh.note_tx(1, 10'000, 10'000 + kMax + 1),
               std::invalid_argument);
  EXPECT_THROW(mesh.note_tx(3, 10'000, 12'000), std::invalid_argument);
  // The longest legal window still collides: node 1 is transmitting for
  // all of it, so the base's frame inside it is lost at node 1.
  EXPECT_NO_THROW(mesh.note_tx(1, 10'000, 10'000 + kMax));
  const std::vector<uint8_t> pkt{1, 2};
  const uint64_t done = 10'000 + kMax - 3'000;
  const uint64_t air = pkt.size() * emu::DeviceHub::kCyclesPerRadioByte;
  EXPECT_NO_THROW(mesh.note_tx(0, done - air, done));
  mesh.broadcast(0, pkt, done);
  mesh.flush(100'000'000);
  EXPECT_EQ(mesh.stats().collisions, 1u);
}

// The per-delivery capture rule, checked for one (delivery, receiver)
// pair against every window noted so far: the definition the medium's
// one-scan-per-arrival kill mask must reproduce. Pruning is time-based
// and never removes a window that can still overlap a pending delivery,
// so the oracle keeps every window.
struct NotedTx {
  size_t from;
  uint64_t start, done;
};

bool oracle_collided(const std::vector<NotedTx>& log, const net::Topology& t,
                     size_t from, size_t to, uint64_t tx_start,
                     uint64_t tx_done) {
  for (const NotedTx& r : log) {
    if (r.start >= tx_done) continue;  // starts after this one ended
    if (r.from == from) continue;  // own frames never overlap (serial radio)
    if (tx_start >= r.done) continue;  // ended before this one started
    if (r.from == to) return true;  // receiver was itself transmitting
    if (!t.linked(r.from, to)) continue;  // inaudible at the receiver
    if (r.done < tx_done || (r.done == tx_done && r.from < from))
      return true;  // the competitor completes first and is captured
  }
  return false;
}

TEST(MeshMedium, ArrivalMaskMatchesPerDeliveryScan) {
  // Seeded schedules on line, grid and random placements of 3..64 nodes,
  // with random drop/duplicate/reorder/corrupt rolls. Each round notes a
  // burst of windows (shuffled, so inserts land out of start order; some
  // windows share a `done` with another sender's, some senders overlap
  // themselves, some windows are never broadcast), broadcasts them, and
  // flushes once every copy is due; gaps between rounds fall on both sides
  // of the medium's prune horizon. Every delivery's fate must match the
  // oracle: the collision events, each node's hand-off count and bytes, and
  // the collision counter.
  constexpr uint64_t kByte = emu::DeviceHub::kCyclesPerRadioByte;
  constexpr uint64_t kMaxAir = net::Medium::kMaxAirtime;
  constexpr uint64_t kHorizon =
      64ull * (net::kMaxPayload + net::kFrameOverhead) * kByte;
  const net::TopologyKind kinds[] = {net::TopologyKind::Line,
                                     net::TopologyKind::Grid,
                                     net::TopologyKind::Random};
  struct Radio {
    emu::DataMemory mem;
    emu::DeviceHub dev{mem};
  };
  using Event = std::tuple<uint64_t, size_t, size_t>;  // (done, from, to)

  uint64_t total_deliveries = 0, total_collisions = 0, ties = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::Prng r(seed * 0x9E3779B97F4A7C15ULL + 17);
    net::TopologySpec spec;
    spec.kind = kinds[seed % 3];
    spec.seed = seed;
    const size_t count = 3 + r.below(62);
    const net::Topology topo = net::build_topology(spec, count, seed);

    net::LinkParams link;
    link.drop_pct = r.below(30);
    link.dup_pct = r.below(20);
    link.reorder_pct = r.below(20);
    link.corrupt_pct = r.below(10);
    link.latency_bytes = 1 + r.below(4);
    net::Medium medium(link, seed);
    std::vector<std::unique_ptr<Radio>> radios;
    for (size_t i = 0; i < count; ++i) {
      radios.push_back(std::make_unique<Radio>());
      medium.attach(&radios.back()->dev);
    }
    medium.set_topology(topo);

    std::vector<std::pair<net::FaultAction, size_t>> offered;
    std::vector<Event> collided;
    medium.set_observer(
        [&](uint64_t done, net::FaultAction act, size_t from, size_t to) {
          if (act == net::FaultAction::Collision)
            collided.emplace_back(done, from, to);
          else
            offered.emplace_back(act, to);
        });

    std::vector<NotedTx> log;
    std::vector<uint64_t> want_rx(count, 0), want_handoffs(count, 0);
    std::vector<uint64_t> got_handoffs(count, 0);
    uint64_t want_collisions = 0;
    uint64_t base = r.below(2) ? 0 : 5 * kMaxAir;
    const uint32_t rounds = 1 + r.below(6);
    for (uint32_t round = 0; round < rounds; ++round) {
      struct Tx {
        size_t from;
        size_t size;
        uint64_t done;
        bool noted, sent;
      };
      std::vector<Tx> txs;
      uint64_t last_done = base;
      const uint32_t k = 1 + r.below(12);
      const uint64_t spread = 1 + r.below(3 * kMaxAir);
      for (uint32_t i = 0; i < k; ++i) {
        Tx tx{r.below(static_cast<uint32_t>(count)), 1 + r.below(96), 0,
              r.below(10) != 0, r.below(10) != 0};
        tx.done = base + spread / 2 + r.below(static_cast<uint32_t>(spread)) +
                  tx.size * kByte;
        if (!txs.empty() && r.below(3) == 0) {
          // Exact tie with an earlier frame's completion.
          tx.done = txs[r.below(static_cast<uint32_t>(txs.size()))].done;
          tx.size = std::min<size_t>(tx.size, tx.done / kByte);
          ++ties;
        }
        if (!txs.empty() && r.below(6) == 0)  // same sender, overlapping
          tx.from = txs[r.below(static_cast<uint32_t>(txs.size()))].from;
        txs.push_back(tx);
        last_done = std::max(last_done, tx.done);
      }
      // Note in a shuffled order: the log keeps start order regardless.
      std::vector<size_t> order(txs.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[r.below(static_cast<uint32_t>(i))]);
      for (size_t i : order) {
        const Tx& tx = txs[i];
        if (!tx.noted) continue;
        medium.note_tx(tx.from, tx.done - tx.size * kByte, tx.done);
        log.push_back({tx.from, tx.done - tx.size * kByte, tx.done});
      }

      struct Copy {
        size_t from, to, size;
        uint64_t start, done;
      };
      std::vector<Copy> copies;
      for (size_t i : order) {
        const Tx& tx = txs[i];
        if (!tx.sent) continue;
        offered.clear();
        medium.broadcast(tx.from, std::vector<uint8_t>(tx.size, 0x5A),
                         tx.done);
        for (const auto& [act, to] : offered) {
          int n = 0;  // copies enqueued on this link
          switch (act) {
            case net::FaultAction::None:
            case net::FaultAction::Reorder:
            case net::FaultAction::Corrupt: n = 1; break;
            case net::FaultAction::Duplicate: n = 2; break;
            default: break;
          }
          for (int c = 0; c < n; ++c)
            copies.push_back(
                {tx.from, to, tx.size, tx.done - tx.size * kByte, tx.done});
        }
      }

      // A flush before anything of this round is due only prunes.
      if (r.below(3) == 0) medium.flush(base);
      // Every copy is due by then: latency plus at most 7 frame lengths.
      const uint64_t now =
          last_done + (link.latency_bytes + 7 * 96) * kByte + r.below(1000);
      collided.clear();
      medium.flush(now);
      for (const auto& h : medium.flushed_to()) ++got_handoffs[h.to];

      std::vector<Event> want;
      for (const Copy& c : copies) {
        if (oracle_collided(log, topo, c.from, c.to, c.start, c.done)) {
          want.emplace_back(c.done, c.from, c.to);
        } else {
          want_rx[c.to] += c.size;
          ++want_handoffs[c.to];
        }
      }
      std::sort(want.begin(), want.end());
      std::sort(collided.begin(), collided.end());
      ASSERT_EQ(collided, want) << "round " << round;
      want_collisions += want.size();
      total_deliveries += copies.size();

      // Next round (time only moves forward, as in the simulator):
      // overlapping this one's tail, just after it, or past the prune
      // horizon.
      switch (r.below(3)) {
        case 0: base += r.below(static_cast<uint32_t>(spread)); break;
        case 1: base = now; break;
        default: base = now + kHorizon + r.below(4 * kMaxAir); break;
      }
    }

    EXPECT_EQ(medium.stats().collisions, want_collisions);
    EXPECT_EQ(got_handoffs, want_handoffs);
    std::vector<uint64_t> got_rx(count);
    for (size_t i = 0; i < count; ++i) {
      radios[i]->dev.sync(~uint64_t(0) >> 1);
      got_rx[i] = radios[i]->dev.rx_delivered() + radios[i]->dev.rx_overruns();
    }
    EXPECT_EQ(got_rx, want_rx);
    total_collisions += want_collisions;
    if (HasFailure()) return;
  }
  // The schedules exercised the rule, not just the empty case.
  EXPECT_GT(total_collisions, total_deliveries / 20);
  EXPECT_LT(total_collisions, total_deliveries);
  EXPECT_GT(ties, 1000u);
}

// --- End-to-end multi-hop convergence ---------------------------------------

net::NetConfig mesh_config(net::TopologyKind kind, size_t nodes,
                           uint32_t drop_pct) {
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = drop_pct;
  cfg.chaos_seed = 0x5EED;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.topo.kind = kind;
  cfg.proto.node_give_up_probes = 0;
  return cfg;
}

TEST(MeshDissemination, LineConvergesAcrossFourHops) {
  const auto blob = test_blob();
  net::NetSim sim(mesh_config(net::TopologyKind::Line, 4, 10), blob);
  const auto r = sim.disseminate();
  ASSERT_TRUE(r.all_acked);
  EXPECT_EQ(r.complete_nodes(), 4u);
  for (size_t id = 1; id <= 4; ++id)
    EXPECT_EQ(sim.node_blob(id), blob) << "node " << id;
  // Every node past the first is out of the base's range: the whole tail
  // of the line is fed by peer serves, hop counts matching the geometry.
  EXPECT_EQ(r.nodes[0].hop, 1u);
  EXPECT_EQ(r.nodes[3].hop, 4u);
  uint64_t served = 0;
  for (const auto& n : r.nodes) served += n.chunks_served;
  EXPECT_GE(served, 3u * r.total_chunks);  // three downstream images' worth
}

TEST(MeshDissemination, GridConvergesWithCollisionsAndServes) {
  const auto blob = test_blob();
  net::NetSim sim(mesh_config(net::TopologyKind::Grid, 8, 10), blob);
  const auto r = sim.disseminate();
  ASSERT_TRUE(r.all_acked);
  EXPECT_EQ(r.complete_nodes(), 8u);
  for (size_t id = 1; id <= 8; ++id)
    EXPECT_EQ(sim.node_blob(id), blob) << "node " << id;
  // Contention is real on a grid: the capture model destroyed some
  // deliveries, and the repair path ran through peers.
  EXPECT_GT(r.medium.collisions, 0u);
  uint64_t served = 0;
  uint16_t max_hop = 0;
  for (const auto& n : r.nodes) {
    served += n.chunks_served;
    if (n.hop != 0xFFFF && n.hop > max_hop) max_hop = n.hop;
  }
  EXPECT_GT(served, 0u);
  EXPECT_GE(max_hop, 2u);
  // The mesh protocol machinery shows up in the event trace.
  size_t parent_selected = 0, chunk_served = 0;
  for (const auto& e : sim.trace()) {
    parent_selected += e.kind == net::NetEventKind::ParentSelected;
    chunk_served += e.kind == net::NetEventKind::ChunkServed;
  }
  EXPECT_GT(parent_selected, 0u);
  EXPECT_GT(chunk_served, 0u);
}

// --- Peer-to-peer serving is the only path to out-of-range nodes ------------

TEST(MeshDissemination, PeerServesFeedNodeTheBaseCannotReach) {
  // Two nodes on a line: node 2 sits two spacings from the base — out of
  // radio range, reachable only through node 1. With a lossless channel
  // the base transmits its initial sweep and nothing else: every chunk
  // node 2 installs was served by node 1 from frame-CRC-verified chunks
  // it already held, and the installed image still passes the whole-image
  // CRC byte-for-byte.
  const auto blob = test_blob();
  net::NetSim sim(mesh_config(net::TopologyKind::Line, 2, 0), blob);
  const auto r = sim.disseminate();
  ASSERT_TRUE(r.all_acked);
  EXPECT_EQ(sim.node_blob(1), blob);
  EXPECT_EQ(sim.node_blob(2), blob);
  EXPECT_EQ(r.nodes[1].hop, 2u);
  // Node 2's entire image came from node 1's serves, never from the base:
  // the only base repairs are the handful of frames node 1 itself missed
  // while half-duplex-deaf during its own serves — far below one image.
  EXPECT_LT(r.base.retransmissions, uint64_t(r.total_chunks) / 4);
  EXPECT_GE(r.nodes[0].chunks_served, uint64_t(r.total_chunks));
}

}  // namespace
}  // namespace sensmart
