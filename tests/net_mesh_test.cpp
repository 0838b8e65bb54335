// Multi-hop mesh dissemination (DESIGN.md §10): spatial topology
// construction (placement, link quality, BFS hops, the Random
// connectivity fix-up), the mesh frame codecs (payload-length
// discriminated, star encodings untouched), the deterministic
// capture-model collision check in the Medium, end-to-end multi-hop
// convergence on line/grid placements, and peer-to-peer chunk serving —
// a node out of the base's radio range installs a byte-identical image
// fed entirely by a peer, with the base never retransmitting for it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/treesearch.hpp"
#include "emu/machine.hpp"
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
