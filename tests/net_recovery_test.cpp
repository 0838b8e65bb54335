// Node crash/reboot lifecycle and resumable dissemination (DESIGN.md §8):
// the mid-transfer-reboot acceptance scenario (persistent store resume,
// strictly cheaper than a cold restart), per-node abort reasons with base
// give-up and revival, link-outage windows in the medium, and
// deterministic replay of full fault schedules.
#include <gtest/gtest.h>

#include "apps/treesearch.hpp"
#include "emu/machine.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"
#include "sim/harness.hpp"

namespace sensmart {
namespace {

using assembler::Image;

std::vector<uint8_t> test_blob() {
  rw::Linker linker(rw::RewriteOptions{}, true);
  for (const auto& img : apps::fig7_mix(8, 1)) linker.add(img);
  return net::serialize_system(linker.link());
}

uint16_t chunks_of(const std::vector<uint8_t>& blob, uint8_t payload = 32) {
  return static_cast<uint16_t>((blob.size() + payload - 1) / payload);
}

// --- Acceptance: two mid-transfer reboots at 10% loss -----------------------

net::NetConfig reboot_config(const std::vector<uint8_t>& blob,
                             bool wipe_store) {
  net::NetConfig cfg;
  cfg.nodes = 4;
  cfg.link.drop_pct = 10;
  cfg.chaos_seed = 0x5EED;
  cfg.max_cycles = 2'000'000'000ULL;
  const uint16_t half = static_cast<uint16_t>(chunks_of(blob) / 2);
  cfg.node_faults.scripted = {{1, half, 2'000, wipe_store},
                              {2, half, 3'000, wipe_store}};
  return cfg;
}

TEST(NetRecovery, MidTransferRebootsResumeAndConverge) {
  const auto blob = test_blob();
  net::NetSim sim(reboot_config(blob, false), blob);
  const auto r = sim.disseminate();

  ASSERT_TRUE(r.all_acked);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.complete_nodes(), 4u);
  // Every surviving node installs a byte-identical image.
  for (size_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(sim.node_complete(id)) << "node " << id;
    EXPECT_EQ(sim.node_blob(id), blob) << "node " << id;
  }
  // Both scheduled crashes fired and both nodes resumed from their
  // persistent chunk bitmap rather than starting over.
  for (size_t i : {0u, 1u}) {
    EXPECT_EQ(r.nodes[i].crashes, 1u) << "node " << i + 1;
    EXPECT_EQ(r.nodes[i].reboots, 1u) << "node " << i + 1;
    EXPECT_GT(r.nodes[i].resumed_chunks, 0u) << "node " << i + 1;
  }
  EXPECT_EQ(r.nodes[2].crashes, 0u);
  EXPECT_EQ(r.nodes[3].crashes, 0u);
  // The lifecycle shows up in the event trace.
  size_t crashed = 0, rebooted = 0;
  for (const auto& e : sim.trace()) {
    crashed += e.kind == net::NetEventKind::NodeCrashed;
    rebooted += e.kind == net::NetEventKind::NodeRebooted;
  }
  EXPECT_EQ(crashed, 2u);
  EXPECT_EQ(rebooted, 2u);
}

TEST(NetRecovery, ResumedTransferIsStrictlyCheaperThanColdRestart) {
  const auto blob = test_blob();
  auto frames = [&](bool wipe) {
    net::NetSim sim(reboot_config(blob, wipe), blob);
    const auto r = sim.disseminate();
    EXPECT_TRUE(r.all_acked) << (wipe ? "cold" : "warm");
    return r.base.data_tx + r.base.retransmissions;
  };
  const uint64_t warm = frames(false);
  const uint64_t cold = frames(true);
  // A wiped store forces the rebooted nodes to re-request everything they
  // had already stored; the persisted bitmap must save real data frames.
  EXPECT_LT(warm, cold);
}

TEST(NetRecovery, FaultScheduleReplaysByteIdentically) {
  const auto blob = test_blob();
  // The scripted two-reboot schedule, and a fault-heavy seeded fleet:
  // repeated crashes, cold (store-wiping) reboots, and a lossy link.
  net::NetConfig seeded;
  seeded.nodes = 6;
  seeded.link.drop_pct = 10;
  seeded.link.dup_pct = 3;
  seeded.link.reorder_pct = 3;
  seeded.link.corrupt_pct = 3;
  seeded.chaos_seed = 0xF7EE7;
  seeded.max_cycles = 2'000'000'000ULL;
  seeded.node_faults.crash_pct = 80;
  seeded.node_faults.max_crashes_per_node = 2;
  seeded.node_faults.wipe_pct = 40;
  seeded.node_faults.down_min_bytes = 64;
  seeded.node_faults.down_max_bytes = 768;
  for (const net::NetConfig& cfg : {reboot_config(blob, false), seeded}) {
    auto one = [&] {
      net::NetSim sim(cfg, blob);
      return sim.disseminate();
    };
    const auto a = one();
    const auto b = one();
    EXPECT_EQ(a.trace_digest, b.trace_digest);
    EXPECT_EQ(a.trace_events, b.trace_events);
    EXPECT_EQ(a.cycles, b.cycles);
    uint32_t crashes = 0;
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].resumed_chunks, b.nodes[i].resumed_chunks);
      EXPECT_EQ(a.nodes[i].store_writes, b.nodes[i].store_writes);
      EXPECT_EQ(a.nodes[i].crashes, b.nodes[i].crashes);
      crashes += a.nodes[i].crashes;
    }
    EXPECT_GT(crashes, 0u);  // the fault dimension actually exercised
  }
}

TEST(NetRecovery, SeededCrashesDrawFromTheirOwnStream) {
  // Enabling seeded node faults with a probability that never fires must
  // not change the medium's schedule: the run stays digest-identical to a
  // fault-free one under the same chaos seed.
  const auto blob = test_blob();
  net::NetConfig plain;
  plain.nodes = 3;
  plain.link.drop_pct = 12;
  plain.chaos_seed = 42;
  net::NetConfig armed = plain;
  armed.node_faults.crash_pct = 0;  // policy present, no crash can fire
  armed.node_faults.max_crashes_per_node = 2;
  net::NetSim a(plain, blob);
  net::NetSim b(armed, blob);
  EXPECT_EQ(a.disseminate().trace_digest, b.disseminate().trace_digest);
}

// --- Per-node abort reasons and base give-up --------------------------------

TEST(NetRecovery, DeadNodeIsAbandonedAsNeverHeard) {
  const auto blob = test_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.chaos_seed = 7;
  cfg.max_cycles = 2'000'000'000ULL;
  cfg.proto.node_give_up_probes = 3;
  // Node 1 dies before its radio ever keys up and never comes back.
  cfg.node_faults.scripted = {{1, 0, 50'000'000, false}};
  net::NetSim sim(cfg, blob);
  const auto r = sim.disseminate();

  EXPECT_FALSE(r.all_acked);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.budget_exhausted);  // the base gave up, not the clock
  EXPECT_TRUE(r.nodes[0].abandoned);
  EXPECT_EQ(r.nodes[0].abort_reason, net::NodeAbortReason::NeverHeard);
  EXPECT_EQ(r.base.nodes_abandoned, 1u);
  // The live node is unaffected: it completes and installs.
  EXPECT_TRUE(r.nodes[1].complete);
  EXPECT_EQ(r.nodes[1].abort_reason, net::NodeAbortReason::None);
  EXPECT_EQ(sim.node_blob(2), blob);
  // One Abort event, carrying the node id and its reason.
  size_t aborts = 0;
  for (const auto& e : sim.trace())
    if (e.kind == net::NetEventKind::Abort) {
      ++aborts;
      EXPECT_EQ(e.a, 1u);
      EXPECT_EQ(e.b, uint32_t(net::NodeAbortReason::NeverHeard));
    }
  EXPECT_EQ(aborts, 1u);
}

TEST(NetRecovery, HeardThenSilentNodeIsAbandonedAsTimedOut) {
  const auto blob = test_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.chaos_seed = 7;
  cfg.link.drop_pct = 30;  // losses force repair Nacks: the base hears node 1
  cfg.max_cycles = 4'000'000'000ULL;
  cfg.proto.node_give_up_probes = 4;
  // Node 1 participates in the transfer (Nacking its way through 30% loss)
  // and dies just short of completion, never to return: heard, then
  // silent — the base must give it up as timed out, not never-heard.
  cfg.node_faults.scripted = {
      {1, static_cast<uint16_t>(chunks_of(blob) - 4), 80'000'000, false}};
  net::NetSim sim(cfg, blob);
  const auto r = sim.disseminate();

  EXPECT_FALSE(r.all_acked);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_TRUE(r.nodes[0].abandoned);
  EXPECT_GT(r.nodes[0].nacks_sent, 0u);
  EXPECT_EQ(r.nodes[0].abort_reason, net::NodeAbortReason::TimedOut);
  EXPECT_TRUE(r.nodes[1].complete);
}

TEST(NetRecovery, RebootedNodeRevivesAfterShortOutage) {
  // A short outage must never get a node abandoned with the default
  // give-up budget: the node revives on its first frame after reboot.
  const auto blob = test_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.chaos_seed = 9;
  cfg.max_cycles = 2'000'000'000ULL;
  cfg.node_faults.scripted = {{1, 2, 4'000, false}};
  net::NetSim sim(cfg, blob);
  const auto r = sim.disseminate();
  EXPECT_TRUE(r.all_acked);
  EXPECT_FALSE(r.nodes[0].abandoned);
  EXPECT_EQ(r.base.nodes_abandoned, 0u);
  EXPECT_EQ(sim.node_blob(1), blob);
}

TEST(NetRecovery, AbortReasonsSurfaceThroughTheHarness) {
  sim::NetworkRunSpec spec;
  spec.net.nodes = 2;
  spec.net.chaos_seed = 7;
  spec.net.max_cycles = 2'000'000'000ULL;
  spec.net.proto.node_give_up_probes = 3;
  spec.net.node_faults.scripted = {{1, 0, 50'000'000, false}};
  const auto nr = sim::run_network({apps::data_feed_program(6, 64)}, spec);
  ASSERT_EQ(nr.nodes.size(), 2u);
  EXPECT_FALSE(nr.nodes[0].installed);
  EXPECT_EQ(nr.nodes[0].abort_reason, net::NodeAbortReason::NeverHeard);
  EXPECT_TRUE(nr.nodes[1].installed);
  EXPECT_EQ(nr.nodes[1].abort_reason, net::NodeAbortReason::None);
}

// --- Recovery on a mesh: peer resume and subtree abandonment ----------------

TEST(NetRecovery, MeshRebootedNodeResumesFromPeerNotTheBase) {
  // Line topology, three receivers: node 3 is two hops past the base's
  // radio range and is fed by node 2's serves. It crashes mid-transfer
  // with its store preserved; on reboot it must resume from the flash
  // chunk bitmap and pull only the missed chunks — from whichever
  // neighbor answers its Nacks (node 2), not from the base, which never
  // retransmits a frame on node 3's behalf.
  const auto blob = test_blob();
  net::NetConfig cfg;
  cfg.nodes = 3;
  cfg.chaos_seed = 0x5EED;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.topo.kind = net::TopologyKind::Line;
  cfg.proto.node_give_up_probes = 0;
  const uint16_t half = static_cast<uint16_t>(chunks_of(blob) / 2);
  cfg.node_faults.scripted = {{3, half, 4'000, false}};
  net::NetSim sim(cfg, blob);
  const auto r = sim.disseminate();

  ASSERT_TRUE(r.all_acked);
  EXPECT_EQ(r.complete_nodes(), 3u);
  for (size_t id = 1; id <= 3; ++id)
    EXPECT_EQ(sim.node_blob(id), blob) << "node " << id;
  EXPECT_EQ(r.nodes[2].crashes, 1u);
  EXPECT_EQ(r.nodes[2].reboots, 1u);
  EXPECT_GT(r.nodes[2].resumed_chunks, 0u);  // flash bitmap survived
  // The upstream peer (node 2) did the serving. The base repairs only
  // the frames node 1 missed while half-duplex-deaf during its own
  // serves — nowhere near the rebooted node's re-pulled half-image.
  EXPECT_GT(r.nodes[1].chunks_served, 0u);
  EXPECT_LT(r.base.retransmissions, uint64_t(half) / 2);
}

TEST(NetRecovery, MeshSubtreePartitionIsAbandonedWithStarClassification) {
  // Node 1 is the only bridge between the base and node 2. It dies before
  // its radio keys up and stays down; the whole subtree partitions. The
  // base's abandon classification is unchanged from star mode: it never
  // heard either node, so both are abandoned as NeverHeard — the relay
  // machinery must not manufacture liveness for a partitioned subtree.
  const auto blob = test_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.chaos_seed = 7;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.topo.kind = net::TopologyKind::Line;
  cfg.proto.node_give_up_probes = 3;
  cfg.node_faults.scripted = {{1, 0, 4'000'000'000ULL, false}};
  net::NetSim sim(cfg, blob);
  const auto r = sim.disseminate();

  EXPECT_FALSE(r.all_acked);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.budget_exhausted);  // the base gave up, not the clock
  EXPECT_TRUE(r.nodes[0].abandoned);
  EXPECT_EQ(r.nodes[0].abort_reason, net::NodeAbortReason::NeverHeard);
  EXPECT_TRUE(r.nodes[1].abandoned);
  EXPECT_EQ(r.nodes[1].abort_reason, net::NodeAbortReason::NeverHeard);
  EXPECT_EQ(r.base.nodes_abandoned, 2u);
}

// --- Medium link-outage windows (FaultPolicy extension) ---------------------

TEST(MediumOutage, WindowSuppressesDeliveriesBothWaysOfTime) {
  emu::Machine a, b;
  net::Medium medium(net::LinkParams{}, 1);
  medium.attach(&a.dev());
  medium.attach(&b.dev());
  const std::vector<uint8_t> pkt{1, 2, 3, 4};

  medium.add_outage({0, 1, 10'000, 20'000});
  medium.broadcast(0, pkt, 15'000);  // inside the window: suppressed
  medium.broadcast(0, pkt, 25'000);  // after it: delivered
  medium.flush(1'000'000);
  b.dev().sync(1'000'000);

  EXPECT_EQ(medium.stats().outage_drops, 1u);
  EXPECT_EQ(medium.stats().delivered, 1u);
  EXPECT_EQ(b.dev().rx_delivered(), pkt.size());
}

TEST(MediumOutage, WildcardEndpointDownsEveryLinkOfANode) {
  emu::Machine a, b, c;
  net::Medium medium(net::LinkParams{}, 1);
  medium.attach(&a.dev());
  medium.attach(&b.dev());
  medium.attach(&c.dev());
  const std::vector<uint8_t> pkt{9, 9};

  // Node 1 is down in both directions; 0 <-> 2 is unaffected.
  medium.add_outage({1, net::kAnyNode, 0, 100'000});
  medium.add_outage({net::kAnyNode, 1, 0, 100'000});
  medium.broadcast(0, pkt, 5'000);  // to 1 (suppressed) and 2 (delivered)
  medium.broadcast(1, pkt, 6'000);  // to 0 and 2: both suppressed
  medium.flush(1'000'000);
  a.dev().sync(1'000'000);
  b.dev().sync(1'000'000);
  c.dev().sync(1'000'000);

  EXPECT_EQ(medium.stats().outage_drops, 3u);
  EXPECT_EQ(medium.stats().delivered, 1u);
  EXPECT_EQ(a.dev().rx_delivered(), 0u);
  EXPECT_EQ(b.dev().rx_delivered(), 0u);
  EXPECT_EQ(c.dev().rx_delivered(), pkt.size());
}

TEST(MediumOutage, PartitionWindowsExpireAndConsumeNoRandomness) {
  const auto blob = test_blob();
  // A partitioned start: the base can reach nobody for a while, then the
  // partition heals and dissemination completes normally.
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.chaos_seed = 11;
  cfg.max_cycles = 2'000'000'000ULL;
  net::NetSim sim(cfg, blob);
  const auto r = sim.disseminate();
  ASSERT_TRUE(r.all_acked);

  // Outage checks precede every random roll, so a window in the past must
  // leave a seeded run's schedule untouched.
  emu::Machine a, b;
  net::LinkParams lossy;
  lossy.drop_pct = 30;
  net::Medium m1(lossy, 77);
  net::Medium m2(lossy, 77);
  m1.attach(&a.dev());
  m1.attach(&b.dev());
  emu::Machine c, d;
  m2.attach(&c.dev());
  m2.attach(&d.dev());
  const std::vector<size_t> left{0}, right{1};
  m2.add_partition(left, right, 0, 1);  // expires before any traffic
  const std::vector<uint8_t> pkt{5, 5, 5};
  for (int i = 0; i < 50; ++i) {
    m1.broadcast(0, pkt, 10'000 + i * 1'000);
    m2.broadcast(0, pkt, 10'000 + i * 1'000);
  }
  EXPECT_EQ(m1.stats().dropped, m2.stats().dropped);
  EXPECT_EQ(m1.stats().delivered, m2.stats().delivered);
  EXPECT_EQ(m2.stats().outage_drops, 0u);
}

}  // namespace
}  // namespace sensmart
