// Whole-result fingerprints of the network engine.
//
// The trace digest covers every trace event, but not the per-node byte
// accounting a run reports outside the trace: bytes_rx, crc_drops,
// rx_overruns, frames_rx, completion cycles, medium and base counters.
// Each case below folds EVERY field of its DisseminationResult (or
// RolloutResult) into one FNV-1a fingerprint and pins it. The pinned
// values were generated by the per-quantum engine that stepped every
// receiver in every quantum; the wake-scheduled engine (DESIGN.md §9)
// must reproduce them bit for bit. NetConfig::shards is an ignored field
// (the engine is serial); each case runs at shards=1 and shards=4 to pin
// that setting it changes nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/treesearch.hpp"
#include "chaos/hostile.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

namespace sensmart {
namespace {

std::vector<uint8_t> linked_blob(const std::vector<assembler::Image>& images) {
  rw::Linker linker(rw::RewriteOptions{}, true);
  for (const auto& img : images) linker.add(img);
  return net::serialize_system(linker.link());
}

const std::vector<uint8_t>& image() {
  static const std::vector<uint8_t> blob = linked_blob(apps::fig7_mix(8, 1));
  return blob;
}

// The rollout case's old image: the same feed with a smaller, differently
// seeded search tree.
std::vector<uint8_t> old_image() {
  apps::TreeSearchParams p;
  p.nodes_per_tree = 6;
  p.trees = 1;
  p.searches = 32;
  p.seed = 0x0101;
  return linked_blob(
      {apps::data_feed_program(6, 64), apps::tree_search_program(p)});
}

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void operator()(uint64_t v) { h = net::fnv1a_step(h, v); }
};

void fold(Fnv& f, const net::DisseminationResult& r) {
  f(r.all_acked);
  f(r.aborted);
  f(r.budget_exhausted);
  f(r.cycles);
  f(r.total_chunks);
  f(r.image_crc);
  f(r.image_bytes);
  const net::BaseDissemStats& b = r.base;
  for (uint64_t v : {b.frames_tx, b.data_tx, b.retransmissions, b.summaries_tx,
                     b.nacks_rx, b.acks_rx, b.bytes_tx,
                     uint64_t(b.nodes_abandoned), b.acks_rejected,
                     b.frames_squelched})
    f(v);
  for (const net::NodeDissemStats& n : r.nodes) {
    for (uint64_t v :
         {uint64_t(n.complete), n.completion_cycle, n.frames_rx, n.data_rx,
          n.duplicate_chunks, n.crc_drops, n.nacks_sent, n.acks_sent,
          n.summaries_rx, uint64_t(n.checksum_failures),
          uint64_t(n.auth_rejects), uint64_t(n.backoff_max_exp), n.bytes_tx,
          n.bytes_rx, n.rx_overruns, uint64_t(n.crashes), uint64_t(n.reboots),
          uint64_t(n.resumed_chunks), n.store_writes, uint64_t(n.abandoned),
          uint64_t(n.abort_reason), uint64_t(n.hop),
          uint64_t(n.parent_switches), n.chunks_served, n.acks_relayed,
          n.summaries_relayed})
      f(v);
  }
  const net::MediumStats& m = r.medium;
  for (uint64_t v : {m.packets_offered, m.delivered, m.dropped, m.duplicated,
                     m.reordered, m.corrupted, m.outage_drops, m.bytes_on_air,
                     m.collisions})
    f(v);
  f(r.trace_digest);
  f(r.trace_events);
  f(r.complete_count);
  f(r.abandoned_count);
}

uint64_t fingerprint(const net::DisseminationResult& r) {
  Fnv f;
  fold(f, r);
  return f.h;
}

uint64_t fingerprint(const net::RolloutResult& r) {
  Fnv f;
  fold(f, r.dissem);
  for (uint64_t v :
       {uint64_t(r.complete), uint64_t(r.halted), uint64_t(r.budget_exhausted),
        uint64_t(r.waves), uint64_t(r.waves_promoted), uint64_t(r.failures),
        uint64_t(r.confirmed), uint64_t(r.rolled_back), uint64_t(r.gave_up),
        r.health_rejected, r.cycles, r.trace_digest, uint64_t(r.trace_events)})
    f(v);
  for (const net::NodeRolloutStats& n : r.nodes)
    for (uint64_t v :
         {uint64_t(n.member), uint64_t(n.activated), uint64_t(n.confirmed),
          uint64_t(n.rolled_back), uint64_t(n.given_up),
          uint64_t(n.reports_rx), uint64_t(n.final_slot),
          uint64_t(n.final_state), uint64_t(n.final_crc),
          uint64_t(n.trial_left_active)})
      f(v);
  return f.h;
}

net::NetConfig star(size_t nodes, uint64_t seed) {
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.chaos_seed = seed;
  cfg.max_cycles = 3'000'000'000ULL;
  return cfg;
}

// One star fleet size crossed with one fault class at 20 %. The 81-node
// cells stop on a cycle budget mid-transfer, so their counters also pin
// what the engine reports for bytes still in flight at the last quantum.
net::NetConfig fault_cell(size_t nodes, char fault) {
  net::NetConfig cfg = star(nodes, 0xF1E0 + nodes + uint64_t(fault));
  switch (fault) {
    case 'd': cfg.link.drop_pct = 20; break;
    case 'u': cfg.link.dup_pct = 20; break;
    case 'r': cfg.link.reorder_pct = 20; break;
    case 'c': cfg.link.corrupt_pct = 20; break;
  }
  if (nodes > 32) cfg.max_cycles = 150'000'000ULL;
  return cfg;
}

uint64_t run_dissem(net::NetConfig cfg, unsigned shards,
                    net::HostileModel* hostile = nullptr) {
  cfg.shards = shards;
  net::NetSim sim(cfg, image());
  if (hostile) sim.set_hostile_model(hostile);
  const net::DisseminationResult r = sim.disseminate();
  // The counter-maintained complete/abandoned counts must always agree
  // with an explicit scan of the per-node results (they replaced O(N)
  // polling scans; any drift is a transition-bookkeeping bug).
  size_t scan_complete = 0, scan_abandoned = 0;
  for (const auto& n : r.nodes) {
    if (n.complete) ++scan_complete;
    if (n.abandoned) ++scan_abandoned;
  }
  EXPECT_EQ(r.complete_nodes(), scan_complete);
  EXPECT_EQ(r.abandoned_nodes(), scan_abandoned);
  return fingerprint(r);
}

// --- The cases --------------------------------------------------------------

uint64_t case_fault(size_t nodes, char fault, unsigned shards) {
  return run_dissem(fault_cell(nodes, fault), shards);
}

uint64_t case_auth(unsigned shards) {
  net::NetConfig cfg = star(8, 0xA0A0);
  cfg.link.drop_pct = 10;
  cfg.link.corrupt_pct = 5;
  cfg.proto.auth = true;
  return run_dissem(cfg, shards);
}

// Scripted and seeded crashes, both with cold (store-wiping) reboots.
uint64_t case_crashes(unsigned shards) {
  net::NetConfig cfg = star(8, 0xC4A5);
  cfg.link.drop_pct = 10;
  cfg.link.dup_pct = 5;
  cfg.node_faults.scripted.push_back({2, 0, 300, false});
  cfg.node_faults.scripted.push_back({3, 40, 500, true});
  cfg.node_faults.scripted.push_back({5, 90, 200, true});
  cfg.node_faults.crash_pct = 60;
  cfg.node_faults.max_crashes_per_node = 2;
  cfg.node_faults.wipe_pct = 50;
  cfg.node_faults.down_min_bytes = 32;
  cfg.node_faults.down_max_bytes = 900;
  return run_dissem(cfg, shards);
}

// A node dark for far longer than the base's give-up bound: the base
// abandons it (and classifies why) while the rest complete.
uint64_t case_abandon(unsigned shards) {
  net::NetConfig cfg = star(6, 0xAB4D);
  cfg.link.drop_pct = 10;
  cfg.proto.node_give_up_probes = 3;
  cfg.node_faults.scripted.push_back({2, 0, 60'000, false});
  cfg.node_faults.scripted.push_back({4, 60, 60'000, true});
  return run_dissem(cfg, shards);
}

uint64_t case_hostile(unsigned shards) {
  net::NetConfig cfg = star(8, 0x4057);
  cfg.link.drop_pct = 10;
  cfg.hostile_node = 3;
  cfg.proto.auth = true;
  cfg.max_cycles = 1'000'000'000ULL;
  chaos::HostileProfile p;
  p.seed = 0x4057;
  p.node = 3;
  p.nodes = 8;
  p.intensity_pct = 8;
  chaos::HostileNode model(p);
  return run_dissem(cfg, shards, &model);
}

uint64_t case_grid(unsigned shards) {
  net::NetConfig cfg = star(16, 0x6A1D);
  cfg.link.drop_pct = 10;
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.proto.node_give_up_probes = 0;
  cfg.max_cycles = 8'000'000'000ULL;
  return run_dissem(cfg, shards);
}

// The grid under MAC authentication with scripted and seeded crashes (cold
// reboots included): mesh nodes go down, rejoin the Summary flood and
// resume from peers while relayed Acks carry keyed tags.
uint64_t case_grid_crash_auth(unsigned shards) {
  net::NetConfig cfg = star(16, 0x6C4A);
  cfg.link.drop_pct = 10;
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.proto.node_give_up_probes = 0;
  cfg.proto.auth = true;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.node_faults.scripted.push_back({4, 0, 400, false});
  cfg.node_faults.scripted.push_back({9, 30, 700, true});
  cfg.node_faults.crash_pct = 40;
  cfg.node_faults.wipe_pct = 50;
  cfg.node_faults.down_min_bytes = 64;
  cfg.node_faults.down_max_bytes = 900;
  return run_dissem(cfg, shards);
}

// A line: every chunk, Nack, Ack and Summary relay crosses a long chain
// of single-parent hops.
uint64_t case_line(unsigned shards) {
  net::NetConfig cfg = star(10, 0x11AE);
  cfg.link.drop_pct = 10;
  cfg.topo.kind = net::TopologyKind::Line;
  cfg.proto.node_give_up_probes = 0;
  cfg.max_cycles = 8'000'000'000ULL;
  return run_dissem(cfg, shards);
}

net::RolloutResult run_rollout(const net::NetConfig& cfg,
                               const std::vector<std::pair<uint16_t,
                                   net::TrialBehavior>>& behaviors) {
  net::NetSim sim(cfg, image());
  sim.set_initial_image(old_image(), 0);
  for (const auto& [node, b] : behaviors) sim.set_trial_behavior(node, b);
  return sim.rollout();
}

uint64_t case_rollout(unsigned shards) {
  net::NetConfig cfg = star(6, 0x5EED);
  cfg.link.drop_pct = 5;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.rollout.enabled = true;
  cfg.rollout.wave_size = 2;
  cfg.rollout.failure_budget = 1;
  cfg.shards = shards;
  net::TrialBehavior crash;
  crash.kind = net::TrialBehavior::Kind::CrashBoot;
  return fingerprint(run_rollout(cfg, {{4, crash}}));
}

// A mesh rollout: Controls flood outward and health reports relay back
// over several hops. One trial crash-boots and one trips the supervision
// gate; the budget absorbs both, so every wave still runs.
uint64_t case_grid_rollout(unsigned shards) {
  net::NetConfig cfg = star(16, 0x6A20);
  cfg.link.drop_pct = 5;
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.proto.node_give_up_probes = 0;
  cfg.proto.auth = true;
  cfg.max_cycles = 16'000'000'000ULL;
  cfg.rollout.enabled = true;
  cfg.rollout.wave_size = 4;
  cfg.rollout.failure_budget = 2;
  cfg.shards = shards;
  net::TrialBehavior crash;
  crash.kind = net::TrialBehavior::Kind::CrashBoot;
  crash.at_pct = 60;
  net::TrialBehavior lemon;
  lemon.kind = net::TrialBehavior::Kind::Runaway;
  lemon.at_pct = 40;
  lemon.quarantines = 1;
  return fingerprint(run_rollout(cfg, {{7, crash}, {12, lemon}}));
}

struct Case {
  const char* name;
  uint64_t (*run)(unsigned shards);
  uint64_t want;
};

// Stable test listing: print the case name, not the struct's bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

template <size_t N, char F>
uint64_t fault(unsigned shards) {
  return case_fault(N, F, shards);
}

const Case kCases[] = {
    {"star4_drop", fault<4, 'd'>, 0x7015660a1988aa7fULL},
    {"star4_dup", fault<4, 'u'>, 0x98d9c0075a695ea0ULL},
    {"star4_reorder", fault<4, 'r'>, 0xe55c0dfd6aa31931ULL},
    {"star4_corrupt", fault<4, 'c'>, 0xf6ca1234d7f17164ULL},
    {"star25_drop", fault<25, 'd'>, 0xa5d6a2cbdac51c5dULL},
    {"star25_dup", fault<25, 'u'>, 0x9f657154465d9725ULL},
    {"star25_reorder", fault<25, 'r'>, 0x549f0007b4393ff4ULL},
    {"star25_corrupt", fault<25, 'c'>, 0x41d0a39e58d7f194ULL},
    {"star81_drop", fault<81, 'd'>, 0x39f78ae4005fc65cULL},
    {"star81_dup", fault<81, 'u'>, 0x211b140c0b22af9bULL},
    {"star81_reorder", fault<81, 'r'>, 0x8cdbb6d9afa851bbULL},
    {"star81_corrupt", fault<81, 'c'>, 0x2c111bdcfae94801ULL},
    {"auth", case_auth, 0x0b114df2b7146cc7ULL},
    {"crashes", case_crashes, 0x86352ea53568a256ULL},
    {"abandon", case_abandon, 0x2713d9e1997a7513ULL},
    {"hostile", case_hostile, 0x681850649e70e1a2ULL},
    {"grid16", case_grid, 0xb23bc7a162f4cc5cULL},
    {"rollout", case_rollout, 0x09fb509089310b51ULL},
    {"grid16_crash_auth", case_grid_crash_auth, 0xe851f919002a62e2ULL},
    {"line10", case_line, 0x1da19f6ccfb9f398ULL},
    {"grid_rollout", case_grid_rollout, 0x9f4cbb1022516aeaULL},
};

class NetFingerprint : public ::testing::TestWithParam<Case> {};

TEST_P(NetFingerprint, MatchesPinnedAtShards1And4) {
  const Case& c = GetParam();
  for (unsigned shards : {1u, 4u}) {
    const uint64_t got = c.run(shards);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.want) << c.name << " shards=" << shards << " got " << hex;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, NetFingerprint, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace sensmart
