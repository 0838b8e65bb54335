// Over-the-air dissemination cost across network size, topology and loss
// rate: for each (topology, nodes, drop%) cell, disseminate the
// naturalized fig7 treesearch image to every node and report completion
// time (emulated cycles, cycles per node and radio-seconds), the energy
// proxy (bytes on air / received per node), and the repair traffic
// (Nacks, retransmissions). Star cells use the legacy single-hop medium;
// mesh cells (line/grid/random placements, DESIGN.md §10) add spatial
// link quality, CSMA contention with deterministic collisions and
// peer-to-peer chunk serving — the per-node cost column is the headline:
// with peers answering repair Nacks it stays near-flat as the network
// grows. Every cell is a deterministic function of the chaos seed, so the
// matrix doubles as a regression surface: --gate compares the summed star
// completion cycles and the summed mesh gate-cell cycles against the
// committed BENCH_dissemination.json with a 2% tolerance, and fails if
// the mesh cost flatness ratio cpn(64 nodes) / cpn(8 nodes) at 10% loss
// exceeds 2x.
//
// --recovery swaps the matrix for a reboot-rate x loss-rate grid: every
// receiver suffers k seeded mid-transfer crash/reboot cycles (k = 0..2)
// under each loss rate, exercising the persistent-store resume path
// (DESIGN.md §8). The default matrix and --gate math are untouched.
//
// --adversarial swaps the matrix for the authentication overhead surface
// (DESIGN.md §11): {star 8, grid 16} at 10% loss, crossed with MAC on/off
// and a seeded hostile node on/off. Two gates ride on it: MAC-on honest
// runs must stay within ±2% of the MAC-off completion cycles (the tag
// bytes are the only added cost), and no MAC-on cell may ever count a
// forged install. The default matrix, JSON and --gate math are untouched.
//
// --rollout swaps the matrix for the staged-upgrade surface (DESIGN.md
// §12): a fleet already running an old image is upgraded wave-by-wave to
// the fig7 image behind the health gate, crossed with wave size, loss and
// 0-2 seeded lemon trials against a failure budget of 1. Its gates are
// intrinsic (no committed JSON): lemon-free cells must promote every node
// to the byte-exact new image, one lemon must roll back exactly that node
// while the rest confirm, and two lemons must trip the budget, halt the
// rollout and leave every node byte-exact on the old image — no cell may
// ever leave an unconfirmed trial active.
//
//   fig_dissemination [--smoke] [--recovery] [--adversarial] [--rollout]
//                     [--jobs N] [--json PATH] [--gate [BENCH.json]]
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/treesearch.hpp"
#include "chaos/hostile.hpp"
#include "host/parallel.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "sim/harness.hpp"

using namespace sensmart;

namespace {

constexpr uint64_t kChaosSeed = 0x5EED;

struct Cell {
  const char* topo = "star";
  net::TopologyKind kind = net::TopologyKind::Star;
  size_t nodes = 0;
  uint32_t drop_pct = 0;
  net::DisseminationResult res;

  uint64_t cycles_per_node() const {
    return res.cycles / (nodes ? nodes : 1);
  }
  uint64_t chunks_served() const {
    uint64_t v = 0;
    for (const auto& n : res.nodes) v += n.chunks_served;
    return v;
  }
  double radio_seconds() const {
    return double(res.cycles) / double(emu::kClockHz);
  }
  uint64_t rx_bytes_total() const {
    uint64_t b = 0;
    for (const auto& n : res.nodes) b += n.bytes_rx;
    return b;
  }
  uint64_t nacks_total() const {
    uint64_t n = 0;
    for (const auto& s : res.nodes) n += s.nacks_sent;
    return n;
  }
};

std::vector<uint8_t> fig7_image_blob() {
  std::vector<assembler::Image> images;
  images.push_back(apps::data_feed_program(6, 64));
  for (int i = 0; i < 2; ++i) {
    apps::TreeSearchParams p;
    p.nodes_per_tree = 8;
    p.trees = 1;
    p.searches = 32;
    p.seed = static_cast<uint16_t>(0x3131 + 0x1D0B * i);
    images.push_back(apps::tree_search_program(p));
  }
  rw::Linker linker;
  for (const auto& img : images) linker.add(img);
  return net::serialize_system(linker.link());
}

// Per-node failure detail for a non-converged cell: one line per
// incomplete node with its abort reason, instead of one opaque count.
void report_abort_reasons(const net::DisseminationResult& res) {
  for (size_t i = 0; i < res.nodes.size(); ++i) {
    const auto& n = res.nodes[i];
    if (n.complete) continue;
    std::cerr << "  node " << i + 1 << ": "
              << net::to_string(n.abort_reason)
              << (n.abandoned ? " (abandoned by base)" : "")
              << ", " << n.data_rx << " chunks rx, " << n.nacks_sent
              << " nacks\n";
  }
  if (res.budget_exhausted) std::cerr << "  (cycle budget exhausted)\n";
}

const char* topo_name(net::TopologyKind k) {
  switch (k) {
    case net::TopologyKind::Star: return "star";
    case net::TopologyKind::Line: return "line";
    case net::TopologyKind::Grid: return "grid";
    case net::TopologyKind::Random: return "random";
  }
  return "?";
}

Cell run_cell(const std::vector<uint8_t>& blob, size_t nodes,
              uint32_t drop_pct,
              net::TopologyKind kind = net::TopologyKind::Star) {
  Cell c;
  c.kind = kind;
  c.topo = topo_name(kind);
  c.nodes = nodes;
  c.drop_pct = drop_pct;
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = drop_pct;
  cfg.chaos_seed = kChaosSeed;
  cfg.max_cycles = 8'000'000'000ULL;
  if (kind != net::TopologyKind::Star) {
    cfg.topo.kind = kind;
    // Mesh end-games ride on relayed acks through a contended channel; a
    // straggler can outlive the star-tuned abandon bound, so the base
    // never gives up.
    cfg.proto.node_give_up_probes = 0;
    cfg.max_cycles = 64'000'000'000ULL;
  }
  net::NetSim sim(cfg, blob);
  c.res = sim.disseminate();
  if (!c.res.all_acked) {
    std::cerr << "fig_dissemination: cell topo=" << c.topo
              << " nodes=" << nodes << " drop=" << drop_pct
              << "% did not converge\n";
    report_abort_reasons(c.res);
    std::exit(1);
  }
  for (size_t id = 1; id <= nodes; ++id) {
    if (sim.node_blob(id) != blob) {
      std::cerr << "fig_dissemination: node " << id
                << " image not byte-identical (nodes=" << nodes
                << " drop=" << drop_pct << "%)\n";
      std::exit(1);
    }
  }
  return c;
}

struct CellSpec {
  net::TopologyKind kind;
  size_t nodes;
  uint32_t drop_pct;
};

std::vector<Cell> run_cells(const std::vector<uint8_t>& blob,
                            const std::vector<CellSpec>& specs,
                            unsigned jobs) {
  // Each cell is an independent deterministic simulation; the matrix is
  // identical for any --jobs value.
  return host::sweep_collect<Cell>(
      specs.size(), host::effective_jobs(jobs, specs.size()),
      [&](std::size_t i) {
        return run_cell(blob, specs[i].nodes, specs[i].drop_pct,
                        specs[i].kind);
      });
}

std::vector<Cell> run_matrix(const std::vector<uint8_t>& blob,
                             const std::vector<size_t>& node_counts,
                             const std::vector<uint32_t>& drops,
                             unsigned jobs) {
  std::vector<CellSpec> specs;
  for (size_t n : node_counts)
    for (uint32_t d : drops)
      specs.push_back({net::TopologyKind::Star, n, d});
  return run_cells(blob, specs, jobs);
}

// The mesh matrix: placements x sizes x loss. The grid 8/64 pair at 10%
// loss is the flatness surface --gate checks.
std::vector<CellSpec> mesh_specs(bool smoke) {
  using net::TopologyKind;
  if (smoke) return {{TopologyKind::Grid, 8, 10}};
  return {
      {TopologyKind::Line, 8, 10},    {TopologyKind::Random, 12, 10},
      {TopologyKind::Grid, 8, 0},     {TopologyKind::Grid, 8, 10},
      {TopologyKind::Grid, 24, 10},   {TopologyKind::Grid, 64, 10},
  };
}

// Recovery matrix (--recovery): fixed 4-node network, every receiver
// crashes and reboots k times mid-transfer (seeded, store preserved),
// crossed with the loss rates. Convergence is required: a reboot is an
// outage, not a death sentence, so every cell must still end all-acked
// with byte-identical images.
struct RecoveryCell {
  uint32_t crashes_per_node = 0;
  uint32_t drop_pct = 0;
  net::DisseminationResult res;

  double radio_seconds() const {
    return double(res.cycles) / double(emu::kClockHz);
  }
  uint64_t sum_nodes(uint64_t net::NodeDissemStats::* f) const {
    uint64_t v = 0;
    for (const auto& n : res.nodes) v += n.*f;
    return v;
  }
  uint64_t crashes() const {
    uint64_t v = 0;
    for (const auto& n : res.nodes) v += n.crashes;
    return v;
  }
  uint64_t resumed_chunks() const {
    uint64_t v = 0;
    for (const auto& n : res.nodes) v += n.resumed_chunks;
    return v;
  }
};

RecoveryCell run_recovery_cell(const std::vector<uint8_t>& blob,
                               uint32_t crashes_per_node,
                               uint32_t drop_pct) {
  RecoveryCell c;
  c.crashes_per_node = crashes_per_node;
  c.drop_pct = drop_pct;
  net::NetConfig cfg;
  cfg.nodes = 4;
  cfg.link.drop_pct = drop_pct;
  cfg.chaos_seed = kChaosSeed;
  cfg.max_cycles = 8'000'000'000ULL;
  if (crashes_per_node > 0) {
    cfg.node_faults.crash_pct = 100;  // every node reboots k times
    cfg.node_faults.max_crashes_per_node = crashes_per_node;
    cfg.node_faults.down_min_bytes = 256;
    cfg.node_faults.down_max_bytes = 2048;
  }
  net::NetSim sim(cfg, blob);
  c.res = sim.disseminate();
  if (!c.res.all_acked) {
    std::cerr << "fig_dissemination: recovery cell reboots="
              << crashes_per_node << " drop=" << drop_pct
              << "% did not converge\n";
    report_abort_reasons(c.res);
    std::exit(1);
  }
  for (size_t id = 1; id <= cfg.nodes; ++id) {
    if (sim.node_blob(id) != blob) {
      std::cerr << "fig_dissemination: node " << id
                << " image not byte-identical after recovery (reboots="
                << crashes_per_node << " drop=" << drop_pct << "%)\n";
      std::exit(1);
    }
  }
  return c;
}

int run_recovery(const std::vector<uint8_t>& blob, unsigned jobs) {
  const std::vector<uint32_t> reboot_counts = {0, 1, 2};
  const std::vector<uint32_t> drops = {0, 10, 25};
  std::vector<std::pair<uint32_t, uint32_t>> grid;
  for (uint32_t k : reboot_counts)
    for (uint32_t d : drops) grid.emplace_back(k, d);
  const auto cells = host::sweep_collect<RecoveryCell>(
      grid.size(), host::effective_jobs(jobs, grid.size()),
      [&](std::size_t i) {
        return run_recovery_cell(blob, grid[i].first, grid[i].second);
      });

  std::cout << "Dissemination under node crash/reboot faults (4 nodes, "
            << blob.size() << " bytes, " << cells[0].res.total_chunks
            << " chunks; every node reboots k times mid-transfer)\n\n";
  sim::Table t({"Reboots/node", "Drop%", "Time(s)", "Crashes", "Resumed",
                "Retx", "StoreWrites", "Converged"},
               13);
  for (const RecoveryCell& c : cells) {
    t.row({sim::Table::num(uint64_t(c.crashes_per_node)),
           sim::Table::num(uint64_t(c.drop_pct)),
           sim::Table::num(c.radio_seconds(), 2),
           sim::Table::num(c.crashes()),
           sim::Table::num(c.resumed_chunks()),
           sim::Table::num(c.res.base.retransmissions),
           sim::Table::num(c.sum_nodes(&net::NodeDissemStats::store_writes)),
           c.res.all_acked ? "yes" : "NO"});
  }
  t.print();
  std::cout
      << "\nExpected shape: each reboot costs one outage plus the repair\n"
         "Nack round for chunks missed while down; resumed chunks come\n"
         "from the persistent store, so completion time grows with the\n"
         "outage count, not with a full image re-transfer. Store writes\n"
         "stay near the chunk count: chunks survive reboots and are not\n"
         "re-flashed.\n";
  return 0;
}

// --- Adversarial overhead surface (DESIGN.md §11) ---------------------------
// {star 8, grid 16} at 10% loss, crossed with MAC authentication on/off
// and a seeded hostile node on/off. The honest MAC-on/MAC-off pairs price
// the authentication tax; the hostile cells show what an attacker costs a
// defended fleet (and what it wins against an undefended one).

struct AdvCell {
  net::TopologyKind kind = net::TopologyKind::Star;
  size_t nodes = 0;
  bool auth = false;
  bool hostile = false;
  uint32_t drop_pct = 0;
  net::DisseminationResult res;
  uint32_t forged_installs = 0;  // nodes that completed with foreign bytes
  uint64_t auth_rejects = 0;     // assembled images killed at the MAC gate
  uint64_t hostile_frames = 0;   // attack frames injected

  double radio_seconds() const {
    return double(res.cycles) / double(emu::kClockHz);
  }
};

AdvCell run_adv_cell(const std::vector<uint8_t>& blob, net::TopologyKind kind,
                     size_t nodes, bool auth, bool hostile,
                     uint32_t drop_pct) {
  AdvCell c;
  c.kind = kind;
  c.nodes = nodes;
  c.auth = auth;
  c.hostile = hostile;
  c.drop_pct = drop_pct;
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = drop_pct;
  cfg.chaos_seed = kChaosSeed;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.proto.auth = auth;
  const uint16_t attacker_id = kind == net::TopologyKind::Star ? 3 : 5;
  if (kind != net::TopologyKind::Star) {
    cfg.topo.kind = kind;
    // Honest mesh cells keep the convergence-matrix setting (never give
    // up: a distant mid-transfer node looks silent at the base). Attacked
    // cells need a finite abandon bound — the hostile node never Acks, so
    // without one the run could only end at the cycle budget. The bound is
    // generous enough that honest stragglers revive (any frame revives an
    // abandoned node) and finish; the MAC-overhead gate only compares the
    // honest cells, which share a config.
    cfg.proto.node_give_up_probes = hostile ? 96 : 0;
    cfg.max_cycles = 64'000'000'000ULL;
  }
  chaos::HostileProfile p;
  p.seed = 0xD15EA5E;
  p.node = attacker_id;
  p.nodes = static_cast<uint16_t>(nodes);
  p.chunk_payload = cfg.proto.chunk_payload;
  p.intensity_pct = 35;
  chaos::HostileNode attacker(p);
  if (hostile) cfg.hostile_node = attacker_id;

  net::NetSim sim(cfg, blob);
  if (hostile) sim.set_hostile_model(&attacker);
  c.res = sim.disseminate();
  if (c.res.budget_exhausted) {
    std::cerr << "fig_dissemination: adversarial cell " << topo_name(kind)
              << " nodes=" << nodes << " mac=" << auth
              << " hostile=" << hostile << " exhausted the cycle budget\n";
    report_abort_reasons(c.res);
    std::exit(1);
  }
  if (!hostile && !c.res.all_acked) {
    std::cerr << "fig_dissemination: honest adversarial-matrix cell "
              << topo_name(kind) << " nodes=" << nodes << " mac=" << auth
              << " did not converge\n";
    report_abort_reasons(c.res);
    std::exit(1);
  }
  for (size_t id = 1; id <= nodes; ++id) {
    if (hostile && id == attacker_id) continue;
    if (sim.node_complete(id) && sim.node_blob(id) != blob)
      ++c.forged_installs;
  }
  for (const auto& n : c.res.nodes) c.auth_rejects += n.auth_rejects;
  if (hostile) c.hostile_frames = attacker.frames_emitted();
  return c;
}

int run_adversarial(const std::vector<uint8_t>& blob, unsigned jobs) {
  struct Scenario {
    net::TopologyKind kind;
    size_t nodes;
  };
  const std::vector<Scenario> scenarios = {{net::TopologyKind::Star, 8},
                                           {net::TopologyKind::Grid, 16}};
  // The 10%-loss matrix crossed with MAC and hostile, plus one lossless
  // honest MAC-on/off pair per scenario: at 0% loss the runs are fully
  // deterministic, so that pair measures the pure authentication tax —
  // at 10% loss the tag bytes shift frame timing against the seeded drop
  // rolls and the alignment luck (±5%) buries the tax (~0.3%).
  struct AdvSpec {
    Scenario s;
    bool auth;
    bool hostile;
    uint32_t drop;
  };
  std::vector<AdvSpec> specs;
  for (const Scenario& s : scenarios) {
    for (bool auth : {false, true})
      for (bool hostile : {false, true}) specs.push_back({s, auth, hostile, 10});
    for (bool auth : {false, true}) specs.push_back({s, auth, false, 0});
  }

  const auto cells = host::sweep_collect<AdvCell>(
      specs.size(), host::effective_jobs(jobs, specs.size()),
      [&](std::size_t i) {
        return run_adv_cell(blob, specs[i].s.kind, specs[i].s.nodes,
                            specs[i].auth, specs[i].hostile, specs[i].drop);
      });

  std::cout << "Authentication overhead and hostile-node cost ("
            << blob.size() << " bytes, " << cells[0].res.total_chunks
            << " chunks; attacker intensity 35%)\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "MAC", "Hostile", "Time(s)", "Mcyc",
                "AirBytes", "Done", "Gaveup", "Forged", "MacRej", "AckRej",
                "Squelch"},
               11);
  for (const AdvCell& c : cells) {
    t.row({topo_name(c.kind), sim::Table::num(uint64_t(c.nodes)),
           sim::Table::num(uint64_t(c.drop_pct)),
           c.auth ? "on" : "off", c.hostile ? "on" : "off",
           sim::Table::num(c.radio_seconds(), 2),
           sim::Table::num(double(c.res.cycles) / 1e6, 1),
           sim::Table::num(c.res.medium.bytes_on_air),
           sim::Table::num(uint64_t(c.res.complete_count)),
           sim::Table::num(uint64_t(c.res.abandoned_count)),
           sim::Table::num(uint64_t(c.forged_installs)),
           sim::Table::num(c.auth_rejects),
           sim::Table::num(c.res.base.acks_rejected),
           sim::Table::num(c.res.base.frames_squelched)});
  }
  t.print();

  // Gate 1: authentication must never let a forged install through.
  // Gate 2: the MAC tax on honest lossless runs. On a star the tag bytes
  // disappear into data traffic (129 40-byte chunks vs one longer Summary
  // and eight longer Acks): ±2%. On a mesh the control plane is the cost —
  // Summary re-floods and hop-by-hop Ack relays are small frames that the
  // 8-byte tag inflates by 38-73% each, so the honest bound is looser; the
  // gate pins it from growing past 25% rather than pretending it is free.
  bool ok = true;
  for (const AdvCell& c : cells) {
    if (c.auth && c.forged_installs > 0) {
      std::cerr << "fig_dissemination: FAIL — " << c.forged_installs
                << " forged install(s) on " << topo_name(c.kind)
                << " with MAC on\n";
      ok = false;
    }
  }
  auto honest_cycles = [&](const Scenario& s, bool auth) -> uint64_t {
    for (const AdvCell& c : cells)
      if (c.kind == s.kind && c.auth == auth && !c.hostile && c.drop_pct == 0)
        return c.res.cycles;
    return 0;
  };
  for (const Scenario& s : scenarios) {
    const uint64_t off = honest_cycles(s, false);
    const uint64_t on = honest_cycles(s, true);
    const double drift = double(on) / double(off) - 1.0;
    const double bound = s.kind == net::TopologyKind::Star ? 0.02 : 0.25;
    std::cout << "adversarial gate [mac overhead, " << topo_name(s.kind)
              << " lossless]: " << on << " vs " << off << " cycles ("
              << sim::Table::num(100.0 * drift, 2) << "% drift, tolerance ±"
              << sim::Table::num(100.0 * bound, 0) << "%)\n";
    if (drift > bound || drift < -bound) {
      std::cerr << "fig_dissemination: FAIL — MAC overhead beyond "
                << sim::Table::num(100.0 * bound, 0) << "% on "
                << topo_name(s.kind) << "\n";
      ok = false;
    }
  }
  if (!ok) return 1;
  std::cout << "adversarial gates: OK\n";
  return 0;
}

// --- Staged-rollout surface (DESIGN.md §12) ---------------------------------
// The fleet starts on an old image (slot A, Confirmed) and is upgraded
// wave-by-wave to the fig7 image under authentication, crossed with wave
// size, loss rate and seeded lemon count against a failure budget of 1.

// The image the fleet runs before the upgrade: a smaller system so old and
// new blobs are guaranteed distinct end-to-end.
std::vector<uint8_t> old_image_blob() {
  apps::TreeSearchParams p;
  p.nodes_per_tree = 6;
  p.trees = 1;
  p.searches = 16;
  p.seed = 0x0101;
  rw::Linker linker;
  linker.add(apps::tree_search_program(p));
  return net::serialize_system(linker.link());
}

struct RolloutCell {
  net::TopologyKind kind = net::TopologyKind::Star;
  size_t nodes = 0;
  uint32_t drop_pct = 0;
  uint32_t wave_size = 0;
  uint32_t lemons = 0;
  net::RolloutResult res;
  std::vector<std::string> failures;  // intrinsic gate violations

  double radio_seconds() const {
    return double(res.cycles) / double(emu::kClockHz);
  }
};

RolloutCell run_rollout_cell(const std::vector<uint8_t>& new_blob,
                             const std::vector<uint8_t>& old_blob,
                             net::TopologyKind kind, size_t nodes,
                             uint32_t drop_pct, uint32_t wave_size,
                             uint32_t lemons) {
  RolloutCell c;
  c.kind = kind;
  c.nodes = nodes;
  c.drop_pct = drop_pct;
  c.wave_size = wave_size;
  c.lemons = lemons;
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = drop_pct;
  cfg.chaos_seed = kChaosSeed;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.proto.auth = true;  // control and health frames ride keyed tags
  cfg.rollout.enabled = true;
  cfg.rollout.wave_size = wave_size;
  cfg.rollout.failure_budget = 1;
  if (kind != net::TopologyKind::Star) {
    cfg.topo.kind = kind;
    cfg.proto.node_give_up_probes = 0;
    cfg.max_cycles = 64'000'000'000ULL;
  }
  // Seeded lemons: the first trips the supervision gate mid-probation, the
  // second crash-loops. With budget 1, one is absorbed (rolled back alone),
  // two halt the rollout and roll the whole fleet back.
  const uint16_t lemon_a = kind == net::TopologyKind::Star ? 3 : 6;
  const uint16_t lemon_b = kind == net::TopologyKind::Star ? 6 : 11;
  net::NetSim sim(cfg, new_blob);
  sim.set_initial_image(old_blob, 0);
  if (lemons >= 1) {
    net::TrialBehavior b;
    b.kind = net::TrialBehavior::Kind::Runaway;
    b.at_pct = 40;
    b.quarantines = 1;
    sim.set_trial_behavior(lemon_a, b);
  }
  if (lemons >= 2) {
    net::TrialBehavior b;
    b.kind = net::TrialBehavior::Kind::CrashBoot;
    b.at_pct = 60;
    b.down_bytes = 512;
    sim.set_trial_behavior(lemon_b, b);
  }
  c.res = sim.rollout();

  // Intrinsic gates, evaluated per cell while the fleet state is live.
  auto fail = [&](const std::string& why) { c.failures.push_back(why); };
  if (!c.res.dissem.all_acked) {
    fail("dissemination did not converge");
    return c;
  }
  auto active_is = [&](size_t id, const std::vector<uint8_t>& blob) {
    const emu::ImageStore& st = sim.node_store(static_cast<uint16_t>(id));
    const emu::ImageSlot& slot = st.slots[st.active_slot];
    return slot.state == emu::SlotState::Confirmed && slot.image == blob;
  };
  for (size_t id = 1; id <= nodes; ++id)
    if (c.res.nodes[id].trial_left_active)
      fail("node " + std::to_string(id) + " left a trial active");
  if (c.res.health_rejected > 0)
    fail("honest health reports rejected at the MAC gate");
  if (lemons == 0) {
    if (!c.res.complete || c.res.confirmed != nodes)
      fail("lemon-free cell did not promote the whole fleet");
    for (size_t id = 1; id <= nodes; ++id)
      if (!active_is(id, new_blob))
        fail("node " + std::to_string(id) + " not on the new image");
  } else if (lemons == 1) {
    if (c.res.halted) fail("one lemon must fit the failure budget");
    if (!active_is(lemon_a, old_blob))
      fail("lemon node not rolled back to the old image");
    for (size_t id = 1; id <= nodes; ++id)
      if (id != lemon_a && !active_is(id, new_blob))
        fail("node " + std::to_string(id) + " not on the new image");
  } else {
    if (!c.res.halted) fail("two lemons must exceed the failure budget");
    for (size_t id = 1; id <= nodes; ++id)
      if (!active_is(id, old_blob))
        fail("node " + std::to_string(id) +
             " not byte-exact on the old image after the halt");
  }
  return c;
}

int run_rollout_matrix(unsigned jobs) {
  const auto new_blob = fig7_image_blob();
  const auto old_blob = old_image_blob();
  struct RollSpec {
    net::TopologyKind kind;
    size_t nodes;
    uint32_t drop;
    uint32_t wave;
    uint32_t lemons;
  };
  std::vector<RollSpec> specs;
  for (uint32_t wave : {2u, 4u})
    for (uint32_t drop : {0u, 10u})
      for (uint32_t lemons : {0u, 1u, 2u})
        specs.push_back({net::TopologyKind::Star, 8, drop, wave, lemons});
  for (uint32_t drop : {0u, 10u})
    for (uint32_t lemons : {0u, 2u})
      specs.push_back({net::TopologyKind::Grid, 16, drop, 4, lemons});

  const auto cells = host::sweep_collect<RolloutCell>(
      specs.size(), host::effective_jobs(jobs, specs.size()),
      [&](std::size_t i) {
        const RollSpec& s = specs[i];
        return run_rollout_cell(new_blob, old_blob, s.kind, s.nodes, s.drop,
                                s.wave, s.lemons);
      });

  std::cout << "Health-gated staged rollout (old " << old_blob.size()
            << " B -> new " << new_blob.size()
            << " B, MAC on, failure budget 1)\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "WaveSz", "Lemons", "Time(s)",
                "Waves", "Conf", "RolledBk", "Gaveup", "Halted", "Gates"},
               10);
  bool ok = true;
  for (const RolloutCell& c : cells) {
    t.row({topo_name(c.kind), sim::Table::num(uint64_t(c.nodes)),
           sim::Table::num(uint64_t(c.drop_pct)),
           sim::Table::num(uint64_t(c.wave_size)),
           sim::Table::num(uint64_t(c.lemons)),
           sim::Table::num(c.radio_seconds(), 2),
           sim::Table::num(uint64_t(c.res.waves)),
           sim::Table::num(uint64_t(c.res.confirmed)),
           sim::Table::num(uint64_t(c.res.rolled_back)),
           sim::Table::num(uint64_t(c.res.gave_up)),
           c.res.halted ? "yes" : "no", c.failures.empty() ? "ok" : "FAIL"});
    for (const std::string& f : c.failures) {
      std::cerr << "fig_dissemination: rollout cell " << topo_name(c.kind)
                << " nodes=" << c.nodes << " drop=" << c.drop_pct
                << "% wave=" << c.wave_size << " lemons=" << c.lemons << ": "
                << f << "\n";
      ok = false;
    }
  }
  t.print();
  std::cout
      << "\nExpected shape: lemon-free cells promote every wave and end\n"
         "complete; one lemon is absorbed by the budget (that node alone\n"
         "rolls back to slot A while the rest confirm); two lemons exceed\n"
         "the budget, halt the rollout and roll every upgraded node back —\n"
         "the fleet ends byte-exact on the old image, never on a wedged\n"
         "half-trial.\n";
  if (!ok) {
    std::cerr << "fig_dissemination: FAIL — rollout gates violated\n";
    return 1;
  }
  std::cout << "rollout gates: OK\n";
  return 0;
}

uint64_t total_cycles(const std::vector<Cell>& cells) {
  uint64_t t = 0;
  for (const auto& c : cells) t += c.res.cycles;
  return t;
}

// Mesh gate surface: the flatness pair (grid 8 and grid 64 at 10% loss).
const Cell* find_cell(const std::vector<Cell>& cells, net::TopologyKind k,
                      size_t nodes, uint32_t drop) {
  for (const Cell& c : cells)
    if (c.kind == k && c.nodes == nodes && c.drop_pct == drop) return &c;
  return nullptr;
}

double flatness_ratio(const std::vector<Cell>& mesh) {
  const Cell* small = find_cell(mesh, net::TopologyKind::Grid, 8, 10);
  const Cell* big = find_cell(mesh, net::TopologyKind::Grid, 64, 10);
  if (!small || !big) return 0.0;
  return double(big->cycles_per_node()) / double(small->cycles_per_node());
}

void emit_json(std::ostream& os, bool smoke, size_t image_bytes,
               const std::vector<Cell>& cells,
               const std::vector<Cell>& mesh) {
  os << "{\n";
  os << "  \"schema\": \"sensmart.bench.dissemination/1\",\n";
  os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  os << "  \"chaos_seed\": " << kChaosSeed << ",\n";
  os << "  \"image_bytes\": " << image_bytes << ",\n";
  os << "  \"cells\": [\n";
  std::vector<const Cell*> all;
  for (const Cell& c : cells) all.push_back(&c);
  for (const Cell& c : mesh) all.push_back(&c);
  for (size_t i = 0; i < all.size(); ++i) {
    const Cell& c = *all[i];
    os << "    {\"topology\": \"" << c.topo << "\", \"nodes\": " << c.nodes
       << ", \"drop_pct\": " << c.drop_pct
       << ", \"cycles\": " << c.res.cycles
       << ", \"cycles_per_node\": " << c.cycles_per_node()
       << ", \"bytes_on_air\": " << c.res.medium.bytes_on_air
       << ", \"rx_bytes\": " << c.rx_bytes_total()
       << ", \"nacks\": " << c.nacks_total()
       << ", \"retransmissions\": " << c.res.base.retransmissions
       << ", \"chunks_served\": " << c.chunks_served()
       << ", \"collisions\": " << c.res.medium.collisions
       << ", \"trace_digest\": " << c.res.trace_digest << "}"
       << (i + 1 < all.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // The deterministic regression surface (--gate compares this):
  // total_cycles sums the star matrix, mesh_gate_cycles the grid 8/64
  // flatness pair at 10% loss.
  uint64_t mesh_gate = 0;
  if (const Cell* c = find_cell(mesh, net::TopologyKind::Grid, 8, 10))
    mesh_gate += c->res.cycles;
  if (const Cell* c = find_cell(mesh, net::TopologyKind::Grid, 64, 10))
    mesh_gate += c->res.cycles;
  os << "  \"guest\": {\n";
  os << "    \"total_cycles\": " << total_cycles(cells) << ",\n";
  os << "    \"mesh_gate_cycles\": " << mesh_gate << ",\n";
  os << "    \"mesh_flatness_64v8\": "
     << sim::Table::num(flatness_ratio(mesh), 3) << "\n";
  os << "  }\n";
  os << "}\n";
}

uint64_t committed_u64(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) return 0;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  size_t at = text.find("\"guest\"");
  if (at == std::string::npos) return 0;
  const std::string key = "\"" + name + "\": ";
  at = text.find(key, at);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

bool check_drift(const char* what, uint64_t current, uint64_t committed) {
  constexpr double kTolerance = 0.02;
  const double drift = double(current) / double(committed) - 1.0;
  std::cout << "dissemination gate [" << what << "]: current " << current
            << " vs committed " << committed << " ("
            << sim::Table::num(100.0 * drift, 2)
            << "% drift, tolerance ±2%)\n";
  return drift <= kTolerance && drift >= -kTolerance;
}

// CI regression gate: recompute the star matrix and the mesh flatness
// pair (both deterministic) and fail on more than 2% drift in summed
// completion cycles against the committed BENCH_dissemination.json, or on
// a mesh per-node cost ratio cpn(grid 64) / cpn(grid 8) above 2x at 10%
// loss — the property the peer-serving protocol exists to deliver.
int run_gate(const std::string& path, unsigned jobs) {
  constexpr double kFlatnessBound = 2.0;
  const uint64_t committed = committed_u64(path, "total_cycles");
  const uint64_t committed_mesh = committed_u64(path, "mesh_gate_cycles");
  if (committed == 0 || committed_mesh == 0) {
    std::cerr << "fig_dissemination: no committed total_cycles / "
                 "mesh_gate_cycles in " << path << "\n";
    return 2;
  }
  const auto blob = fig7_image_blob();
  const auto cells = run_matrix(blob, {2, 4, 8, 16}, {0, 10, 25}, jobs);
  const std::vector<CellSpec> pair = {{net::TopologyKind::Grid, 8, 10},
                                      {net::TopologyKind::Grid, 64, 10}};
  const auto mesh = run_cells(blob, pair, jobs);
  bool ok = check_drift("star", total_cycles(cells), committed);
  ok &= check_drift("mesh", total_cycles(mesh), committed_mesh);
  const double flat = flatness_ratio(mesh);
  std::cout << "dissemination gate [flatness]: cpn(grid64@10) / "
               "cpn(grid8@10) = " << sim::Table::num(flat, 3)
            << " (bound " << sim::Table::num(kFlatnessBound, 1) << ")\n";
  if (flat <= 0.0 || flat > kFlatnessBound) ok = false;
  if (!ok) {
    std::cerr << "fig_dissemination: FAIL — dissemination cost drifted "
                 "beyond 2% or mesh per-node cost lost its flatness; if "
                 "the protocol change is intentional, refresh "
                 "BENCH_dissemination.json and the golden trace digests in "
                 "the same commit\n";
    return 1;
  }
  std::cout << "dissemination gate: OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool recovery = false;
  bool adversarial = false;
  bool rollout = false;
  bool gate = false;
  unsigned jobs = 1;
  std::string json_path = "BENCH_dissemination.json";
  std::string gate_path = "BENCH_dissemination.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--recovery") == 0) {
      recovery = true;
    } else if (std::strcmp(argv[i], "--adversarial") == 0) {
      adversarial = true;
    } else if (std::strcmp(argv[i], "--rollout") == 0) {
      rollout = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      // The path operand is optional (defaults to the committed JSON), so
      // `--rollout --gate` works without one: only consume the next arg if
      // it exists and is not itself a flag.
      gate = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') gate_path = argv[++i];
    } else {
      std::cerr << "usage: fig_dissemination [--smoke] [--recovery] "
                   "[--adversarial] [--rollout] [--jobs N] [--json PATH] "
                   "[--gate [BENCH.json]]\n";
      return 2;
    }
  }
  if (rollout) return run_rollout_matrix(jobs);  // gates are intrinsic
  if (gate) return run_gate(gate_path, jobs);
  if (recovery) return run_recovery(fig7_image_blob(), jobs);
  if (adversarial) return run_adversarial(fig7_image_blob(), jobs);

  const auto blob = fig7_image_blob();
  const std::vector<size_t> node_counts =
      smoke ? std::vector<size_t>{2, 4} : std::vector<size_t>{2, 4, 8, 16};
  const std::vector<uint32_t> drops =
      smoke ? std::vector<uint32_t>{0, 10} : std::vector<uint32_t>{0, 10, 25};
  const auto cells = run_matrix(blob, node_counts, drops, jobs);
  const auto mesh = run_cells(blob, mesh_specs(smoke), jobs);

  std::cout << "Over-the-air dissemination of the naturalized fig7 image ("
            << blob.size() << " bytes, " << cells[0].res.total_chunks
            << " chunks)\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "Time(s)", "Mcyc/node", "AirBytes",
                "RxBytes/node", "Nacks", "Retx", "Served", "Coll"},
               13);
  auto emit_row = [&](const Cell& c) {
    t.row({c.topo, sim::Table::num(uint64_t(c.nodes)),
           sim::Table::num(uint64_t(c.drop_pct)),
           sim::Table::num(c.radio_seconds(), 2),
           sim::Table::num(double(c.cycles_per_node()) / 1e6, 2),
           sim::Table::num(c.res.medium.bytes_on_air),
           sim::Table::num(uint64_t(c.rx_bytes_total() / c.nodes)),
           sim::Table::num(c.nacks_total()),
           sim::Table::num(c.res.base.retransmissions),
           sim::Table::num(c.chunks_served()),
           sim::Table::num(c.res.medium.collisions)});
  };
  for (const Cell& c : cells) emit_row(c);
  for (const Cell& c : mesh) emit_row(c);
  t.print();
  std::cout
      << "\nExpected shape: loss multiplies repair traffic (Nacks and\n"
         "retransmissions) and stretches completion time; node count\n"
         "raises total received bytes linearly (broadcast medium) while\n"
         "per-node cost stays near-flat until Nack collisions at the base\n"
         "add serialization delay. On mesh topologies peers answer repair\n"
         "Nacks with chunks they already hold (Served), so cycles per node\n"
         "stays near-flat as the grid grows: "
      << sim::Table::num(flatness_ratio(mesh), 2)
      << "x from 8 to 64 nodes at 10% loss.\n";

  std::ofstream js(json_path);
  if (!js) {
    std::cerr << "fig_dissemination: cannot write " << json_path << "\n";
    return 1;
  }
  emit_json(js, smoke, blob.size(), cells, mesh);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
