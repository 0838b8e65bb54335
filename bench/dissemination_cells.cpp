#include "dissemination_cells.hpp"

#include <utility>

#include "apps/treesearch.hpp"
#include "net/image_codec.hpp"
#include "rewriter/linker.hpp"

namespace sensmart::dissem {
namespace {

std::vector<uint8_t> link_blob(const std::vector<assembler::Image>& images) {
  rw::Linker linker;
  for (const auto& img : images) linker.add(img);
  return net::serialize_system(linker.link());
}

}  // namespace

std::vector<uint8_t> fig7_image_blob() {
  return link_blob(apps::fig7_mix(8, 2));
}

std::vector<uint8_t> old_image_blob() {
  apps::TreeSearchParams p;
  p.nodes_per_tree = 6;
  p.trees = 1;
  p.searches = 16;
  p.seed = 0x0101;
  return link_blob({apps::tree_search_program(p)});
}

net::NetConfig cell_config(net::TopologyKind kind, size_t nodes,
                           uint32_t drop_pct) {
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = drop_pct;
  cfg.chaos_seed = 0x5EED;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.topo.kind = kind;
  if (cfg.topo.mesh()) {
    cfg.proto.node_give_up_probes = 0;
    cfg.max_cycles = 64'000'000'000ULL;
  }
  return cfg;
}

std::vector<net::NetConfig> default_matrix() {
  using net::TopologyKind;
  std::vector<net::NetConfig> cfgs;
  for (size_t n : {2, 4, 8, 16})
    for (uint32_t d : {0u, 10u, 25u})
      cfgs.push_back(cell_config(TopologyKind::Star, n, d));
  cfgs.push_back(cell_config(TopologyKind::Line, 8, 10));
  cfgs.push_back(cell_config(TopologyKind::Random, 12, 10));
  cfgs.push_back(cell_config(TopologyKind::Grid, 8, 0));
  cfgs.push_back(cell_config(TopologyKind::Grid, 8, 10));
  cfgs.push_back(cell_config(TopologyKind::Grid, 24, 10));
  cfgs.push_back(cell_config(TopologyKind::Grid, 64, 10));
  return cfgs;
}

std::vector<net::NetConfig> recovery_matrix() {
  std::vector<net::NetConfig> cfgs;
  for (uint32_t k : {0u, 1u, 2u}) {
    for (uint32_t d : {0u, 10u, 25u}) {
      net::NetConfig cfg = cell_config(net::TopologyKind::Star, 4, d);
      cfg.node_faults.crash_pct = k > 0 ? 100 : 0;  // every node, k times
      cfg.node_faults.max_crashes_per_node = k;
      cfg.node_faults.down_min_bytes = 256;
      cfg.node_faults.down_max_bytes = 2048;
      cfgs.push_back(cfg);
    }
  }
  return cfgs;
}

std::vector<net::NetConfig> adversarial_matrix() {
  // The lossless pair is fully deterministic, so it measures the pure
  // authentication tax: at 10% loss the tag bytes shift frame timing
  // against the seeded drop rolls and the alignment luck (±5%) buries the
  // tax (~0.3%).
  auto adv = [](net::TopologyKind kind, size_t nodes, uint32_t drop_pct,
                bool auth, bool hostile) {
    net::NetConfig cfg = cell_config(kind, nodes, drop_pct);
    cfg.proto.auth = auth;
    if (hostile) {
      cfg.hostile_node = kind == net::TopologyKind::Star ? 3 : 5;
      // Attacked mesh cells need a finite abandon bound — the hostile node
      // never Acks, so without one the run could only end at the cycle
      // budget. The bound is generous enough that honest stragglers revive
      // (any frame revives an abandoned node) and finish.
      if (cfg.topo.mesh()) cfg.proto.node_give_up_probes = 96;
    }
    return cfg;
  };
  std::vector<net::NetConfig> cfgs;
  for (const auto& [kind, nodes] :
       {std::pair{net::TopologyKind::Star, size_t{8}},
        std::pair{net::TopologyKind::Grid, size_t{16}}}) {
    for (bool auth : {false, true})
      for (bool hostile : {false, true})
        cfgs.push_back(adv(kind, nodes, 10, auth, hostile));
    for (bool auth : {false, true})
      cfgs.push_back(adv(kind, nodes, 0, auth, false));
  }
  return cfgs;
}

chaos::HostileProfile attacker_profile(const net::NetConfig& cfg) {
  chaos::HostileProfile p;
  p.seed = 0xD15EA5E;
  p.node = cfg.hostile_node;
  p.nodes = static_cast<uint16_t>(cfg.nodes);
  p.chunk_payload = cfg.proto.chunk_payload;
  p.intensity_pct = 35;
  return p;
}

std::vector<RolloutSpec> rollout_matrix() {
  auto spec = [](net::TopologyKind kind, size_t nodes, uint32_t drop_pct,
                 uint32_t wave_size, uint32_t lemons) {
    RolloutSpec s{cell_config(kind, nodes, drop_pct), {}};
    s.cfg.proto.auth = true;  // control and health frames ride keyed tags
    s.cfg.rollout.enabled = true;
    s.cfg.rollout.wave_size = wave_size;
    s.cfg.rollout.failure_budget = 1;
    const bool star = kind == net::TopologyKind::Star;
    const uint16_t ids[] = {uint16_t(star ? 3 : 6), uint16_t(star ? 6 : 11)};
    s.lemons.assign(ids, ids + lemons);
    return s;
  };
  std::vector<RolloutSpec> specs;
  for (uint32_t wave : {2u, 4u})
    for (uint32_t drop : {0u, 10u})
      for (uint32_t lemons : {0u, 1u, 2u})
        specs.push_back(spec(net::TopologyKind::Star, 8, drop, wave, lemons));
  for (uint32_t drop : {0u, 10u})
    for (uint32_t lemons : {0u, 2u})
      specs.push_back(spec(net::TopologyKind::Grid, 16, drop, 4, lemons));
  return specs;
}

void prepare_rollout(net::NetSim& sim, const RolloutSpec& spec,
                     const std::vector<uint8_t>& old_blob) {
  sim.set_initial_image(old_blob, 0);
  // With budget 1 the first lemon is absorbed (rolled back alone); two
  // halt the rollout and roll the whole fleet back.
  for (size_t i = 0; i < spec.lemons.size(); ++i) {
    net::TrialBehavior b;
    if (i == 0) {  // trips the supervision gate mid-probation
      b.kind = net::TrialBehavior::Kind::Runaway;
      b.at_pct = 40;
      b.quarantines = 1;
    } else {  // crash-loops
      b.kind = net::TrialBehavior::Kind::CrashBoot;
      b.at_pct = 60;
      b.down_bytes = 512;
    }
    sim.set_trial_behavior(spec.lemons[i], b);
  }
}

std::string cell_name(const net::NetConfig& cfg) {
  std::string s = std::string(net::to_string(cfg.topo.kind)) + " " +
                  std::to_string(cfg.nodes) + " @ " +
                  std::to_string(cfg.link.drop_pct) + "%";
  if (cfg.proto.auth) s += " mac";
  if (cfg.hostile_node) s += " hostile";
  if (cfg.node_faults.crash_pct)
    s += " reboots " + std::to_string(cfg.node_faults.max_crashes_per_node);
  if (cfg.rollout.enabled)
    s += " wave " + std::to_string(cfg.rollout.wave_size);
  return s;
}

}  // namespace sensmart::dissem
