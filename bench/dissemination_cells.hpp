// The cells of fig_dissemination's four matrices, defined once: the bench
// prints them and the tests pin them (NetDeterminism.GoldenTraceDigests,
// NetHostile.AdversarialMatrixPinned and friends, NetRollout.
// StagedMatrixPinned), so a pinned row is exactly the cell the bench
// reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/hostile.hpp"
#include "net/netsim.hpp"

namespace sensmart::dissem {

// The naturalized two-search-task fig7 image every matrix disseminates.
std::vector<uint8_t> fig7_image_blob();

// The image a rollout fleet runs before the upgrade: a smaller system, so
// old and new blobs differ end to end.
std::vector<uint8_t> old_image_blob();

// The defaults every matrix shares: seed 0x5EED and an 8 Gcycle budget.
// Mesh end-games ride on relayed Acks through a contended channel; a
// straggler can outlive the star-tuned abandon bound, so on a mesh the
// base never gives up and the budget is 64 Gcycles.
net::NetConfig cell_config(net::TopologyKind kind, size_t nodes,
                           uint32_t drop_pct);

// The default matrix: star {2, 4, 8, 16} x {0, 10, 25}% loss, then line 8,
// random 12 and grid 8 at 10% loss, grid 8 lossless, and grid 24 and 64 at
// 10% loss (the grid 8/64 pair is the flatness surface).
std::vector<net::NetConfig> default_matrix();

// --recovery: a 4-node star whose every receiver crashes and reboots
// k = 0..2 times mid-transfer (seeded, store kept), x {0, 10, 25}% loss.
// The k = 0 cells are the default matrix's star 4 cells.
std::vector<net::NetConfig> recovery_matrix();

// --adversarial: {star 8, grid 16} at 10% loss x MAC off/on x hostile node
// off/on, then a lossless honest MAC-off/on pair per topology. The honest
// MAC-off star cells are the default matrix's star 8 cells.
std::vector<net::NetConfig> adversarial_matrix();

// The seeded attacker of a cell with a hostile node (intensity 35%).
chaos::HostileProfile attacker_profile(const net::NetConfig& cfg);

// One --rollout cell: MAC on, failure budget 1, and its seeded lemons.
struct RolloutSpec {
  net::NetConfig cfg;
  std::vector<uint16_t> lemons;  // node ids; the first trips the gate, the
                                 // second crash-loops
};

// Star 8: wave {2, 4} x loss {0, 10}% x {0, 1, 2} lemons; grid 16: wave 4
// x loss {0, 10}% x {0, 2} lemons.
std::vector<RolloutSpec> rollout_matrix();

// Seeds `sim` as the cell's fleet: every node on `old_blob`, lemons set.
void prepare_rollout(net::NetSim& sim, const RolloutSpec& spec,
                     const std::vector<uint8_t>& old_blob);

// The label a test pins a cell under: "grid 16 @ 10% mac hostile",
// "star 4 @ 0% reboots 2", "star 8 @ 10% mac wave 4".
std::string cell_name(const net::NetConfig& cfg);

}  // namespace sensmart::dissem
