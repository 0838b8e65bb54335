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
// grows.
//
// Three other modes swap the matrix; each honours only --jobs, and any
// other flag is a usage error (exit 2):
//
// --recovery: a reboot-rate x loss-rate grid. Every receiver suffers k
// seeded mid-transfer crash/reboot cycles (k = 0..2) under each loss
// rate, exercising the persistent-store resume path (DESIGN.md §8).
//
// --adversarial: the authentication overhead surface (DESIGN.md §11):
// {star 8, grid 16} at 10% loss, crossed with MAC on/off and a seeded
// hostile node on/off, plus a lossless honest MAC-off/on pair per topology.
//
// --rollout: the staged-upgrade surface (DESIGN.md §12): a fleet already
// running an old image is upgraded wave-by-wave to the fig7 image behind
// the health gate, crossed with wave size, loss and 0-2 seeded lemon
// trials against a failure budget of 1.
//
// This is a report: it prints the tables EXPERIMENTS.md cites and checks
// nothing. Every cell is a deterministic function of the chaos seed and is
// defined once, in dissemination_cells.hpp; the tests pin each one by
// exact cycles and trace digest together with the properties the matrices
// exist to show:
//   NetDeterminism.GoldenTraceDigests     default and recovery cells, all
//                                         converged byte-identically, and
//                                         grid 64 vs grid 8 cost per node
//   NetHostile.AdversarialMatrixPinned    the lossless MAC tax
//   NetHostile.AdversarialMacUnderAttackPinned
//                                         no forged install with MAC on
//   NetRollout.StagedMatrixPinned         each rollout outcome
//
//   fig_dissemination [--recovery | --adversarial | --rollout] [--jobs N]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "chaos/hostile.hpp"
#include "dissemination_cells.hpp"
#include "host/parallel.hpp"
#include "net/netsim.hpp"
#include "sim/harness.hpp"

using namespace sensmart;

namespace {

double radio_seconds(uint64_t cycles) {
  return double(cycles) / double(emu::kClockHz);
}

using Stats = net::NodeDissemStats;

template <class T>
uint64_t sum_nodes(const net::DisseminationResult& res, T Stats::*field) {
  uint64_t v = 0;
  for (const auto& n : res.nodes) v += n.*field;
  return v;
}

// One matrix cell: the config that ran and what it produced. A
// dissemination cell fills only `run.dissem`; a rollout cell fills all of
// `run`.
struct Cell {
  net::NetConfig cfg;
  uint32_t lemons = 0;  // seeded lemon trials (rollout cells)
  net::RolloutResult run;
  uint32_t forged_installs = 0;  // honest nodes done with foreign bytes

  const net::DisseminationResult& res() const { return run.dissem; }
  const char* topo() const { return net::to_string(cfg.topo.kind); }
  bool hostile() const { return cfg.hostile_node != 0; }
  uint64_t cycles_per_node() const {
    return res().cycles / (cfg.nodes ? cfg.nodes : 1);
  }
};

// One dissemination run; a cell with a hostile node (its seeded attacker
// attached here) counts the honest nodes that completed on foreign bytes.
Cell run_cell(const std::vector<uint8_t>& blob, const net::NetConfig& cfg) {
  Cell c{cfg, 0, {}, 0};
  std::optional<chaos::HostileNode> attacker;
  if (c.hostile()) attacker.emplace(dissem::attacker_profile(cfg));
  net::NetSim sim(cfg, blob);
  if (attacker) sim.set_hostile_model(&*attacker);
  c.run.dissem = sim.disseminate();
  for (size_t id = 1; id <= cfg.nodes; ++id)
    if (id != cfg.hostile_node && sim.node_blob(id) != blob &&
        sim.node_complete(id))
      ++c.forged_installs;
  return c;
}

// Each cell is an independent deterministic simulation; a matrix is
// identical for any --jobs value.
template <class Fn>
std::vector<Cell> run_cells(size_t n, unsigned jobs, Fn&& fn) {
  return host::sweep_collect<Cell>(n, host::effective_jobs(jobs, n), fn);
}

std::vector<Cell> run_cells(const std::vector<uint8_t>& blob,
                            const std::vector<net::NetConfig>& cfgs,
                            unsigned jobs) {
  return run_cells(cfgs.size(), jobs,
                   [&](std::size_t i) { return run_cell(blob, cfgs[i]); });
}

// Recovery matrix (--recovery): fixed 4-node network, every receiver
// crashes and reboots k times mid-transfer (seeded, store preserved),
// crossed with the loss rates.
int run_recovery(const std::vector<uint8_t>& blob, unsigned jobs) {
  const auto cells = run_cells(blob, dissem::recovery_matrix(), jobs);
  std::cout << "Dissemination under node crash/reboot faults (4 nodes, "
            << blob.size() << " bytes, " << cells[0].res().total_chunks
            << " chunks; every node reboots k times mid-transfer)\n\n";
  sim::Table t({"Reboots/node", "Drop%", "Time(s)", "Crashes", "Resumed",
                "Retx", "StoreWrites", "Converged"},
               13);
  for (const Cell& c : cells) {
    const net::DisseminationResult& r = c.res();
    t.row({sim::Table::num(uint64_t(c.cfg.node_faults.max_crashes_per_node)),
           sim::Table::num(uint64_t(c.cfg.link.drop_pct)),
           sim::Table::num(radio_seconds(r.cycles), 2),
           sim::Table::num(sum_nodes(r, &Stats::crashes)),
           sim::Table::num(sum_nodes(r, &Stats::resumed_chunks)),
           sim::Table::num(r.base.retransmissions),
           sim::Table::num(sum_nodes(r, &Stats::store_writes)),
           r.all_acked ? "yes" : "NO"});
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

int run_adversarial(const std::vector<uint8_t>& blob, unsigned jobs) {
  const auto cells = run_cells(blob, dissem::adversarial_matrix(), jobs);

  std::cout << "Authentication overhead and hostile-node cost ("
            << blob.size() << " bytes, " << cells[0].res().total_chunks
            << " chunks; attacker intensity 35%)\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "MAC", "Hostile", "Time(s)", "Mcyc",
                "AirBytes", "Done", "Gaveup", "Forged", "MacRej", "AckRej",
                "Squelch"},
               11);
  for (const Cell& c : cells) {
    const net::DisseminationResult& r = c.res();
    t.row({c.topo(), sim::Table::num(uint64_t(c.cfg.nodes)),
           sim::Table::num(uint64_t(c.cfg.link.drop_pct)),
           c.cfg.proto.auth ? "on" : "off", c.hostile() ? "on" : "off",
           sim::Table::num(radio_seconds(r.cycles), 2),
           sim::Table::num(double(r.cycles) / 1e6, 1),
           sim::Table::num(r.medium.bytes_on_air),
           sim::Table::num(uint64_t(r.complete_count)),
           sim::Table::num(uint64_t(r.abandoned_count)),
           sim::Table::num(uint64_t(c.forged_installs)),
           sim::Table::num(sum_nodes(r, &Stats::auth_rejects)),
           sim::Table::num(r.base.acks_rejected),
           sim::Table::num(r.base.frames_squelched)});
  }
  t.print();
  return 0;
}

// --- Staged-rollout surface (DESIGN.md §12) ---------------------------------
// The fleet starts on an old image (slot A, Confirmed) and is upgraded
// wave-by-wave to the fig7 image under authentication, crossed with wave
// size, loss rate and seeded lemon count against a failure budget of 1.

int run_rollout_matrix(unsigned jobs) {
  const auto new_blob = dissem::fig7_image_blob();
  const auto old_blob = dissem::old_image_blob();
  const auto specs = dissem::rollout_matrix();
  const auto cells = run_cells(specs.size(), jobs, [&](std::size_t i) {
    const dissem::RolloutSpec& s = specs[i];
    Cell c{s.cfg, uint32_t(s.lemons.size()), {}, 0};
    net::NetSim sim(s.cfg, new_blob);
    dissem::prepare_rollout(sim, s, old_blob);
    c.run = sim.rollout();
    return c;
  });

  std::cout << "Health-gated staged rollout (old " << old_blob.size()
            << " B -> new " << new_blob.size()
            << " B, MAC on, failure budget 1)\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "WaveSz", "Lemons", "Time(s)",
                "Waves", "Conf", "RolledBk", "Gaveup", "Halted"},
               10);
  for (const Cell& c : cells) {
    t.row({c.topo(), sim::Table::num(uint64_t(c.cfg.nodes)),
           sim::Table::num(uint64_t(c.cfg.link.drop_pct)),
           sim::Table::num(uint64_t(c.cfg.rollout.wave_size)),
           sim::Table::num(uint64_t(c.lemons)),
           sim::Table::num(radio_seconds(c.run.cycles), 2),
           sim::Table::num(uint64_t(c.run.waves)),
           sim::Table::num(uint64_t(c.run.confirmed)),
           sim::Table::num(uint64_t(c.run.rolled_back)),
           sim::Table::num(uint64_t(c.run.gave_up)),
           c.run.halted ? "yes" : "no"});
  }
  t.print();
  std::cout
      << "\nExpected shape: lemon-free cells promote every wave and end\n"
         "complete; one lemon is absorbed by the budget (that node alone\n"
         "rolls back to slot A while the rest confirm); two lemons exceed\n"
         "the budget, halt the rollout and roll every upgraded node back —\n"
         "the fleet ends byte-exact on the old image, never on a wedged\n"
         "half-trial.\n";
  return 0;
}

// --- Default matrix ----------------------------------------------------------

const Cell* find_grid_cell(const std::vector<Cell>& cells, size_t nodes) {
  for (const Cell& c : cells)
    if (c.cfg.topo.kind == net::TopologyKind::Grid && c.cfg.nodes == nodes &&
        c.cfg.link.drop_pct == 10)
      return &c;
  return nullptr;
}

double flatness_ratio(const std::vector<Cell>& cells) {
  const Cell* small = find_grid_cell(cells, 8);
  const Cell* big = find_grid_cell(cells, 64);
  if (!small || !big) return 0.0;
  return double(big->cycles_per_node()) / double(small->cycles_per_node());
}

int run_matrix(const std::vector<uint8_t>& blob, unsigned jobs) {
  const auto cells = run_cells(blob, dissem::default_matrix(), jobs);

  std::cout << "Over-the-air dissemination of the naturalized fig7 image ("
            << blob.size() << " bytes, " << cells[0].res().total_chunks
            << " chunks)\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "Time(s)", "Mcyc/node", "AirBytes",
                "RxBytes/node", "Nacks", "Retx", "Served", "Coll"},
               13);
  for (const Cell& c : cells) {
    const net::DisseminationResult& r = c.res();
    t.row({c.topo(), sim::Table::num(uint64_t(c.cfg.nodes)),
           sim::Table::num(uint64_t(c.cfg.link.drop_pct)),
           sim::Table::num(radio_seconds(r.cycles), 2),
           sim::Table::num(double(c.cycles_per_node()) / 1e6, 2),
           sim::Table::num(r.medium.bytes_on_air),
           sim::Table::num(sum_nodes(r, &Stats::bytes_rx) / c.cfg.nodes),
           sim::Table::num(sum_nodes(r, &Stats::nacks_sent)),
           sim::Table::num(r.base.retransmissions),
           sim::Table::num(sum_nodes(r, &Stats::chunks_served)),
           sim::Table::num(r.medium.collisions)});
  }
  t.print();
  std::cout
      << "\nExpected shape: loss multiplies repair traffic (Nacks and\n"
         "retransmissions) and stretches completion time; node count\n"
         "raises total received bytes linearly (broadcast medium) while\n"
         "per-node cost stays near-flat until Nack collisions at the base\n"
         "add serialization delay. On mesh topologies peers answer repair\n"
         "Nacks with chunks they already hold (Served), so cycles per node\n"
         "stays near-flat as the grid grows: "
      << sim::Table::num(flatness_ratio(cells), 2)
      << "x from 8 to 64 nodes at 10% loss.\n";
  return 0;
}

int usage() {
  std::cerr << "usage: fig_dissemination [--recovery | --adversarial | "
               "--rollout] [--jobs N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;  // "", "--recovery", "--adversarial" or "--rollout"
  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--recovery" || arg == "--adversarial" || arg == "--rollout") {
      if (!mode.empty()) return usage();  // the modes are exclusive
      mode = arg;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
    } else {
      return usage();
    }
  }
  if (mode == "--rollout") return run_rollout_matrix(jobs);
  const auto blob = dissem::fig7_image_blob();
  if (mode == "--recovery") return run_recovery(blob, jobs);
  if (mode == "--adversarial") return run_adversarial(blob, jobs);
  return run_matrix(blob, jobs);
}
