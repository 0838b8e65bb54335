// Fleet-scaling benchmark for the deterministic network engine (DESIGN.md
// §9): for each (topology, nodes, drop%) cell, disseminate the naturalized
// fig7 image to the whole fleet once and report wall-clock seconds,
// emulated cycles and the trace digest.
//
// A memory section quantifies fleet-wide image dedup: the per-node heap
// bytes spent on flash + decode-cache images with lazy allocation and one
// shared naturalized image adopted fleet-wide, against the historical
// eager per-machine allocation. Peak process RSS (VmHWM) rides along.
//
// Wall seconds depend on the host (recorded as host_threads); cycles and
// digests do not, so --gate compares only the deterministic surface
// against the committed BENCH_fleet.json (2% summed-cycle tolerance, exact
// per-cell digest match) over a reduced matrix that stays CI-cheap.
//
//   fig_fleet [--smoke] [--json PATH] [--gate BENCH.json]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/treesearch.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "sim/harness.hpp"

using namespace sensmart;

namespace {

constexpr uint64_t kChaosSeed = 0xF1EE7;

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

// Peak resident set (VmHWM) in KiB; 0 when unavailable (non-Linux).
uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

struct Scenario {
  net::TopologyKind kind;
  size_t nodes;
  uint32_t drop;
};

struct FleetCell {
  const char* topo = "star";
  net::TopologyKind kind = net::TopologyKind::Star;
  size_t nodes = 0;
  uint32_t drop_pct = 0;
  double wall_s = 0.0;
  uint64_t cycles = 0;
  uint64_t trace_digest = 0;
};

const char* topo_name(net::TopologyKind k) {
  switch (k) {
    case net::TopologyKind::Star: return "star";
    case net::TopologyKind::Line: return "line";
    case net::TopologyKind::Grid: return "grid";
    case net::TopologyKind::Random: return "random";
  }
  return "?";
}

// One dissemination run, timed end to end (fleet construction included —
// allocating 257 machines is part of what the lazy-image change pays for).
FleetCell run_cell(const std::vector<uint8_t>& blob, const Scenario& sc) {
  FleetCell c;
  c.kind = sc.kind;
  c.topo = topo_name(sc.kind);
  c.nodes = sc.nodes;
  c.drop_pct = sc.drop;
  net::NetConfig cfg;
  cfg.nodes = sc.nodes;
  cfg.link.drop_pct = sc.drop;
  cfg.chaos_seed = kChaosSeed;
  cfg.max_cycles = 64'000'000'000ULL;
  cfg.topo.kind = sc.kind;
  // At fleet scale, ack/probe collisions on the shared channel can push a
  // straggler past the default abandon bound even though it verified; the
  // bench requires full convergence, so the base never gives up.
  cfg.proto.node_give_up_probes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  net::NetSim sim(cfg, blob);
  const net::DisseminationResult res = sim.disseminate();
  c.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  c.cycles = res.cycles;
  c.trace_digest = res.trace_digest;
  if (!res.all_acked) {
    std::cerr << "fig_fleet: topo=" << c.topo << " nodes=" << c.nodes
              << " drop=" << c.drop_pct << "% did not converge ("
              << res.complete_nodes() << "/" << c.nodes << " complete)\n";
    std::exit(1);
  }
  return c;
}

// --- Fleet image dedup accounting -------------------------------------------
// After a converged dissemination, install the verified image fleet-wide
// the way sim::run_network does: one shared pre-decoded image adopted by
// every node. Report per-node image heap against the historical eager
// per-machine allocation (a private flash array + full decode cache each).
struct MemoryReport {
  size_t nodes = 0;
  size_t eager_per_node = 0;
  size_t shared_bytes = 0;     // the one fleet image
  size_t private_total = 0;    // residual per-node private image bytes
  double per_node = 0.0;
  double reduction_pct = 0.0;
};

MemoryReport measure_dedup(const std::vector<uint8_t>& blob, size_t nodes) {
  MemoryReport m;
  m.nodes = nodes;
  m.eager_per_node =
      emu::Machine::kFlashWords * sizeof(uint16_t) +
      emu::Machine::kFlashWords * sizeof(emu::Machine::DecodedInsn);

  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.chaos_seed = kChaosSeed;
  cfg.max_cycles = 64'000'000'000ULL;
  cfg.proto.node_give_up_probes = 0;
  net::NetSim sim(cfg, blob);
  const net::DisseminationResult res = sim.disseminate();
  if (!res.all_acked) {
    std::cerr << "fig_fleet: dedup scenario did not converge\n";
    std::exit(1);
  }
  const auto sys = net::deserialize_system(blob);
  if (!sys) {
    std::cerr << "fig_fleet: image blob failed to deserialize\n";
    std::exit(1);
  }
  const auto img = emu::Machine::build_shared_image(sys->flash);
  m.shared_bytes = img->bytes();
  for (size_t id = 1; id <= nodes; ++id) {
    sim.node_machine(id).adopt_image(img);
    m.private_total += sim.node_machine(id).private_image_bytes();
  }
  m.per_node = double(m.private_total + m.shared_bytes) / double(nodes);
  m.reduction_pct = 100.0 * (1.0 - m.per_node / double(m.eager_per_node));
  return m;
}

uint64_t sum_cycles(const std::vector<FleetCell>& cells) {
  uint64_t t = 0;
  for (const auto& c : cells) t += c.cycles;
  return t;
}

// The gate matrix: CI-cheap scenarios only. gate_cycles in the JSON is
// summed over exactly these cells whether the bench ran --smoke or full,
// so --gate (which recomputes only them) always compares like for like.
const std::vector<size_t> kGateNodes = {4, 16};
const std::vector<uint32_t> kGateDrops = {0, 10};

bool is_gate_cell(const FleetCell& c) {
  bool n_ok = false, d_ok = false;
  for (size_t n : kGateNodes) n_ok |= (c.nodes == n);
  for (uint32_t d : kGateDrops) d_ok |= (c.drop_pct == d);
  return n_ok && d_ok;
}

uint64_t gate_cycles(const std::vector<FleetCell>& cells) {
  uint64_t t = 0;
  for (const auto& c : cells)
    if (is_gate_cell(c) && c.kind == net::TopologyKind::Star)
      t += c.cycles;
  return t;
}

// The mesh gate scenario: one mid-size grid, always present so --gate can
// compare like for like against the committed JSON.
constexpr size_t kMeshGateNodes = 16;
constexpr uint32_t kMeshGateDrop = 10;

uint64_t mesh_gate_cycles(const std::vector<FleetCell>& cells) {
  uint64_t t = 0;
  for (const auto& c : cells)
    if (c.kind == net::TopologyKind::Grid &&
        c.nodes == kMeshGateNodes && c.drop_pct == kMeshGateDrop)
      t += c.cycles;
  return t;
}

void emit_json(std::ostream& os, bool smoke, size_t image_bytes,
               const std::vector<FleetCell>& cells, const MemoryReport& mem) {
  os << "{\n";
  os << "  \"schema\": \"sensmart.bench.fleet/2\",\n";
  os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  os << "  \"chaos_seed\": " << kChaosSeed << ",\n";
  os << "  \"image_bytes\": " << image_bytes << ",\n";
  os << "  \"host_threads\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"peak_rss_kb\": " << peak_rss_kb() << ",\n";
  os << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const FleetCell& c = cells[i];
    os << "    {\"topology\": \"" << c.topo << "\", \"nodes\": " << c.nodes
       << ", \"drop_pct\": " << c.drop_pct << ", \"wall_s\": "
       << sim::Table::num(c.wall_s, 3) << ", \"cycles\": " << c.cycles
       << ", \"trace_digest\": " << c.trace_digest << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"memory\": {\n";
  os << "    \"nodes\": " << mem.nodes << ",\n";
  os << "    \"eager_per_node_bytes\": " << mem.eager_per_node << ",\n";
  os << "    \"shared_image_bytes\": " << mem.shared_bytes << ",\n";
  os << "    \"private_image_bytes_total\": " << mem.private_total << ",\n";
  os << "    \"per_node_bytes\": " << sim::Table::num(mem.per_node, 1)
     << ",\n";
  os << "    \"reduction_pct\": " << sim::Table::num(mem.reduction_pct, 2)
     << "\n";
  os << "  },\n";
  // The deterministic regression surface (--gate compares this): summed
  // cycles over the gate matrix.
  os << "  \"guest\": {\n";
  os << "    \"gate_cycles\": " << gate_cycles(cells) << ",\n";
  os << "    \"mesh_gate_cycles\": " << mesh_gate_cycles(cells) << ",\n";
  os << "    \"total_cycles\": " << sum_cycles(cells) << "\n";
  os << "  }\n";
  os << "}\n";
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A number in the committed JSON: the first `"key": ` at or after `from`
// (0 when absent).
uint64_t committed_u64(const std::string& text, size_t from,
                       const std::string& key) {
  if (from == std::string::npos) return 0;
  const std::string k = "\"" + key + "\": ";
  const size_t at = text.find(k, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + k.size(), nullptr, 10);
}

// The committed trace digest of the cell with c's (topology, nodes, drop).
uint64_t committed_digest(const std::string& text, const FleetCell& c) {
  std::ostringstream key;
  key << "{\"topology\": \"" << c.topo << "\", \"nodes\": " << c.nodes
      << ", \"drop_pct\": " << c.drop_pct << ",";
  return committed_u64(text, text.find(key.str()), "trace_digest");
}

bool check_drift(const char* what, uint64_t current, uint64_t committed) {
  constexpr double kTolerance = 0.02;
  const double drift = double(current) / double(committed) - 1.0;
  std::cout << "fleet gate [" << what << "]: current " << current
            << " vs committed " << committed << " ("
            << sim::Table::num(100.0 * drift, 2)
            << "% drift, tolerance ±2%)\n";
  return drift <= kTolerance && drift >= -kTolerance;
}

// The gate scenarios (star and mesh): always run, they define
// gate_cycles / mesh_gate_cycles.
std::vector<Scenario> gate_scenarios() {
  std::vector<Scenario> v;
  for (size_t n : kGateNodes)
    for (uint32_t d : kGateDrops) v.push_back({net::TopologyKind::Star, n, d});
  v.push_back({net::TopologyKind::Grid, kMeshGateNodes, kMeshGateDrop});
  return v;
}

std::vector<FleetCell> run_cells(const std::vector<uint8_t>& blob,
                                 const std::vector<Scenario>& scenarios) {
  std::vector<FleetCell> cells;
  for (const Scenario& sc : scenarios) cells.push_back(run_cell(blob, sc));
  return cells;
}

// CI regression gate: recompute the gate matrix (star and mesh); fail on
// any cell whose trace digest differs from the committed BENCH_fleet.json
// or on >2% summed-cycle drift against it.
int run_gate(const std::string& path) {
  const std::string text = read_text(path);
  const size_t guest = text.find("\"guest\"");
  const uint64_t committed = committed_u64(text, guest, "gate_cycles");
  const uint64_t committed_mesh =
      committed_u64(text, guest, "mesh_gate_cycles");
  if (committed == 0 || committed_mesh == 0) {
    std::cerr << "fig_fleet: no committed gate_cycles / mesh_gate_cycles in "
              << path << "\n";
    return 2;
  }
  const auto cells = run_cells(fig7_image_blob(), gate_scenarios());
  bool ok = true;
  for (const FleetCell& c : cells) {
    const uint64_t want = committed_digest(text, c);
    if (c.trace_digest == want) continue;
    std::cerr << "fig_fleet: digest mismatch at topo=" << c.topo
              << " nodes=" << c.nodes << " drop=" << c.drop_pct
              << "%: 0x" << std::hex << c.trace_digest << " vs committed 0x"
              << want << std::dec << "\n";
    ok = false;
  }
  ok &= check_drift("star", gate_cycles(cells), committed);
  ok &= check_drift("mesh", mesh_gate_cycles(cells), committed_mesh);
  if (!ok) {
    std::cerr << "fig_fleet: FAIL — fleet dissemination drifted from the "
                 "committed digests or by more than 2% in cycles; if the "
                 "engine change is intentional, refresh BENCH_fleet.json in "
                 "the same commit\n";
    return 1;
  }
  std::cout << "fleet gate: OK (every gate-cell digest matches, star and "
               "mesh)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_fleet.json";
  std::string gate_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      gate_path = argv[++i];
    } else {
      std::cerr << "usage: fig_fleet [--smoke] [--json PATH] "
                   "[--gate BENCH.json]\n";
      return 2;
    }
  }
  if (!gate_path.empty()) return run_gate(gate_path);

  const auto blob = fig7_image_blob();
  // The full run adds the fleet-scale scenarios plus a large mesh grid.
  std::vector<Scenario> scenarios = gate_scenarios();
  if (!smoke) {
    scenarios.push_back({net::TopologyKind::Star, 64, 10});
    scenarios.push_back({net::TopologyKind::Star, 256, 10});
    scenarios.push_back({net::TopologyKind::Grid, 64, 10});
  }
  const std::vector<FleetCell> cells = run_cells(blob, scenarios);
  const MemoryReport mem =
      measure_dedup(blob, smoke ? size_t(16) : size_t(256));

  std::cout << "Fleet dissemination (" << blob.size()
            << "-byte image, seed 0x" << std::hex << kChaosSeed << std::dec
            << ", host_threads=" << std::thread::hardware_concurrency()
            << ")\n\n";
  sim::Table t({"Topo", "Nodes", "Drop%", "Wall(s)", "Gcycles", "Digest"}, 11);
  for (const FleetCell& c : cells) {
    std::ostringstream dg;
    dg << std::hex << (c.trace_digest >> 48);
    t.row({c.topo, sim::Table::num(uint64_t(c.nodes)),
           sim::Table::num(uint64_t(c.drop_pct)),
           sim::Table::num(c.wall_s, 2),
           sim::Table::num(double(c.cycles) / 1e9, 2), dg.str() + ".."});
  }
  t.print();
  std::cout << "\nImage dedup at " << mem.nodes << " nodes: "
            << mem.eager_per_node / 1024 << " KiB/node eager -> "
            << sim::Table::num(mem.per_node / 1024.0, 1)
            << " KiB/node shared (" << sim::Table::num(mem.reduction_pct, 1)
            << "% reduction; one " << mem.shared_bytes / 1024
            << " KiB image fleet-wide)\n";

  std::ofstream js(json_path);
  if (!js) {
    std::cerr << "fig_fleet: cannot write " << json_path << "\n";
    return 1;
  }
  emit_json(js, smoke, blob.size(), cells, mem);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
