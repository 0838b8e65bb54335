// Host-side performance of the emulation substrate (not a paper figure):
// emulated-instruction throughput ("host MIPS"), emulated-cycle throughput,
// the kernel service-trap rate, and chaos-soak wall time. Emits
// BENCH_emulator.json so the host-performance trajectory is tracked
// in-repo; see EXPERIMENTS.md §"Host performance" for the methodology and
// the JSON schema.
//
//   perf_emulator [--smoke] [--reps N] [--json PATH]
//
// Timing covers only the emulation run itself (rewrite/link/admission are
// done once, outside the timed section), and each workload reports the best
// of N repetitions to suppress scheduler noise.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/treesearch.hpp"
#include "chaos/chaos.hpp"
#include "kernel/kernel.hpp"
#include "rewriter/linker.hpp"
#include "sim/harness.hpp"

using namespace sensmart;
using Clock = std::chrono::steady_clock;

namespace {

// Pre-PR reference numbers, measured on the unoptimized seed build
// (commit 318cfe9, Release, -O3 default of this toolchain, same workloads
// and repetition policy, single-core container). The acceptance bar for the
// emulation fast path is >= 2x fig7 host MIPS against these.
struct Baseline {
  const char* commit = "318cfe9";
  double fig7_host_mips = 0.0;
  double native_host_mips = 0.0;
  double soak_wall_seconds = 0.0;
};
constexpr double kBaselineFig7HostMips = 72.67;
constexpr double kBaselineNativeHostMips = 100.19;
constexpr double kBaselineSoakWallSeconds = 0.0235;

// Guest-side reference, recorded before the fast-tier rewriter passes
// (commit b6c5f7b, default RewriteOptions of that build): what the fig7
// mix *cost in emulated cycles* when every stack op and every indirect
// access took a full-price trap. Deterministic — independent of host
// speed and reps.
constexpr uint64_t kBaselineFig7EmulatedCycles = 484'558'776ULL;
constexpr uint64_t kBaselineFig7ServiceCalls = 8'539'192ULL;

struct Measurement {
  double wall_s = 0.0;  // best-of-reps
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t service_calls = 0;
  uint64_t service_cycles = 0;  // emulated cycles charged by service handlers
  uint64_t serviced_ops = 0;    // service_calls + collapsed stack-run members

  double host_mips() const {
    return wall_s > 0 ? double(instructions) / wall_s / 1e6 : 0.0;
  }
  double cycles_per_sec() const {
    return wall_s > 0 ? double(cycles) / wall_s : 0.0;
  }
  double traps_per_sec() const {
    return wall_s > 0 ? double(service_calls) / wall_s : 0.0;
  }
  // Guest metrics (deterministic):
  double cycles_per_trap() const {
    return service_calls ? double(service_cycles) / double(service_calls)
                         : 0.0;
  }
  // Per *serviced operation*: collapsed stack runs amortize several ops
  // into one trap, so this is the cost that actually fell.
  double cycles_per_serviced_op() const {
    return serviced_ops ? double(service_cycles) / double(serviced_ops) : 0.0;
  }
  double traps_per_1k_instructions() const {
    return instructions ? 1e3 * double(service_calls) / double(instructions)
                        : 0.0;
  }
  double cpi() const {
    return instructions ? double(cycles) / double(instructions) : 0.0;
  }
};

// SenSmart system run, timed around Kernel::run() only.
Measurement measure_fig7(uint16_t nodes, int n_search, uint16_t searches,
                         int reps) {
  rw::Linker linker;
  // `searches` is scaled far above the figure's 32 so the timed section is
  // long enough for stable wall-clock measurement.
  for (const auto& img : apps::fig7_mix(nodes, n_search, searches))
    linker.add(img);
  const rw::LinkedSystem sys = linker.link();

  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    emu::Machine m;
    kern::KernelConfig cfg;
    cfg.initial_stack = 96;
    kern::Kernel k(m, sys, cfg);
    k.admit_all();
    if (!k.start()) {
      std::cerr << "perf_emulator: fig7 workload failed to start\n";
      std::exit(1);
    }
    const auto t0 = Clock::now();
    const emu::StopReason stop = k.run(2'000'000'000ULL);
    const auto t1 = Clock::now();
    if (stop != emu::StopReason::Halted) {
      std::cerr << "perf_emulator: fig7 workload did not halt ("
                << emu::to_string(stop) << ")\n";
      std::exit(1);
    }
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || s < best.wall_s) best.wall_s = s;
    best.instructions = m.stats().instructions;
    best.cycles = m.cycles();
    best.service_calls = k.stats().service_calls;
    best.service_cycles = k.stats().service_cycles;
    best.serviced_ops = k.stats().service_calls + k.stats().stack_run_members;
  }
  return best;
}

// Bare-machine run (no kernel, no rewriting): the raw CPU-loop ceiling.
Measurement measure_native(uint16_t nodes, uint16_t searches, int reps) {
  apps::TreeSearchParams p;
  p.nodes_per_tree = nodes;
  p.trees = 2;
  p.searches = searches;
  p.seed = 0x3131;
  const assembler::Image img = apps::tree_search_program(p);

  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    emu::Machine m;
    m.load_flash(img.code);
    m.reset(img.entry);
    const auto t0 = Clock::now();
    const emu::StopReason stop = m.run(2'000'000'000ULL);
    const auto t1 = Clock::now();
    if (stop != emu::StopReason::Halted) {
      std::cerr << "perf_emulator: native workload did not halt ("
                << emu::to_string(stop) << ")\n";
      std::exit(1);
    }
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || s < best.wall_s) best.wall_s = s;
    best.instructions = m.stats().instructions;
    best.cycles = m.cycles();
  }
  return best;
}

// Serial chaos-soak wall time (the figure the 200-seed sweep extrapolates
// from); kept serial here so the number is comparable across machines.
double measure_soak(uint64_t seeds, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    chaos::ChaosOptions opts;
    const auto t0 = Clock::now();
    for (uint64_t s = 1; s <= seeds; ++s) {
      opts.seed = s;
      const chaos::ChaosResult res = chaos::run_chaos(opts);
      if (!res.ok()) {
        std::cerr << "perf_emulator: chaos seed " << s << " violated\n";
        std::exit(1);
      }
    }
    const auto t1 = Clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

void emit_json(std::ostream& os, bool smoke, int reps, uint16_t fig7_nodes,
               int fig7_tasks, const Measurement& fig7,
               const Measurement& native, uint64_t soak_seeds,
               double soak_wall) {
  const Baseline base{"318cfe9", kBaselineFig7HostMips,
                      kBaselineNativeHostMips, kBaselineSoakWallSeconds};
  auto f = [&os](double v) { os << v; };
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"sensmart.bench.emulator/1\",\n";
  os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"workloads\": {\n";
  os << "    \"fig7_treesearch\": {\n";
  os << "      \"description\": \"SenSmart kernel run: 1 data-feed + "
     << fig7_tasks << " tree-search tasks, " << fig7_nodes
     << " nodes/tree\",\n";
  os << "      \"emulated_instructions\": " << fig7.instructions << ",\n";
  os << "      \"emulated_cycles\": " << fig7.cycles << ",\n";
  os << "      \"service_calls\": " << fig7.service_calls << ",\n";
  os << "      \"wall_seconds\": ";
  f(fig7.wall_s);
  os << ",\n      \"host_mips\": ";
  f(fig7.host_mips());
  os << ",\n      \"emulated_cycles_per_sec\": ";
  f(fig7.cycles_per_sec());
  os << ",\n      \"service_traps_per_sec\": ";
  f(fig7.traps_per_sec());
  os << ",\n      \"guest_cycles_per_instruction\": ";
  f(fig7.cpi());
  os << ",\n      \"guest_cycles_per_trap\": ";
  f(fig7.cycles_per_trap());
  os << ",\n      \"guest_cycles_per_serviced_op\": ";
  f(fig7.cycles_per_serviced_op());
  os << ",\n      \"guest_traps_per_1k_instructions\": ";
  f(fig7.traps_per_1k_instructions());
  os << ",\n      \"guest_overhead_vs_native\": ";
  f(native.cpi() > 0 ? fig7.cpi() / native.cpi() : 0.0);
  os << "\n    },\n";
  os << "    \"native_treesearch\": {\n";
  os << "      \"description\": \"bare-machine tree search, no kernel\",\n";
  os << "      \"emulated_instructions\": " << native.instructions << ",\n";
  os << "      \"emulated_cycles\": " << native.cycles << ",\n";
  os << "      \"wall_seconds\": ";
  f(native.wall_s);
  os << ",\n      \"host_mips\": ";
  f(native.host_mips());
  os << ",\n      \"emulated_cycles_per_sec\": ";
  f(native.cycles_per_sec());
  os << "\n    },\n";
  os << "    \"chaos_soak\": {\n";
  os << "      \"seeds\": " << soak_seeds << ",\n";
  os << "      \"wall_seconds\": ";
  f(soak_wall);
  os << ",\n      \"seeds_per_sec\": ";
  f(soak_wall > 0 ? double(soak_seeds) / soak_wall : 0.0);
  os << "\n    }\n";
  os << "  },\n";
  os << "  \"baseline\": {\n";
  os << "    \"commit\": \"" << base.commit << "\",\n";
  os << "    \"fig7_host_mips\": ";
  f(base.fig7_host_mips);
  os << ",\n    \"native_host_mips\": ";
  f(base.native_host_mips);
  os << ",\n    \"soak_wall_seconds\": ";
  f(base.soak_wall_seconds);
  os << "\n  },\n";
  os << "  \"speedup\": {\n";
  os << "    \"fig7_host_mips\": ";
  f(base.fig7_host_mips > 0 ? fig7.host_mips() / base.fig7_host_mips : 0.0);
  os << ",\n    \"native_host_mips\": ";
  f(base.native_host_mips > 0 ? native.host_mips() / base.native_host_mips
                              : 0.0);
  os << "\n  },\n";
  // Guest-side (emulated-cycle) trajectory: deterministic, so this block
  // is also what the CI regression gate (--gate) compares against.
  os << "  \"guest\": {\n";
  os << "    \"baseline_commit\": \"b6c5f7b\",\n";
  os << "    \"baseline_emulated_cycles\": " << kBaselineFig7EmulatedCycles
     << ",\n";
  os << "    \"baseline_service_calls\": " << kBaselineFig7ServiceCalls
     << ",\n";
  os << "    \"emulated_cycles\": " << fig7.cycles << ",\n";
  os << "    \"service_calls\": " << fig7.service_calls << ",\n";
  os << "    \"cycle_reduction_pct\": ";
  f(smoke || kBaselineFig7EmulatedCycles == 0
        ? 0.0
        : 100.0 * (1.0 - double(fig7.cycles) /
                             double(kBaselineFig7EmulatedCycles)));
  os << "\n  }\n";
  os << "}\n";
}

// Pull the committed guest emulated-cycle count out of a BENCH JSON.
// Prefers the "guest" block; falls back to the fig7 workload entry so the
// gate also works against pre-guest-schema files.
uint64_t committed_guest_cycles(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  size_t at = text.find("\"guest\"");
  if (at == std::string::npos) at = text.find("\"fig7_treesearch\"");
  if (at == std::string::npos) return 0;
  const std::string key = "\"emulated_cycles\": ";
  at = text.find(key, at);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

// CI regression gate: re-measure the full-scale fig7 mix (guest cycles are
// deterministic, so reps=1 and no warm-up) and fail if it costs more than
// `tolerance` over the committed BENCH_emulator.json.
int run_gate(const std::string& path) {
  constexpr double kTolerance = 1.02;  // 2%
  const uint64_t committed = committed_guest_cycles(path);
  if (committed == 0) {
    std::cerr << "perf_emulator: no committed emulated_cycles in " << path
              << "\n";
    return 2;
  }
  const Measurement fig7 = measure_fig7(24, 6, 8000, 1);
  const double ratio = double(fig7.cycles) / double(committed);
  std::cout << "guest-cycle gate: current " << fig7.cycles << " vs committed "
            << committed << " (" << sim::Table::num(100.0 * (ratio - 1.0), 2)
            << "% drift, tolerance +2%)\n";
  if (double(fig7.cycles) > double(committed) * kTolerance) {
    std::cerr << "perf_emulator: FAIL — fig7 guest cycles regressed beyond "
                 "2%; if the increase is intentional (new default pass, cost "
                 "recalibration), refresh BENCH_emulator.json and the golden "
                 "traces in the same commit\n";
    return 1;
  }
  std::cout << "guest-cycle gate: OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 5;
  std::string json_path = "BENCH_emulator.json";
  std::string gate_path;
  auto usage = [] {
    std::cerr << "usage: perf_emulator [--smoke] [--reps N] [--json PATH] "
                 "[--gate BENCH.json]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      gate_path = argv[++i];
    } else {
      return usage();
    }
  }
  // Every timed figure is a best of reps: without one the JSON is all zeros.
  if (reps <= 0) return usage();
  if (!gate_path.empty()) return run_gate(gate_path);
  if (smoke) reps = std::min(reps, 2);
  const uint16_t fig7_nodes = 24;
  const int fig7_tasks = smoke ? 2 : 6;
  const uint16_t fig7_searches = smoke ? 64 : 8000;
  const uint16_t native_searches = smoke ? 256 : 50000;
  const uint64_t soak_seeds = smoke ? 5 : 25;

  const Measurement fig7 =
      measure_fig7(fig7_nodes, fig7_tasks, fig7_searches, reps);
  const Measurement native = measure_native(fig7_nodes, native_searches, reps);
  const double soak_wall = measure_soak(soak_seeds, reps);

  sim::Table t({"Workload", "HostMIPS", "EmulCy/s", "Traps/s", "Wall(s)"}, 14);
  t.row({"fig7 treesearch", sim::Table::num(fig7.host_mips(), 2),
         sim::Table::num(fig7.cycles_per_sec(), 0),
         sim::Table::num(fig7.traps_per_sec(), 0),
         sim::Table::num(fig7.wall_s, 4)});
  t.row({"native treesearch", sim::Table::num(native.host_mips(), 2),
         sim::Table::num(native.cycles_per_sec(), 0), "-",
         sim::Table::num(native.wall_s, 4)});
  t.row({"chaos soak (" + std::to_string(soak_seeds) + " seeds)", "-", "-",
         "-", sim::Table::num(soak_wall, 4)});
  t.print();
  if (kBaselineFig7HostMips > 0) {
    std::cout << "\nspeedup vs pre-PR baseline: fig7 "
              << sim::Table::num(fig7.host_mips() / kBaselineFig7HostMips, 2)
              << "x, native "
              << sim::Table::num(native.host_mips() / kBaselineNativeHostMips,
                                 2)
              << "x\n";
  }
  std::cout << "guest: " << fig7.cycles << " emulated cycles, "
            << sim::Table::num(fig7.cycles_per_trap(), 1) << " cy/trap, "
            << sim::Table::num(fig7.cycles_per_serviced_op(), 1)
            << " cy/serviced-op, "
            << sim::Table::num(fig7.traps_per_1k_instructions(), 1)
            << " traps/1k-insn, overhead "
            << sim::Table::num(native.cpi() > 0 ? fig7.cpi() / native.cpi()
                                                : 0.0,
                               3)
            << "x vs native";
  if (!smoke)
    std::cout << " ("
              << sim::Table::num(
                     100.0 * (1.0 - double(fig7.cycles) /
                                        double(kBaselineFig7EmulatedCycles)),
                     1)
              << "% cycle reduction vs pre-tier baseline)";
  std::cout << "\n";

  std::ofstream js(json_path);
  if (!js) {
    std::cerr << "perf_emulator: cannot write " << json_path << "\n";
    return 1;
  }
  emit_json(js, smoke, reps, fig7_nodes, fig7_tasks, fig7, native, soak_seeds,
            soak_wall);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
