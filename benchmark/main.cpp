// sensmart_bench: the repository benchmark (benchmark/README.md).
//
//   sensmart_bench --workload W --seed N [--seconds T] [--trace 0|1]
//                  [--smoke] [--record PATH]
//   sensmart_bench --compare A.json B.json
//   sensmart_bench --check-spec BENCHMARK.json
//   sensmart_bench --list
//
// A run prints a metric table, the simulated-behaviour digest and, last,
// one JSON line {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics untraced (--trace 0), per-layer metrics traced (--trace 1). The
// traced run also writes a Chrome trace next to the binary. Exit status is
// 0 only when every oracle passed.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "json.hpp"

using namespace sensmart::bench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_better;
  // A deterministic simulated quantity: --compare requires equality.
  bool exact = false;
};

// End-to-end metrics (BENCHMARK.json "end_to_end"; bounds live there).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s", false},
    {"setup_s", "s", false},
    {"host_s_per_gcycle", "s/Gcycle", false},
    {"guest_cycles", "cycles", false, true},
};

// Per-layer metrics (BENCHMARK.json "per_layer"); a layer a workload does
// not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"rewriter.link_s", "s", false},
    {"rewriter.inflation", "x", false},
    {"rewriter.trampoline_bytes", "bytes", false},
    {"net.codec.serialize_s", "s", false},
    {"net.codec.image_bytes", "bytes", false},
    {"kernel.start_s", "s", false},
    {"kernel.run_s", "s", false},
    {"kernel.service_calls", "count", false},
    {"kernel.cycles_per_trap", "cycles", false},
    {"kernel.traps_per_kinsn", "1/kinsn", false},
    {"kernel.context_switches", "count", false},
    {"kernel.relocations", "count", false},
    {"kernel.reloc_bytes_moved", "bytes", false},
    {"kernel.reloc_cycles", "cycles", false},
    {"kernel.window_invalidations", "count", false},
    {"emu.instructions", "count", false},
    {"emu.host_mips", "MIPS", true},
    {"emu.native_mips", "MIPS", true},
    {"chaos.seed_ms_p50", "ms", false},
    {"chaos.seed_ms_p99", "ms", false},
    {"chaos.audit_checks", "count", false},
    {"chaos.kills", "count", false},
    {"chaos.restarts", "count", false},
    {"chaos.violations", "count", false},
    {"net.engine.construct_s", "s", false},
    {"net.engine.disseminate_s", "s", false},
    {"net.engine.host_s_per_gcycle", "s/Gcycle", false},
    {"net.engine.trace_events", "count", false},
    {"net.engine.scaling_ratio", "x", false},
    {"net.engine.rss_construct_mb", "MB", false},
    {"net.engine.rss_disseminate_mb", "MB", false},
    {"net.medium.air_bytes", "bytes", false},
    {"net.medium.packets_offered", "count", false},
    {"net.medium.delivery_ratio", "ratio", true},
    {"net.medium.collisions", "count", false},
    {"net.proto.retransmissions", "count", false},
    {"net.proto.nacks_rx", "count", false},
    {"net.proto.duplicate_chunks", "count", false},
    {"net.proto.chunks_served", "count", false},
    {"net.proto.parent_switches", "count", false},
    {"net.proto.useful_rx_ratio", "ratio", true},
    {"net.proto.verified_ratio", "ratio", true},
    {"net.proto.verify_cycles_p50", "cycles", false},
    {"net.proto.verify_cycles_p90", "cycles", false},
    {"net.proto.abandoned_verified", "count", false},
    {"host.shard_speedup", "x", true},
    {"process.peak_rss_mb", "MB", false},
    {"trace.overhead_pct", "%", false},
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunOptions&, Tracer&);
};
constexpr Workload kWorkloads[] = {
    {"kernel_fig7", run_kernel_fig7},
    {"chaos_sweep", run_chaos_sweep},
    {"fleet_star", run_fleet_star},
    {"fleet_grid", run_fleet_grid},
};

int usage() {
  std::cerr << "usage: sensmart_bench --workload W --seed N [--seconds T] "
               "[--trace 0|1] [--smoke] [--record PATH]\n"
               "       sensmart_bench --compare A.json B.json\n"
               "       sensmart_bench --check-spec BENCHMARK.json\n"
               "       sensmart_bench --list\n";
  return 2;
}

std::optional<Json> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "sensmart_bench: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto j = parse_json(ss.str());
  if (!j) std::cerr << "sensmart_bench: " << path << " is not valid JSON\n";
  return j;
}

// Full-precision number: a rounded time could read the same on every run.
std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

// --- one workload run --------------------------------------------------------

int run(const RunOptions& o, const Workload& wl, const std::string& record,
        const std::filesystem::path& out_dir) {
  Tracer tr(o.traced);
  Outcome out = wl.run(o, tr);
  out.set("process.peak_rss_mb", peak_rss_mb());
  const bool correct = out.failed == 0 && out.consistent;

  std::cout << "workload " << wl.name << "  seed " << o.seed << "  trace "
            << o.traced << "  nproc " << std::thread::hardware_concurrency()
            << "\n"
            << std::left << std::setw(32) << "metric" << std::right
            << std::setw(18) << "median" << std::setw(18) << "p25"
            << std::setw(18) << "p75" << std::setw(7) << "n" << "  unit\n";
  using Metrics = std::span<const MetricSpec>;
  const Metrics shown = o.traced ? Metrics(kPerLayer) : Metrics(kEndToEnd);
  auto stats = [&out](const char* name) {
    const auto it = out.samples.find(name);
    return it == out.samples.end() ? std::vector<double>{} : it->second;
  };
  for (const MetricSpec& m : shown) {
    const auto v = stats(m.name);
    std::cout << std::left << std::setw(32) << m.name << std::right
              << std::setw(18) << quantile(v, 0.5) << std::setw(18)
              << quantile(v, 0.25) << std::setw(18) << quantile(v, 0.75)
              << std::setw(7) << v.size() << "  " << m.unit << "\n";
  }
  std::cout << "digest " << wl.name << " seed " << o.seed << ": 0x"
            << std::hex << out.digest << std::dec << "\n";
  for (const std::string& e : out.errors)
    std::cerr << "sensmart_bench: " << e << "\n";

  if (o.traced) {
    tr.print_self_times(std::cout);
    const auto path = out_dir / ("trace-" + std::string(wl.name) + "-seed" +
                                 std::to_string(o.seed) + ".json");
    if (tr.write_chrome(path.string(), wl.name, o.seed))
      std::cout << "chrome trace: " << path.string() << "\n";
    else
      std::cerr << "sensmart_bench: cannot write " << path.string() << "\n";
  }

  if (!record.empty()) {
    std::ofstream rec(record);
    rec << "{\"workload\": \"" << wl.name << "\", \"seed\": " << o.seed
        << ", \"trace\": " << o.traced << ", \"seconds\": " << num(o.seconds)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << out.attempted
        << ", \"failed\": " << out.failed << ", \"digest\": \"0x" << std::hex
        << out.digest << std::dec << "\", \"metrics\": {";
    const char* sep = "";
    for (const MetricSpec& m : shown) {
      const auto v = stats(m.name);
      rec << sep << "\n  \"" << m.name << "\": {\"unit\": \"" << m.unit
          << "\", \"median\": " << num(quantile(v, 0.5))
          << ", \"p25\": " << num(quantile(v, 0.25))
          << ", \"p75\": " << num(quantile(v, 0.75)) << ", \"n\": "
          << v.size() << "}";
      sep = ",";
    }
    rec << "}}\n";
    if (!rec) std::cerr << "sensmart_bench: cannot write " << record << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const MetricSpec& m : shown) {
    std::cout << sep << "\"" << m.name << "\": {\"value\": "
              << num(quantile(stats(m.name), 0.5)) << ", \"unit\": \""
              << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

// --- --compare ---------------------------------------------------------------

// Records of one results file: a `run.sh --all` array or a single record.
std::vector<const Json*> records_of(const Json& j) {
  std::vector<const Json*> out;
  if (j.type == Json::Type::Array)
    for (const Json& r : j.array) out.push_back(&r);
  else
    out.push_back(&j);
  return out;
}

const MetricSpec* end_to_end(const std::string& name) {
  for (const MetricSpec& m : kEndToEnd)
    if (name == m.name) return &m;
  return nullptr;
}

// Per workload and end-to-end metric: `ok` within its BENCHMARK.json bound,
// `worse` beyond it, `unresolved` when either side's quartile spread is
// wider than the bound. Deterministic metrics must match exactly.
int compare(const std::string& a_path, const std::string& b_path,
            const std::string& spec_path) {
  const auto a = load_json(a_path), b = load_json(b_path);
  const auto spec = load_json(spec_path);
  if (!a || !b || !spec) return 2;
  const Json* e2e = spec->get("end_to_end");
  if (e2e == nullptr) {
    std::cerr << "sensmart_bench: " << spec_path << " has no end_to_end\n";
    return 2;
  }
  std::cout << std::left << std::setw(13) << "workload" << std::setw(19)
            << "metric" << std::right << std::setw(16) << "A" << std::setw(16)
            << "B" << std::setw(10) << "change%" << std::setw(10)
            << "spread%" << std::setw(9) << "bound%" << "  status\n";
  int bad = 0, rows = 0;
  for (const Json* rb : records_of(*b)) {
    const std::string wl = rb->str("workload");
    const Json* ra = nullptr;
    for (const Json* r : records_of(*a))
      if (r->str("workload") == wl) ra = r;
    if (ra == nullptr) continue;
    auto correct = [](const Json* r) {
      const Json* c = r->get("correct");
      return c != nullptr && c->boolean;
    };
    if (!correct(ra) || !correct(rb)) {
      std::cout << std::left << std::setw(13) << wl
                << "outputs incorrect in A or B\n";
      ++bad;
    }
    for (const Json& m : e2e->array) {
      const std::string name = m.str("name");
      const MetricSpec* ms = end_to_end(name);
      const Json* ma = ra->get("metrics") ? ra->get("metrics")->get(name)
                                          : nullptr;
      const Json* mb = rb->get("metrics") ? rb->get("metrics")->get(name)
                                          : nullptr;
      if (ms == nullptr || ma == nullptr || mb == nullptr) continue;
      const double bound = m.num("bound");
      const double va = ma->num("median"), vb = mb->num("median");
      const double worse =
          (ms->higher_better ? va - vb : vb - va) / std::abs(va);
      const double spread =
          std::max((ma->num("p75") - ma->num("p25")) / std::abs(va),
                   (mb->num("p75") - mb->num("p25")) / std::abs(vb));
      const char* status = "ok";
      if (ms->exact)
        status = va == vb ? "ok" : worse > 0 ? "worse" : "better";
      else if (spread > bound)
        status = "unresolved";
      else if (worse > bound)
        status = "worse";
      if (std::strcmp(status, "ok") != 0) ++bad;
      ++rows;
      std::cout << std::left << std::setw(13) << wl << std::setw(19) << name
                << std::right << std::setprecision(6) << std::setw(16) << va
                << std::setw(16) << vb << std::fixed << std::setprecision(2)
                << std::setw(10) << 100.0 * -worse << std::setw(10)
                << 100.0 * spread << std::setw(9) << 100.0 * bound << "  "
                << status << "\n"
                << std::defaultfloat;
    }
  }
  std::cout << rows << " comparisons, " << bad << " not ok\n";
  return rows > 0 && bad == 0 ? 0 : 1;
}

// --- --check-spec ------------------------------------------------------------

// BENCHMARK.json must list exactly this binary's workloads and metrics
// (names, units, directions, in order), with setup_s carrying the largest
// bound.
int check_spec(const std::string& path) {
  const auto spec = load_json(path);
  if (!spec) return 2;
  std::vector<std::string> problems;
  auto check_list = [&](const char* key, const MetricSpec* table, size_t n) {
    const Json* list = spec->get(key);
    if (list == nullptr || list->array.size() != n) {
      problems.push_back(std::string(key) + ": expected " + std::to_string(n) +
                         " metrics");
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const Json& m = list->array[i];
      const std::string better = table[i].higher_better ? "higher" : "lower";
      if (m.str("name") != table[i].name || m.str("unit") != table[i].unit ||
          m.str("better") != better)
        problems.push_back(std::string(key) + "[" + std::to_string(i) +
                           "]: expected " + table[i].name + " " +
                           table[i].unit + " " + better);
    }
  };
  check_list("end_to_end", kEndToEnd, std::size(kEndToEnd));
  check_list("per_layer", kPerLayer, std::size(kPerLayer));
  const Json* wls = spec->get("workloads");
  if (wls == nullptr || wls->array.size() != std::size(kWorkloads)) {
    problems.push_back("workloads: expected " +
                       std::to_string(std::size(kWorkloads)));
  } else {
    for (size_t i = 0; i < std::size(kWorkloads); ++i)
      if (wls->array[i].str("name") != kWorkloads[i].name)
        problems.push_back(std::string("workloads[") + std::to_string(i) +
                           "]: expected " + kWorkloads[i].name);
  }
  if (const Json* e2e = spec->get("end_to_end")) {
    double setup = 0.0, largest = 0.0;
    for (const Json& m : e2e->array) {
      largest = std::max(largest, m.num("bound"));
      if (m.str("name") == "setup_s") setup = m.num("bound");
    }
    if (setup < largest) problems.push_back("setup_s must have the largest bound");
  }
  for (const std::string& p : problems)
    std::cerr << "sensmart_bench: " << path << ": " << p << "\n";
  if (problems.empty()) std::cout << path << " matches sensmart_bench\n";
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string workload, record;
  std::vector<std::string> compare_paths;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 0);
      if (*end != '\0') return usage();
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--record" && has_value) {
      record = argv[++i];
    } else if (a == "--compare" && i + 2 < argc) {
      compare_paths = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (a == "--check-spec" && has_value) {
      return check_spec(argv[++i]);
    } else if (a == "--list") {
      for (const Workload& w : kWorkloads) std::cout << w.name << "\n";
      return 0;
    } else {
      return usage();
    }
  }
  if (!compare_paths.empty())
    return compare(compare_paths[0], compare_paths[1], SENSMART_BENCH_SPEC);
  for (const Workload& w : kWorkloads)
    if (workload == w.name && have_seed) {
      const auto out_dir =
          std::filesystem::path(argv[0]).parent_path().lexically_normal();
      return run(o, w, record, out_dir.empty() ? "." : out_dir);
    }
  return usage();
}
