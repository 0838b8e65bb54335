// Single-mote workloads: the Fig. 7 task mix on one kernel (kernel_fig7)
// and a serial sweep of seeded chaos runs (chaos_sweep).
#include <algorithm>
#include <optional>
#include <string>

#include "apps/treesearch.hpp"
#include "baselines/native_runner.hpp"
#include "bench.hpp"
#include "chaos/chaos.hpp"
#include "kernel/kernel.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

namespace sensmart::bench {

using net::fnv1a_step;

void record_link(const rw::LinkedSystem& sys, Outcome& out) {
  double native = 0.0, inflated = 0.0;
  for (const rw::ProgramInfo& p : sys.programs) {
    native += p.native_bytes;
    inflated += p.rewritten_bytes + p.shift_table_bytes + p.trampoline_bytes;
  }
  out.set("rewriter.inflation", native > 0 ? inflated / native : 0.0);
  out.set("rewriter.trampoline_bytes", 2.0 * sys.tramp_words);
}

namespace {

void record_kernel(const kern::KernelStats& s, uint64_t instructions,
                   Outcome& out) {
  out.set("kernel.service_calls", double(s.service_calls));
  out.set("kernel.cycles_per_trap",
          s.service_calls ? double(s.service_cycles) / s.service_calls : 0.0);
  out.set("kernel.traps_per_kinsn",
          instructions ? 1e3 * double(s.service_calls) / instructions : 0.0);
  out.set("kernel.context_switches", double(s.context_switches));
  out.set("kernel.relocations", double(s.relocations));
  out.set("kernel.reloc_bytes_moved", double(s.reloc_bytes_moved));
  out.set("kernel.reloc_cycles", double(s.reloc_cycles));
  out.set("kernel.window_invalidations", double(s.window_invalidations));
  out.set("emu.instructions", double(instructions));
}

// --- kernel_fig7 -------------------------------------------------------------
// The Fig. 7 mix: one data-feeding task plus six recursive tree-search
// tasks (24 nodes per tree). 65000 searches per task make one run ~140 M
// instructions, long enough for a stable host time. Seed 0 gives the
// figure's tree seeds 0x3131 + 0x1D0B * i.
std::vector<assembler::Image> fig7_images(uint64_t seed, uint16_t searches) {
  std::vector<assembler::Image> images;
  images.push_back(apps::data_feed_program(6, 64));
  for (uint64_t i = 0; i < 6; ++i) {
    apps::TreeSearchParams p;
    p.nodes_per_tree = 24;
    p.trees = 1;
    p.searches = searches;
    const auto s = static_cast<uint16_t>(0x3131 + 0x1D0B * i + 0x2545 * seed);
    p.seed = s != 0 ? s : 0xACE1;  // the in-program LFSR sticks at 0
    images.push_back(apps::tree_search_program(p));
  }
  return images;
}

kern::KernelConfig fig7_config() {
  kern::KernelConfig cfg;
  cfg.initial_stack = 96;
  return cfg;
}

constexpr uint64_t kFig7MaxCycles = 8'000'000'000ULL;

}  // namespace

Outcome run_kernel_fig7(const RunOptions& o, Tracer& tr) {
  Outcome out;
  const uint16_t searches = o.smoke ? 64 : 65000;
  const kern::KernelConfig cfg = fig7_config();

  // Set-up: generate the images, rewrite + link them, and bring a kernel
  // up to its first task (construct, admit, start).
  std::vector<assembler::Image> images;
  rw::LinkedSystem sys;
  auto setup = [&] {
    {
      const auto s = tr.span("apps.build");
      images = fig7_images(o.seed, searches);
    }
    {
      const auto s = tr.span("rewriter.link");
      rw::Linker linker;
      for (const auto& img : images) linker.add(img);
      sys = linker.link();
    }
    emu::Machine m;
    const auto s = tr.span("kernel.start");
    kern::Kernel k(m, sys, cfg);
    k.admit_all();
    if (!k.start()) out.fail("kernel_fig7: kernel failed to start");
  };
  setup();
  record_link(sys, out);

  // Oracle reference, outside the timed phase: every image run bare on the
  // emulator must produce the host output its kernel task produces.
  std::vector<std::vector<uint8_t>> expect;
  uint64_t native_insns = 0;
  double native_s = 0.0;
  for (const auto& img : images) {
    const auto s = tr.span("emu.native_run");
    const auto t0 = Clock::now();
    const base::NativeResult r = base::run_native(img, kFig7MaxCycles);
    native_s += seconds_since(t0);
    native_insns += r.instructions;
    if (r.stop != emu::StopReason::Halted)
      out.fail("kernel_fig7: native reference run did not halt");
    expect.push_back(r.host_out);
  }
  out.set("emu.native_mips", native_insns / native_s / 1e6);

  uint64_t instructions = 0;
  const RepWalls w = run_reps(o, tr, out, setup, [&](int rep) {
    emu::Machine m;
    std::optional<kern::Kernel> k;
    {
      const auto s = tr.span("kernel.start");
      k.emplace(m, sys, cfg);
      k->admit_all();
      k->start();
    }
    const auto t0 = Clock::now();
    emu::StopReason stop = emu::StopReason::Running;
    {
      const auto s = tr.span("kernel.run");
      stop = k->run(kFig7MaxCycles);
    }
    const double wall = seconds_since(t0);

    uint64_t d = fnv1a_step(kFnvBasis, m.cycles());
    d = fnv1a_step(d, m.stats().instructions);
    if (stop != emu::StopReason::Halted)
      out.fail("kernel_fig7: kernel did not halt within the cycle budget");
    for (const kern::Task& t : k->tasks()) {
      ++out.attempted;
      d = fnv1a_step(d, uint64_t(t.state));
      for (uint8_t b : t.host_out) d = fnv1a_step(d, b);
      if (t.state != kern::TaskState::Done) {
        out.fail("kernel_fig7: task " + std::to_string(t.id) + " ended " +
                 kern::to_string(t.state));
      } else if (t.host_out != expect[t.program]) {
        out.fail("kernel_fig7: task " + std::to_string(t.id) +
                 " host output differs from its native run");
      }
    }
    out.check_digest(rep, d);
    if (rep == 0) {
      instructions = m.stats().instructions;
      record_kernel(k->stats(), instructions, out);
      out.set("guest_cycles", double(m.cycles()));
    }
    out.sample("host_s_per_gcycle", wall / (double(m.cycles()) / 1e9));
    return wall;
  });
  record_walls(w, out);

  out.samples["kernel.start_s"] = tr.durations("kernel.start");
  out.samples["kernel.run_s"] = tr.durations("kernel.run");
  out.samples["rewriter.link_s"] = tr.durations("rewriter.link");
  for (double s : out.samples["kernel.run_s"])
    out.sample("emu.host_mips", instructions / s / 1e6);
  return out;
}

// --- chaos_sweep -------------------------------------------------------------
// Seeded chaos runs (audit, injected kills and supervision on), serially:
// thousands of short runs dominated by rewrite/link/admit set-up,
// starvation-level stacks and relocation storms. Seed n sweeps chaos seeds
// 1 + 2500 n .. 2500 (n + 1).
Outcome run_chaos_sweep(const RunOptions& o, Tracer& tr) {
  Outcome out;
  constexpr uint64_t kSeedsPerRep = 2500;
  const uint64_t count = o.smoke ? 20 : kSeedsPerRep;
  const uint64_t first = 1 + o.seed * kSeedsPerRep;

  // Set-up: what a seed pays before it executes — plan the mix, rewrite,
  // link, admit and start — measured as run_chaos with a budget too small
  // to run a task (its "did not halt" verdict is expected). One sample sets
  // up the sweep's first ten seeds: plans differ in size, and a fixed group
  // keeps the samples alike.
  auto setup = [&] {
    chaos::ChaosOptions c;
    c.max_cycles = 1;
    for (uint64_t k = 0; k < std::min<uint64_t>(count, 10); ++k) {
      c.seed = first + k;
      const auto s = tr.span("chaos.setup");
      chaos::run_chaos(c);
    }
  };

  const RepWalls w = run_reps(o, tr, out, setup, [&](int rep) {
    uint64_t d = kFnvBasis, cycles = 0, instructions = 0, violations = 0;
    kern::KernelStats sum;
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < count; ++i) {
      chaos::ChaosOptions c;
      c.seed = first + i;
      chaos::ChaosResult r;
      {
        const auto sp = tr.span("chaos.seed");
        r = chaos::run_chaos(c);
      }
      ++out.attempted;
      if (!r.ok())
        out.fail("chaos seed " + std::to_string(c.seed) + ": " +
                 r.violations[0]);
      d = fnv1a_step(d, r.trace_hash);
      cycles += r.run.cycles;
      instructions += r.run.instructions;
      violations += r.violations.size();
      const kern::KernelStats& k = r.run.kernel_stats;
      sum.service_calls += k.service_calls;
      sum.service_cycles += k.service_cycles;
      sum.context_switches += k.context_switches;
      sum.relocations += k.relocations;
      sum.reloc_bytes_moved += k.reloc_bytes_moved;
      sum.reloc_cycles += k.reloc_cycles;
      sum.window_invalidations += k.window_invalidations;
      sum.audit_checks += k.audit_checks;
      sum.kills += k.kills;
      sum.restarts += k.restarts;
    }
    const double wall = seconds_since(t0);
    out.check_digest(rep, d);
    if (rep == 0) {
      record_kernel(sum, instructions, out);
      out.set("guest_cycles", double(cycles));
      out.set("chaos.audit_checks", double(sum.audit_checks));
      out.set("chaos.kills", double(sum.kills));
      out.set("chaos.restarts", double(sum.restarts));
      out.set("chaos.violations", double(violations));
    }
    out.sample("host_s_per_gcycle", wall / (double(cycles) / 1e9));
    return wall;
  });
  record_walls(w, out);

  std::vector<double> seed_ms = tr.durations("chaos.seed");
  for (double& v : seed_ms) v *= 1e3;
  out.set("chaos.seed_ms_p50", quantile(seed_ms, 0.50));
  out.set("chaos.seed_ms_p99", quantile(seed_ms, 0.99));
  return out;
}

}  // namespace sensmart::bench
