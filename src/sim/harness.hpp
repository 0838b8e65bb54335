// Experiment harness shared by the bench binaries: one-call SenSmart and
// t-kernel runs over a set of application images, and a fixed-width table
// printer for paper-style output.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "kernel/kernel.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

namespace sensmart::sim {

struct SystemRun {
  emu::StopReason stop = emu::StopReason::Running;
  uint64_t cycles = 0;
  uint64_t instructions = 0;  // emulated instructions retired
  uint64_t active_cycles = 0;
  uint64_t idle_cycles = 0;
  kern::KernelStats kernel_stats;
  double avg_stack_alloc = 0;  // time-averaged bytes per live task
  std::vector<kern::Task> tasks;               // final task states
  size_t admitted = 0;
  // Auditor output (populated when KernelConfig::audit is set).
  std::vector<std::string> audit_log;          // violation descriptions
  std::string invariant_error;                 // final check_invariants()

  double seconds() const { return double(cycles) / emu::kClockHz; }
  double utilization() const {
    return cycles ? double(active_cycles) / double(cycles) : 0.0;
  }
  size_t completed() const {
    size_t n = 0;
    for (const auto& t : tasks)
      if (t.state == kern::TaskState::Done) ++n;
    return n;
  }
  size_t killed() const {
    size_t n = 0;
    for (const auto& t : tasks)
      if (t.state == kern::TaskState::Killed) ++n;
    return n;
  }
};

struct RunSpec {
  kern::KernelConfig kernel;
  rw::RewriteOptions rewrite;
  bool merge_trampolines = true;
  uint64_t max_cycles = 4'000'000'000ULL;
  kern::KernelTrace* trace = nullptr;  // optional event trace (not owned)
};

// Rewrite+link `images`, admit one task per image, run to completion or
// the cycle budget.
SystemRun run_system(const std::vector<assembler::Image>& images,
                     const RunSpec& spec = {});

// Convenience: the t-kernel configuration of the same harness.
SystemRun run_tkernel(const assembler::Image& image,
                      uint64_t max_cycles = 4'000'000'000ULL);

// ---------------------------------------------------------------------------
// Multi-node scenario: over-the-air dissemination, then per-node execution.
// ---------------------------------------------------------------------------

struct NetworkRunSpec {
  rw::RewriteOptions rewrite;
  bool merge_trampolines = true;
  kern::KernelConfig kernel;
  net::NetConfig net;                       // nodes, link, protocol, seed
  uint64_t run_cycles = 4'000'000'000ULL;   // per-node execution budget
  bool run_kernels = true;                  // false: dissemination only
  net::FaultPolicy fault_policy;            // scripted faults (tests)
};

struct NodeRun {
  bool installed = false;    // verified image deserialized, kernel started
  // Why dissemination gave up on this node (None when it completed);
  // mirrors the per-node Abort events in the dissemination trace.
  net::NodeAbortReason abort_reason = net::NodeAbortReason::None;
  kern::InstallInfo install;
  SystemRun run;             // valid when installed && run_kernels
};

struct NetworkRun {
  std::vector<uint8_t> image_blob;  // base's serialized naturalized image
  net::DisseminationResult dissemination;
  std::vector<NodeRun> nodes;  // index i = network node i+1

  bool all_installed() const {
    for (const auto& n : nodes)
      if (!n.installed) return false;
    return !nodes.empty();
  }
};

// The full over-the-air pipeline: rewrite+link `images` at the base
// station, serialize the naturalized system, disseminate it over the lossy
// medium to every node, and — on each node whose received image verified —
// install it into a kernel and run all tasks to completion. A node that
// never completed dissemination (or whose blob fails strict
// deserialization) is left without a kernel: partial images never run.
NetworkRun run_network(const std::vector<assembler::Image>& images,
                       const NetworkRunSpec& spec);

// ---------------------------------------------------------------------------
// Staged rollout: a fleet running an old image is upgraded wave-by-wave to
// a new one behind the health gate (DESIGN.md §12).
// ---------------------------------------------------------------------------

struct RolloutRunSpec {
  rw::RewriteOptions rewrite;
  bool merge_trampolines = true;
  kern::KernelConfig kernel;  // supervision config the probe runs under
  net::NetConfig net;         // net.rollout.* pick waves / gate / budget
  // Applications the fleet is already running (slot A before the upgrade).
  std::vector<assembler::Image> old_images;
  uint8_t old_version = 0;
  uint64_t probe_cycles = 40'000'000;  // characterization budget
  // Per-node behavior overrides — the chaos harness's lemon images. Nodes
  // without an entry inherit the probed behavior of the new image.
  std::vector<std::pair<uint16_t, net::TrialBehavior>> lemons;
};

struct RolloutRun {
  std::vector<uint8_t> old_blob;  // serialized old system (initial image)
  std::vector<uint8_t> new_blob;  // serialized new system (disseminated)
  net::TrialBehavior probed;      // measured behavior of the new image
  net::RolloutResult result;
};

// The full staged-upgrade pipeline. The new applications are naturalized
// and serialized exactly as in run_network; the *trial behavior* every node
// exhibits during probation is not scripted but measured, by installing the
// new system into a scratch supervised kernel and running it: supervision
// quarantines or watchdog kills recorded by the kernel (mirrored into
// DeviceHub health counters) make it a Runaway lemon, an image still
// running at the probe budget becomes a Wedge, anything else runs Healthy
// with its restart count reported. Then the fleet — seeded onto the old
// image via NetSim::set_initial_image — is disseminated to and upgraded
// wave-by-wave with NetSim::rollout().
RolloutRun run_rollout(const std::vector<assembler::Image>& images,
                       const RolloutRunSpec& spec);

// ---------------------------------------------------------------------------
// Fixed-width table printer for the bench binaries.
// ---------------------------------------------------------------------------
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 14);
  void row(const std::vector<std::string>& cells);
  void print(std::ostream& os = std::cout) const;

  static std::string num(double v, int precision = 2);
  static std::string num(uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int w_;
};

}  // namespace sensmart::sim
