#include "sim/harness.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "net/image_codec.hpp"
#include "rewriter/tkernel.hpp"

namespace sensmart::sim {

namespace {

// Shared by run_system and the per-node phase of run_network: admit every
// program, start, run to the budget, and collect the result.
SystemRun run_kernel_to_completion(emu::Machine& m, kern::Kernel& k,
                                   uint64_t max_cycles,
                                   kern::KernelTrace* trace) {
  if (trace != nullptr) k.set_trace(trace);
  SystemRun r;
  r.admitted = k.admit_all();
  if (r.admitted == 0 || !k.start()) {
    r.stop = emu::StopReason::Halted;
    r.tasks = k.tasks();
    return r;
  }
  r.stop = k.run(max_cycles);
  r.cycles = m.cycles();
  r.instructions = m.stats().instructions;
  r.active_cycles = m.stats().active_cycles;
  r.idle_cycles = m.stats().idle_cycles;
  r.kernel_stats = k.stats();
  r.avg_stack_alloc = k.avg_stack_alloc();
  r.tasks = k.tasks();
  r.audit_log = k.audit_log();
  r.invariant_error = k.check_invariants();
  return r;
}

}  // namespace

SystemRun run_system(const std::vector<assembler::Image>& images,
                     const RunSpec& spec) {
  rw::Linker linker(spec.rewrite, spec.merge_trampolines);
  for (const auto& img : images) linker.add(img);
  rw::LinkedSystem sys = linker.link();

  emu::Machine m;
  kern::Kernel k(m, sys, spec.kernel);
  return run_kernel_to_completion(m, k, spec.max_cycles, spec.trace);
}

NetworkRun run_network(const std::vector<assembler::Image>& images,
                       const NetworkRunSpec& spec) {
  NetworkRun out;

  // Base station: naturalize (rewrite+link) the applications and serialize
  // the resulting system image for the air.
  rw::Linker linker(spec.rewrite, spec.merge_trampolines);
  for (const auto& img : images) linker.add(img);
  rw::LinkedSystem sys = linker.link();
  out.image_blob = net::serialize_system(sys);

  net::NetSim net(spec.net, out.image_blob);
  if (spec.fault_policy) net.set_fault_policy(spec.fault_policy);
  out.dissemination = net.disseminate();

  // Fleet-wide install dedup: every node whose verified bytes are
  // byte-identical to the base's blob (the common case — the CRC oracle
  // makes anything else a collision) shares one deserialized system and
  // one pre-decoded flash image, adopted read-only by each machine,
  // instead of a per-node re-parse plus a private flash + decode cache.
  std::shared_ptr<const rw::LinkedSystem> fleet_sys;
  std::shared_ptr<const emu::Machine::SharedImage> fleet_img;

  out.nodes.resize(spec.net.nodes);
  for (size_t i = 0; i < spec.net.nodes; ++i) {
    NodeRun& nr = out.nodes[i];
    const size_t id = i + 1;
    nr.abort_reason = out.dissemination.nodes[i].abort_reason;
    if (!net.node_complete(id)) continue;  // partial image: nothing to run

    // Reconstruct the system from the node's verified bytes. The strict
    // decoder re-checks structure; a blob that verified by CRC but does
    // not parse is treated as not installed.
    const bool identical = net.node_blob(id) == out.image_blob;
    std::optional<rw::LinkedSystem> received;
    if (identical && !fleet_sys) {
      received = net::deserialize_system(out.image_blob);
      if (received) {
        fleet_sys = std::make_shared<const rw::LinkedSystem>(
            std::move(*received));
        fleet_img = emu::Machine::build_shared_image(fleet_sys->flash);
        received.reset();
      }
    }
    if (!(identical && fleet_sys)) {
      received = net::deserialize_system(net.node_blob(id));
      if (!received) continue;
    }

    const net::NodeDissemStats& ds = out.dissemination.nodes[i];
    kern::InstallInfo info;
    info.over_the_air = true;
    info.node_id = static_cast<uint16_t>(id);
    info.image_version = spec.net.proto.version;
    info.image_bytes = out.dissemination.image_bytes;
    info.image_crc = out.dissemination.image_crc;
    info.rx_cycles = ds.completion_cycle;
    info.frames_rx = ds.frames_rx;
    info.nacks_sent = ds.nacks_sent;
    info.crc_rejects = ds.crc_drops;
    info.bytes_rx = ds.bytes_rx;
    info.bytes_tx = ds.bytes_tx;

    // Reboot the node into the received image: align its CPU clock with
    // the dissemination timeline, drop any half-received radio tail, and
    // hand the image to the kernel.
    emu::Machine& m = net.node_machine(id);
    m.charge(out.dissemination.cycles);
    m.dev().flush_rx();
    if (identical && fleet_sys) {
      kern::Kernel k(m, fleet_sys, fleet_img, spec.kernel, info);
      nr.install = k.install_info();
      nr.installed = true;
      if (spec.run_kernels)
        nr.run = run_kernel_to_completion(m, k, spec.run_cycles, nullptr);
    } else {
      kern::Kernel k(m, std::move(*received), spec.kernel, info);
      nr.install = k.install_info();
      nr.installed = true;
      if (spec.run_kernels)
        nr.run = run_kernel_to_completion(m, k, spec.run_cycles, nullptr);
    }
  }
  return out;
}

RolloutRun run_rollout(const std::vector<assembler::Image>& images,
                       const RolloutRunSpec& spec) {
  RolloutRun out;

  auto link_blob = [&](const std::vector<assembler::Image>& imgs) {
    rw::Linker linker(spec.rewrite, spec.merge_trampolines);
    for (const auto& img : imgs) linker.add(img);
    return linker.link();
  };
  rw::LinkedSystem new_sys = link_blob(images);
  out.new_blob = net::serialize_system(new_sys);
  out.old_blob = net::serialize_system(link_blob(spec.old_images));

  // Characterize the new image by running it for real on a supervised
  // scratch kernel: the supervisor mirrors its recovery actions into the
  // DeviceHub health counters — the same path a deployed node reports
  // through — and those counters decide the fleet-wide trial behavior.
  {
    emu::Machine m;
    kern::Kernel k(m, new_sys, spec.kernel);
    SystemRun probe =
        run_kernel_to_completion(m, k, spec.probe_cycles, nullptr);
    const emu::HealthCounters& h = m.dev().health();
    out.probed.restarts = h.restarts;
    out.probed.quarantines = h.quarantines;
    out.probed.watchdog_fires = h.watchdog_fires;
    if (h.quarantines > 0 || h.watchdog_fires > 0)
      out.probed.kind = net::TrialBehavior::Kind::Runaway;
    else if (probe.stop == emu::StopReason::Running)
      out.probed.kind = net::TrialBehavior::Kind::Wedge;  // never finished
    else
      out.probed.kind = net::TrialBehavior::Kind::Healthy;
  }

  net::NetSim sim(spec.net, out.new_blob);
  sim.set_initial_image(out.old_blob, spec.old_version);
  for (uint16_t id = 1; id <= spec.net.nodes; ++id)
    sim.set_trial_behavior(id, out.probed);
  for (const auto& [id, b] : spec.lemons) sim.set_trial_behavior(id, b);
  out.result = sim.rollout();
  return out;
}

SystemRun run_tkernel(const assembler::Image& image, uint64_t max_cycles) {
  RunSpec spec;
  spec.kernel = kern::tkernel_config();
  spec.rewrite = rw::tkernel_rewrite_options();
  spec.merge_trampolines = rw::kTKernelMerging;
  spec.max_cycles = max_cycles;
  return run_system({image}, spec);
}

// --- Table --------------------------------------------------------------------

Table::Table(std::vector<std::string> headers, int col_width)
    : headers_(std::move(headers)), w_(col_width) {}

void Table::row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

void Table::print(std::ostream& os) const {
  // The first column is wide enough for the longest label.
  size_t first = headers_.empty() ? 0 : headers_[0].size();
  for (const auto& r : rows_)
    if (!r.empty()) first = std::max(first, r[0].size());
  first += 2;

  auto line = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i)
      os << std::left << std::setw(int(i == 0 ? first : size_t(w_)))
         << cells[i];
    os << "\n";
  };
  line(headers_);
  os << std::string(first + (headers_.empty() ? 0 : headers_.size() - 1) * w_,
                    '-')
     << "\n";
  for (const auto& r : rows_) line(r);
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::num(uint64_t v) { return std::to_string(v); }

}  // namespace sensmart::sim
