#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "apps/treesearch.hpp"
#include "chaos/adversarial.hpp"
#include "chaos/hostile.hpp"
#include "chaos/prng.hpp"
#include "host/parallel.hpp"
#include "net/netsim.hpp"

namespace sensmart::chaos {

namespace {

// FNV-1a over the raw fields of every recorded kernel event. Two runs of
// the same seed must produce the same hash (deterministic replay).
uint64_t hash_trace(const kern::KernelTrace& trace) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const kern::TraceEvent& e : trace.events()) {
    mix(e.cycle);
    mix(uint64_t(e.kind));
    mix(e.a);
    mix(e.b);
  }
  mix(trace.events().size());
  mix(trace.dropped());
  return h;
}

}  // namespace

ChaosResult run_chaos(const ChaosOptions& opts) {
  Prng r(opts.seed);
  ChaosResult res;
  res.seed = opts.seed;

  // --- Plan the task mix ------------------------------------------------------
  std::vector<assembler::Image> images;
  // Task 0 is always the data-integrity oracle: a pattern verifier whose
  // heap sits in the churn zone.
  images.push_back(pattern_verifier_program(
      static_cast<uint16_t>(96 + r.below(160)),
      static_cast<uint16_t>(200 + r.below(600)),
      static_cast<uint8_t>(2 + r.below(3)), static_cast<uint16_t>(opts.seed)));

  const size_t ntasks = 3 + r.below(5);  // 3..7
  for (size_t i = 1; i < ntasks; ++i) {
    switch (r.below(4)) {
      case 0: {
        apps::TreeSearchParams p;
        p.nodes_per_tree = static_cast<uint16_t>(8 + 4 * r.below(5));
        p.trees = static_cast<uint8_t>(1 + r.below(2));
        p.searches = static_cast<uint16_t>(16 + 8 * r.below(5));
        p.seed = static_cast<uint16_t>(r.next());
        images.push_back(apps::tree_search_program(p));
        break;
      }
      case 1:
        images.push_back(deep_recursion_program(
            static_cast<uint16_t>(24 + r.below(48)),
            static_cast<uint8_t>(2 + r.below(5)),
            static_cast<uint16_t>(r.next() & 0x7FFF)));
        break;
      case 2:
        images.push_back(stack_storm_program(
            static_cast<uint16_t>(8 + r.below(24)),
            static_cast<uint16_t>(40 + r.below(120)),
            static_cast<uint16_t>(r.next() & 0x7FFF)));
        break;
      default:
        images.push_back(apps::data_feed_program(
            static_cast<uint16_t>(8 + r.below(40)),
            static_cast<uint16_t>(48 + r.below(128))));
        break;
    }
  }
  // --- Plan the kernel perturbation ------------------------------------------
  sim::RunSpec spec;
  spec.rewrite = opts.rewrite;
  spec.kernel.audit = opts.audit;
  // Starvation-level initial stacks force relocation storms (§IV-C3).
  spec.kernel.initial_stack = static_cast<uint16_t>(24 + r.below(41));
  spec.kernel.min_stack = 24;
  spec.kernel.stack_margin = static_cast<uint16_t>(4 + r.below(9));
  static constexpr uint16_t kTrapIntervals[] = {16, 32, 64, 128, 256};
  spec.kernel.trap_interval = kTrapIntervals[r.below(5)];
  spec.kernel.slice_cycles = 2000 + r.below(8000);
  spec.max_cycles = opts.max_cycles;

  // Supervision dimension (planned before kills so injected kills can
  // target the runaway too). A runaway is planted only under an armed
  // watchdog: nothing else ever terminates it.
  if (opts.recovery) {
    kern::SupervisorConfig& sup = spec.kernel.supervise;
    sup.enabled = r.below(100) < 60;
    sup.max_restarts = static_cast<uint16_t>(1 + r.below(3));
    sup.backoff_cycles = 4'000 + r.below(30'000);
    sup.backoff_cap_exp = 3 + r.below(4);
    sup.healthy_services = 64 + r.below(512);
    // The minimum watchdog budget must exceed any legitimate task's
    // longest service-free stretch; chaos tasks touch memory (a service)
    // every few instructions, so 40k cycles is orders of magnitude clear.
    if (r.below(100) < 50) sup.watchdog_cycles = 40'000 + r.below(120'000);
    res.supervision_planned = sup.enabled;
    res.watchdog_planned = sup.watchdog_cycles > 0;
    if (res.watchdog_planned && r.below(100) < 60) {
      images.push_back(
          runaway_program(static_cast<uint16_t>(opts.seed & 0x7FFF)));
      res.runaway_planned = true;
    }
  }
  res.tasks_planned = images.size();

  if (opts.inject_kills) {
    const size_t nkills = r.below(4);  // 0..3
    std::vector<kern::InjectedKill> kills;
    for (size_t i = 0; i < nkills; ++i)
      kills.push_back(
          {100 + r.below(6'000),
           static_cast<uint8_t>(r.below(uint32_t(images.size())))});
    std::sort(kills.begin(), kills.end(),
              [](const kern::InjectedKill& a, const kern::InjectedKill& b) {
                return a.at_service_call < b.at_service_call;
              });
    spec.kernel.injected_kills = kills;
    res.kills_planned = kills.size();
  }

  // --- Execute ----------------------------------------------------------------
  kern::KernelTrace trace(1 << 16);
  spec.trace = &trace;
  res.run = sim::run_system(images, spec);
  res.trace_hash = hash_trace(trace);
  res.trace_events = trace.events().size();

  // --- Oracles ----------------------------------------------------------------
  for (const std::string& a : res.run.audit_log)
    res.violations.push_back("audit: " + a);
  if (!res.run.invariant_error.empty())
    res.violations.push_back("final invariants: " + res.run.invariant_error);
  if (res.run.stop != emu::StopReason::Halted)
    res.violations.push_back("run did not halt within the cycle budget");
  const uint8_t runaway_id =
      static_cast<uint8_t>(res.tasks_planned ? res.tasks_planned - 1 : 0);
  for (const kern::Task& t : res.run.tasks) {
    const bool is_runaway = res.runaway_planned && t.id == runaway_id;
    if (t.state == kern::TaskState::Killed &&
        t.kill_reason != kern::KillReason::Injected &&
        t.kill_reason != kern::KillReason::OutOfStackMemory &&
        !(is_runaway && t.kill_reason == kern::KillReason::Watchdog)) {
      std::ostringstream e;
      e << "task " << int(t.id) << " killed for " << to_string(t.kill_reason)
        << " (chaos tasks are well-formed; this indicates a kernel bug)";
      res.violations.push_back(e.str());
    }
    // Under supervision a kill is terminal only through quarantine: a task
    // left Killed without the quarantine mark means the supervisor lost it.
    if (res.supervision_planned && t.state == kern::TaskState::Killed &&
        !t.quarantined) {
      std::ostringstream e;
      e << "task " << int(t.id)
        << " terminally killed but never quarantined under supervision";
      res.violations.push_back(e.str());
    }
    if (is_runaway) {
      // The watchdog must contain the runaway: fired at least once, and the
      // task must be dead by the end (quarantined when supervised).
      if (t.watchdog_fires == 0 && t.state != kern::TaskState::Killed)
        res.violations.push_back(
            "runaway task survived with no watchdog fire");
      if (t.state != kern::TaskState::Killed)
        res.violations.push_back("runaway task not terminated");
      else if (res.supervision_planned && !t.quarantined)
        res.violations.push_back("runaway task killed but not quarantined");
    }
  }
  if (!res.run.tasks.empty() &&
      res.run.tasks[0].state == kern::TaskState::Done) {
    for (uint8_t b : res.run.tasks[0].host_out)
      if (b != 0) {
        std::ostringstream e;
        e << "data oracle: " << int(b)
          << " heap bytes corrupted across relocations";
        res.violations.push_back(e.str());
        break;
      }
  }
  return res;
}

std::string ChaosResult::summary() const {
  std::ostringstream os;
  os << "seed " << seed << ": " << tasks_planned << " tasks, "
     << run.kernel_stats.relocations << " relocs, "
     << run.kernel_stats.kills << " kills (" << run.kernel_stats.injected_kills
     << " injected), " << run.kernel_stats.restarts << " restarts, "
     << run.kernel_stats.quarantines << " quarantines, "
     << run.kernel_stats.watchdog_fires << " wd, "
     << run.kernel_stats.audit_checks << " audits, "
     << run.cycles << " cy, trace " << std::hex << trace_hash << std::dec
     << (ok() ? " [ok]" : " [VIOLATION]");
  return os.str();
}

NetChaosResult run_net_chaos(const NetChaosOptions& opts) {
  NetChaosResult res;
  res.seed = opts.seed;

  // --- Plan the scenario ------------------------------------------------------
  // A distinct stream from the kernel-chaos planner so the two sweeps
  // never alias.
  Prng r(opts.seed ^ 0x4E45544348414FULL);  // "NETCHAO"
  net::NetConfig cfg;
  cfg.nodes = 2 + r.below(4);  // 2..5 receivers
  cfg.chaos_seed = opts.seed;
  cfg.max_cycles = opts.max_cycles;
  cfg.link.drop_pct = r.below(21);
  cfg.link.dup_pct = r.below(6);
  cfg.link.reorder_pct = r.below(6);
  cfg.link.corrupt_pct = r.below(6);
  cfg.node_faults.crash_pct = 30 + r.below(71);  // 30..100
  cfg.node_faults.max_crashes_per_node = 1 + r.below(2);
  cfg.node_faults.down_min_bytes = 64 + r.below(128);
  cfg.node_faults.down_max_bytes =
      cfg.node_faults.down_min_bytes + 256 + r.below(768);
  cfg.node_faults.wipe_pct = r.below(51);
  // Mesh dimension: roughly half the seeds run on a spatial topology
  // (line/grid/random placement, DESIGN.md §10), adding CSMA collisions,
  // duplicate suppression, peer chunk serving — and, through the seeded
  // crash/reboot schedule above, parent churn and per-node link flaps
  // (a node down takes all its links down). Both draws are unconditional
  // so the planner stream stays aligned whichever way the roll goes.
  const uint32_t mesh_roll = r.below(2);
  const uint32_t mesh_kind = r.below(3);
  if (mesh_roll) {
    cfg.topo.kind = mesh_kind == 0   ? net::TopologyKind::Line
                    : mesh_kind == 1 ? net::TopologyKind::Grid
                                     : net::TopologyKind::Random;
    // Mesh end-games ride on relayed acks through a contended channel;
    // the convergence oracle requires the base to wait stragglers out.
    cfg.proto.node_give_up_probes = 0;
  }

  // The payload is an arbitrary seeded blob: dissemination is
  // content-agnostic, and the byte-equality oracle needs nothing more.
  std::vector<uint8_t> blob(300 + r.below(1200));
  for (auto& b : blob) b = static_cast<uint8_t>(r.next() & 0xFF);
  res.nodes = cfg.nodes;
  res.blob_bytes = static_cast<uint32_t>(blob.size());

  // Adversarial dimension (DESIGN.md §11): ~1 in 4 seeds converts one
  // receiver slot into a hostile node injecting seeded attack frames, with
  // MAC authentication turned on so forgeries are survivable. The draws
  // are unconditional (appended after every pre-existing draw) so honest
  // seeds plan — and trace — exactly as before this dimension existed.
  const uint32_t adv_roll = r.below(4);
  const uint16_t adv_node = static_cast<uint16_t>(1 + r.below(cfg.nodes));
  const uint32_t adv_intensity = 30 + r.below(51);  // 30..80% of TX slots
  const uint64_t adv_seed = r.next();
  const bool hostile = opts.force_adversary || adv_roll == 0;
  if (hostile) {
    cfg.proto.auth = true;
    cfg.hostile_node = adv_node;
    // The hostile node never completes, so the base must be allowed to
    // give it up — even on a mesh, where honest seeds wait stragglers out.
    if (mesh_roll) cfg.proto.node_give_up_probes = 24;
    res.hostile = true;
    res.hostile_node = adv_node;
  }

  // Lemon-rollout dimension (DESIGN.md §12): ~1 in 3 honest seeds continues
  // past dissemination into a staged wave-by-wave upgrade — the fleet
  // starts on a seeded "old" image, and 1-2 seeded lemon trial behaviors
  // (supervision runaway, crash mid-probation, long wedge) are planted so
  // the health gate, automatic rollback, and the fleet-wide failure budget
  // all get exercised under the same loss/crash schedule. Every draw is
  // unconditional (appended after the adversarial draws), so all
  // pre-existing seed plans — and their golden traces — are untouched.
  const uint32_t ro_roll = r.below(3);
  const uint32_t ro_wave = 1 + r.below(3);          // 1..3 nodes per wave
  const uint32_t ro_budget = r.below(2);            // 0..1 tolerated failures
  const uint64_t ro_probation = 1500 + r.below(3000);  // byte-times
  const uint32_t ro_nlemons = 1 + r.below(2);
  struct LemonPlan {
    uint16_t node = 0;
    uint32_t kind = 0;  // 0 runaway, 1 crash-boot, 2 wedge
    uint32_t at_pct = 0;
    uint32_t sev = 0;
  };
  LemonPlan lemon_plan[2];
  for (LemonPlan& lp : lemon_plan) {
    lp.node = static_cast<uint16_t>(1 + r.below(uint32_t(cfg.nodes)));
    lp.kind = r.below(3);
    lp.at_pct = 20 + r.below(60);
    lp.sev = 1 + r.below(3);
  }
  std::vector<uint8_t> old_image(200 + r.below(400));
  for (auto& b : old_image) b = static_cast<uint8_t>(r.next() & 0xFF);
  const bool rollout = !hostile && ro_roll == 0;
  if (rollout) {
    cfg.rollout.enabled = true;
    cfg.rollout.wave_size = ro_wave;
    cfg.rollout.failure_budget = ro_budget;
    cfg.rollout.probation_bytes = ro_probation;
    // Control/health frames ride authenticated on rollout seeds, so the
    // tag paths run under loss/duplication/corruption too.
    cfg.proto.auth = true;
    // A wiped store loses slot A — the very image the rollback oracle
    // requires the fleet to fall back to — so wipes stay off here.
    cfg.node_faults.wipe_pct = 0;
    res.rollout = true;
    res.rollout_lemons = ro_nlemons;
  }
  auto lemon_behavior = [](const LemonPlan& lp) {
    net::TrialBehavior b;
    b.at_pct = lp.at_pct;
    switch (lp.kind) {
      case 0:
        b.kind = net::TrialBehavior::Kind::Runaway;
        b.restarts = lp.sev;
        b.quarantines = lp.sev;
        b.watchdog_fires = lp.sev > 2 ? 1 : 0;
        break;
      case 1:
        b.kind = net::TrialBehavior::Kind::CrashBoot;
        b.down_bytes = 256 * lp.sev;
        break;
      default:
        b.kind = net::TrialBehavior::Kind::Wedge;
        b.wedge_bytes = 10'000 * lp.sev;
        break;
    }
    return b;
  };

  // --- Execute twice: the second run is the replay oracle ---------------------
  // One run's observable surface, shared between the plain-dissemination
  // and staged-rollout shapes of a seed.
  struct RunView {
    uint64_t digest = 0;
    uint64_t cycles = 0;
    size_t events = 0;
    net::DisseminationResult dissem;
    net::RolloutResult roll;  // valid only on rollout seeds
  };
  bool first_run = true;
  auto one_run = [&] {
    net::NetSim sim(cfg, blob);
    // A fresh attacker per run: its PRNG and replay corpus are part of the
    // deterministic state the replay oracle compares.
    HostileProfile hp;
    hp.seed = adv_seed;
    hp.node = adv_node;
    hp.version = cfg.proto.version;
    hp.nodes = cfg.nodes;
    hp.chunk_payload = cfg.proto.chunk_payload;
    hp.intensity_pct = adv_intensity;
    HostileNode attacker(hp);
    if (hostile) sim.set_hostile_model(&attacker);
    RunView v;
    if (rollout) {
      sim.set_initial_image(old_image, 0);
      for (uint32_t i = 0; i < ro_nlemons; ++i)
        sim.set_trial_behavior(lemon_plan[i].node,
                               lemon_behavior(lemon_plan[i]));
      v.roll = sim.rollout();
      v.dissem = v.roll.dissem;
      v.digest = v.roll.trace_digest;
      v.cycles = v.roll.cycles;
      v.events = v.roll.trace_events;
    } else {
      v.dissem = sim.disseminate();
      v.digest = v.dissem.trace_digest;
      v.cycles = v.dissem.cycles;
      v.events = v.dissem.trace_events;
    }
    if (hostile && first_run) res.hostile_frames = attacker.frames_emitted();
    if (first_run)
      for (size_t id = 1; id <= cfg.nodes; ++id)
        if (!hostile || id != adv_node)
          res.honest_rx_overruns += sim.rx_overruns_up(id);
    // Blob equality is checked inside the closure (NetSim owns the
    // per-node stores), violations recorded on the shared result.
    for (size_t id = 1; id <= cfg.nodes; ++id) {
      if (!sim.node_complete(id)) continue;
      if (sim.node_blob(id) != blob) {
        std::ostringstream e;
        e << "node " << id << " verified an image that differs from the "
          << "base blob (CRC passed on corrupt bytes?)";
        res.violations.push_back(e.str());
      }
    }
    if (rollout && first_run) {
      // Rollout ground truth lives in the persistent stores: whatever the
      // lemons did, a node must end with no trial active and byte-exactly
      // on the old or the new image — never a forgery, never a
      // half-written install — and the base's per-node verdict must match
      // the bytes actually on flash.
      for (size_t id = 1; id <= cfg.nodes; ++id) {
        const emu::ImageStore& st = sim.node_store(id);
        const emu::ImageSlot& act = st.slots[st.active_slot];
        const net::NodeRolloutStats& ns = v.roll.nodes[id];
        std::ostringstream e;
        e << "rollout node " << id << ": ";
        if (st.trial_active) {
          e << "trial left active after termination";
          res.violations.push_back(e.str());
        } else if (act.image != old_image && act.image != blob) {
          e << "active image is neither the old nor the new blob";
          res.violations.push_back(e.str());
        } else if (v.roll.halted) {
          // On a halt every member — including ones confirmed before the
          // budget blew — must have been rolled back to the old image.
          if (ns.member && act.image != old_image) {
            e << "fleet halted but this member kept the new image";
            res.violations.push_back(e.str());
          }
        } else if (ns.confirmed && !ns.rolled_back && act.image != blob) {
          e << "base counted it confirmed but flash holds the old image";
          res.violations.push_back(e.str());
        } else if (ns.rolled_back && !ns.confirmed && act.image != old_image) {
          e << "base saw a rollback but flash holds the new image";
          res.violations.push_back(e.str());
        }
      }
    }
    first_run = false;
    return v;
  };
  const RunView a = one_run();
  const RunView b = one_run();

  res.cycles = a.cycles;
  res.trace_digest = a.digest;
  res.trace_events = a.events;
  if (rollout) {
    res.rollout_waves = a.roll.waves;
    res.rollout_confirmed = a.roll.confirmed;
    res.rollout_rolled_back = a.roll.rolled_back;
    res.rollout_gave_up = a.roll.gave_up;
    res.rollout_halted = a.roll.halted;
  }
  for (const auto& n : a.dissem.nodes) {
    res.crashes += n.crashes;
    res.reboots += n.reboots;
    res.resumed_chunks += n.resumed_chunks;
    res.store_writes += n.store_writes;
    res.auth_rejects += n.auth_rejects;
  }
  res.frames_squelched = a.dissem.base.frames_squelched;

  // --- Oracles ----------------------------------------------------------------
  if (!hostile && !a.dissem.all_acked) {
    std::ostringstream e;
    e << "dissemination did not converge ("
      << (a.dissem.budget_exhausted ? "budget exhausted" : "nodes abandoned")
      << ", " << a.dissem.complete_nodes() << "/" << cfg.nodes << " complete";
    for (const auto& n : a.dissem.nodes)
      if (n.abort_reason != net::NodeAbortReason::None)
        e << ", " << to_string(n.abort_reason);
    e << ")";
    res.violations.push_back(e.str());
  }
  // Only meaningful when dissemination itself converged: rollout() skips
  // the wave phase entirely on a failed transfer (reported just above), so
  // budget_exhausted would double-count that failure as a phantom
  // orchestrator livelock.
  if (rollout && a.dissem.all_acked && a.roll.budget_exhausted) {
    std::ostringstream e;
    e << "rollout exhausted the cycle budget (" << a.roll.confirmed
      << " confirmed, " << a.roll.rolled_back
      << " rolled back — orchestrator livelock?)";
    res.violations.push_back(e.str());
  }
  if (hostile) {
    // Under attack the bar is survival, not full convergence: the hostile
    // slot never completes, and an honest node may be cleanly abandoned.
    // What must never happen: the run livelocking into the cycle budget
    // (the attacker wins by denial forever) or a forged install (caught by
    // the blob-equality check inside one_run, since the forged image can
    // never equal the base blob).
    if (a.dissem.budget_exhausted) {
      std::ostringstream e;
      e << "hostile run exhausted the cycle budget ("
        << a.dissem.complete_nodes() << "/" << cfg.nodes
        << " complete — livelock under attack?)";
      res.violations.push_back(e.str());
    }
  }
  if (a.digest != b.digest || a.cycles != b.cycles || a.events != b.events) {
    std::ostringstream e;
    e << "REPLAY MISMATCH: " << std::hex << a.digest << " vs " << b.digest
      << std::dec;
    res.violations.push_back(e.str());
  }
  return res;
}

std::string NetChaosResult::summary() const {
  std::ostringstream os;
  os << "net seed " << seed << ": " << nodes << " nodes, " << blob_bytes
     << " B, " << crashes << " crashes, " << reboots << " reboots, "
     << resumed_chunks << " resumed, " << store_writes << " writes, ";
  if (hostile)
    os << "hostile @" << hostile_node << " (" << hostile_frames
       << " injected, " << auth_rejects << " mac-rejects, " << frames_squelched
       << " squelched), ";
  if (rollout)
    os << "rollout (" << rollout_lemons << " lemons, " << rollout_waves
       << " waves, " << rollout_confirmed << " confirmed, "
       << rollout_rolled_back << " rolled back, " << rollout_gave_up
       << " gave up" << (rollout_halted ? ", HALTED" : "") << "), ";
  os << cycles << " cy, trace " << std::hex << trace_digest << std::dec
     << (ok() ? " [ok]" : " [VIOLATION]");
  return os.str();
}

int soak_main(int argc, char** argv) {
  uint64_t seeds = 200, start = 1, max_cycles = 300'000'000ULL;
  uint64_t net_seeds = 0, adv_seeds = 0;
  bool single = false, net_single = false, verbose = false;
  uint64_t single_seed = 0, net_single_seed = 0;
  unsigned jobs_req = 1;
  for (int i = 1; i < argc; ++i) {
    auto next_val = [&](const char* flag) -> uint64_t {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return std::strtoull(argv[++i], nullptr, 0);
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds = next_val("--seeds");
    } else if (std::strcmp(argv[i], "--start") == 0) {
      start = next_val("--start");
    } else if (std::strcmp(argv[i], "--chaos-seed") == 0) {
      single = true;
      single_seed = next_val("--chaos-seed");
    } else if (std::strcmp(argv[i], "--net-seeds") == 0) {
      net_seeds = next_val("--net-seeds");
    } else if (std::strcmp(argv[i], "--net-seed") == 0) {
      net_single = true;
      net_single_seed = next_val("--net-seed");
    } else if (std::strcmp(argv[i], "--adv-seeds") == 0) {
      adv_seeds = next_val("--adv-seeds");
    } else if (std::strcmp(argv[i], "--max-cycles") == 0) {
      max_cycles = next_val("--max-cycles");
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs_req = static_cast<unsigned>(next_val("--jobs"));
    } else if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      std::cerr << "usage: chaos_soak [--seeds N] [--start S] "
                   "[--chaos-seed K] [--net-seeds N] [--net-seed K] "
                   "[--adv-seeds N] [--max-cycles C] [--jobs N] [-v]\n";
      return 2;
    }
  }

  ChaosOptions opts;
  opts.max_cycles = max_cycles;

  if (net_single) {
    // Network replay mode: run_net_chaos already replays internally; run
    // the whole planner twice on top for an end-to-end identity check.
    NetChaosOptions no;
    no.seed = net_single_seed;
    const NetChaosResult a = run_net_chaos(no);
    const NetChaosResult b = run_net_chaos(no);
    std::cout << a.summary() << "\n";
    for (const std::string& v : a.violations) std::cout << "  " << v << "\n";
    if (a.trace_digest != b.trace_digest || a.cycles != b.cycles) {
      std::cout << "REPLAY MISMATCH: second run traced " << std::hex
                << b.trace_digest << std::dec << " over " << b.cycles
                << " cy\n";
      return 1;
    }
    std::cout << "replay: identical trace over " << a.trace_events
              << " events\n";
    return a.ok() ? 0 : 1;
  }

  if (single) {
    // Replay mode: run the seed twice and require an identical trace.
    opts.seed = single_seed;
    const ChaosResult a = run_chaos(opts);
    const ChaosResult b = run_chaos(opts);
    std::cout << a.summary() << "\n";
    for (const std::string& v : a.violations) std::cout << "  " << v << "\n";
    if (a.trace_hash != b.trace_hash || a.run.cycles != b.run.cycles) {
      std::cout << "REPLAY MISMATCH: second run traced " << std::hex
                << b.trace_hash << std::dec << " over " << b.run.cycles
                << " cy\n";
      return 1;
    }
    std::cout << "replay: identical trace over " << a.trace_events
              << " events\n";
    return a.ok() ? 0 : 1;
  }

  // Every seed is an independent deterministic run, so the sweep is a
  // parallel map: each item renders its own output lines into a buffer
  // and the main thread prints/aggregates them strictly in seed order.
  // Output and exit code are byte-identical for any --jobs value.
  struct SeedOutcome {
    uint64_t relocs = 0, injected = 0, audits = 0;
    bool violated = false;
    bool replay_mismatch = false;
    std::string lines;
  };
  const unsigned jobs =
      host::effective_jobs(jobs_req, static_cast<std::size_t>(seeds));
  const std::vector<SeedOutcome> outcomes = host::sweep_collect<SeedOutcome>(
      static_cast<std::size_t>(seeds), jobs, [&](std::size_t i) {
        ChaosOptions o = opts;
        o.seed = start + i;  // may wrap; still runs `seeds` runs
        const ChaosResult res = run_chaos(o);
        SeedOutcome out;
        out.relocs = res.run.kernel_stats.relocations;
        out.injected = res.run.kernel_stats.injected_kills;
        out.audits = res.run.kernel_stats.audit_checks;
        std::ostringstream os;
        if (!res.ok()) {
          out.violated = true;
          os << res.summary() << "\n";
          for (const std::string& v : res.violations) os << "  " << v << "\n";
          // The exact command that re-runs just this seed, for debugging.
          os << "  replay: chaos_soak --chaos-seed " << o.seed
             << " --max-cycles " << max_cycles << " -v\n";
        } else if (verbose) {
          os << res.summary() << "\n";
        }
        // Spot-check determinism on a subsample of the sweep.
        if (i % 25 == 0) {
          const ChaosResult again = run_chaos(o);
          if (again.trace_hash != res.trace_hash) {
            out.replay_mismatch = true;
            os << "seed " << o.seed << ": REPLAY MISMATCH\n";
          }
        }
        out.lines = os.str();
        return out;
      });

  uint64_t failures = 0, replay_mismatches = 0;
  uint64_t total_relocs = 0, total_injected = 0, total_audits = 0;
  for (const SeedOutcome& out : outcomes) {
    std::cout << out.lines;
    if (out.violated) ++failures;
    if (out.replay_mismatch) ++replay_mismatches;
    total_relocs += out.relocs;
    total_injected += out.injected;
    total_audits += out.audits;
  }
  if (seeds > 0)
    std::cout << "chaos_soak: " << seeds << " seeds (" << jobs << " job"
              << (jobs == 1 ? "" : "s") << "), " << failures << " violating, "
              << replay_mismatches << " replay mismatches, " << total_relocs
              << " relocations, " << total_injected << " injected kills, "
              << total_audits << " audit checks\n";

  // Network-chaos sweep: same deterministic parallel-map shape, so output
  // is byte-identical for any --jobs value.
  uint64_t net_failures = 0;
  if (net_seeds > 0) {
    struct NetOutcome {
      uint64_t crashes = 0, reboots = 0, resumed = 0;
      bool violated = false;
      std::string lines;
    };
    const unsigned net_jobs =
        host::effective_jobs(jobs_req, static_cast<std::size_t>(net_seeds));
    const std::vector<NetOutcome> net_outcomes =
        host::sweep_collect<NetOutcome>(
            static_cast<std::size_t>(net_seeds), net_jobs,
            [&](std::size_t i) {
              NetChaosOptions o;
              o.seed = start + i;
              const NetChaosResult res = run_net_chaos(o);
              NetOutcome out;
              out.crashes = res.crashes;
              out.reboots = res.reboots;
              out.resumed = res.resumed_chunks;
              std::ostringstream os;
              if (!res.ok()) {
                out.violated = true;
                os << res.summary() << "\n";
                for (const std::string& v : res.violations)
                  os << "  " << v << "\n";
                // The exact single-seed re-run (same planner stream as
                // sweep item i: seeds start at --start).
                os << "  replay: chaos_soak --seeds 0 --net-seeds 1 --start "
                   << o.seed << " -v\n";
              } else if (verbose) {
                os << res.summary() << "\n";
              }
              out.lines = os.str();
              return out;
            });
    uint64_t total_crashes = 0, total_reboots = 0, total_resumed = 0;
    for (const NetOutcome& out : net_outcomes) {
      std::cout << out.lines;
      if (out.violated) ++net_failures;
      total_crashes += out.crashes;
      total_reboots += out.reboots;
      total_resumed += out.resumed;
    }
    std::cout << "net_soak: " << net_seeds << " seeds (" << net_jobs
              << " job" << (net_jobs == 1 ? "" : "s") << "), " << net_failures
              << " violating, " << total_crashes << " crashes, "
              << total_reboots << " reboots, " << total_resumed
              << " chunks resumed\n";
  }

  // Adversarial sweep: network seeds with the hostile dimension forced on
  // (every run hosts an attacker; MAC authentication enabled). Same
  // deterministic parallel-map shape as the honest sweeps.
  uint64_t adv_failures = 0;
  if (adv_seeds > 0) {
    struct AdvOutcome {
      uint64_t injected = 0, rejects = 0, squelched = 0;
      bool violated = false;
      std::string lines;
    };
    const unsigned adv_jobs =
        host::effective_jobs(jobs_req, static_cast<std::size_t>(adv_seeds));
    const std::vector<AdvOutcome> adv_outcomes =
        host::sweep_collect<AdvOutcome>(
            static_cast<std::size_t>(adv_seeds), adv_jobs,
            [&](std::size_t i) {
              NetChaosOptions o;
              o.seed = start + i;
              o.force_adversary = true;
              const NetChaosResult res = run_net_chaos(o);
              AdvOutcome out;
              out.injected = res.hostile_frames;
              out.rejects = res.auth_rejects;
              out.squelched = res.frames_squelched;
              std::ostringstream os;
              if (!res.ok()) {
                out.violated = true;
                os << res.summary() << "\n";
                for (const std::string& v : res.violations)
                  os << "  " << v << "\n";
                os << "  replay: chaos_soak --seeds 0 --adv-seeds 1 --start "
                   << o.seed << " -v\n";
              } else if (verbose) {
                os << res.summary() << "\n";
              }
              out.lines = os.str();
              return out;
            });
    uint64_t total_injected = 0, total_rejects = 0, total_squelched = 0;
    for (const AdvOutcome& out : adv_outcomes) {
      std::cout << out.lines;
      if (out.violated) ++adv_failures;
      total_injected += out.injected;
      total_rejects += out.rejects;
      total_squelched += out.squelched;
    }
    std::cout << "adv_soak: " << adv_seeds << " seeds (" << adv_jobs << " job"
              << (adv_jobs == 1 ? "" : "s") << "), " << adv_failures
              << " violating, " << total_injected << " frames injected, "
              << total_rejects << " mac-rejects, " << total_squelched
              << " squelched\n";
  }
  return (failures == 0 && replay_mismatches == 0 && net_failures == 0 &&
          adv_failures == 0)
             ? 0
             : 1;
}

}  // namespace sensmart::chaos
