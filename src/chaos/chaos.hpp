// The chaos harness: one 64-bit seed deterministically plans a perturbed
// system run — an adversarial task mix, randomized kernel timing
// (trap-interval jitter, slice length), starvation-level stack configs
// that force relocation storms, and scheduled task kills at arbitrary
// service boundaries — then executes it with the kernel auditor enabled
// and reports every invariant or data-integrity violation.
//
// Replay: the same seed with the same binary reproduces the identical
// kernel event trace (compare `trace_hash`), so any violation found by a
// seed sweep can be re-run and debugged with `chaos_soak --chaos-seed N`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/harness.hpp"

namespace sensmart::chaos {

struct ChaosOptions {
  uint64_t seed = 1;
  uint64_t max_cycles = 300'000'000ULL;  // every chaos task is finite
  bool audit = true;                     // kernel auditor on
  bool inject_kills = true;              // scheduled kills at service boundaries
  bool recovery = true;    // supervision/watchdog dimension (DESIGN.md §8):
                           // seeds may enable the task supervisor, arm the
                           // watchdog, and plant a runaway task for it
  rw::RewriteOptions rewrite{};          // rewriter config for the planned mix
};

struct ChaosResult {
  uint64_t seed = 0;
  sim::SystemRun run;
  size_t tasks_planned = 0;
  size_t kills_planned = 0;
  bool supervision_planned = false;  // this seed enabled the supervisor
  bool watchdog_planned = false;     // this seed armed the watchdog
  bool runaway_planned = false;      // last task is the runaway spin loop
  uint64_t trace_hash = 0;   // FNV-1a over the full kernel event trace
  size_t trace_events = 0;

  // Violations, by oracle:
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  // One-line outcome summary for soak logs.
  std::string summary() const;
};

// Plan and execute the run for `opts.seed`.
ChaosResult run_chaos(const ChaosOptions& opts);

// --- Network chaos ----------------------------------------------------------
// One seed plans a whole dissemination under fire: a random receiver count,
// seeded link-fault rates, and a seeded node crash/reboot schedule
// (NodeFaultPolicy), then requires convergence — every node's installed
// blob byte-identical to the base's — and a byte-identical replay.

struct NetChaosOptions {
  uint64_t seed = 1;
  uint64_t max_cycles = 6'000'000'000ULL;
  // Force the adversarial dimension on (normally ~1 in 4 seeds draws a
  // hostile node). Forcing does not shift the planner stream: the
  // adversarial draws are unconditional, this only overrides the roll.
  bool force_adversary = false;
};

struct NetChaosResult {
  uint64_t seed = 0;
  size_t nodes = 0;
  uint32_t blob_bytes = 0;
  uint64_t cycles = 0;
  uint64_t trace_digest = 0;
  size_t trace_events = 0;
  uint32_t crashes = 0;       // node crashes that fired
  uint32_t reboots = 0;
  uint64_t resumed_chunks = 0;  // chunks restored from persistent stores
  uint64_t store_writes = 0;
  // Adversarial dimension (DESIGN.md §11): this seed ran with a hostile
  // node injecting raw attack frames, MAC authentication on.
  bool hostile = false;
  uint16_t hostile_node = 0;
  uint64_t hostile_frames = 0;  // attack frames the hostile node injected
  uint64_t auth_rejects = 0;    // forged images killed at the MAC gate
  uint64_t frames_squelched = 0;  // liveness-flood frames the base ignored
  // Received bytes the honest receivers' radios lost to a full receive
  // buffer while up, in the first run (NetSim::rx_overruns_up; the
  // hostile node's own radio not counted).
  uint64_t honest_rx_overruns = 0;
  // Lemon-rollout dimension (DESIGN.md §12): this seed continued past
  // dissemination into a health-gated staged rollout with 1-2 seeded lemon
  // images (runaway / crash-boot / wedge trials), under authentication.
  bool rollout = false;
  uint32_t rollout_lemons = 0;
  uint32_t rollout_waves = 0;
  uint32_t rollout_confirmed = 0;
  uint32_t rollout_rolled_back = 0;
  uint32_t rollout_gave_up = 0;
  bool rollout_halted = false;  // failure budget exceeded; fleet rolled back

  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

// Plan and execute the network run for `opts.seed` (runs it twice: the
// second run checks deterministic replay of the full event trace).
NetChaosResult run_net_chaos(const NetChaosOptions& opts);

// CLI driver shared by bench/chaos_soak: sweeps seeds or replays one.
//   chaos_soak [--seeds N] [--start S] [--chaos-seed K] [--max-cycles C]
//              [--net-seeds N] [--net-seed K] [--adv-seeds N] [--jobs N] [-v]
// --adv-seeds sweeps N network seeds with the adversarial dimension forced
// on (every seed hosts a hostile node; MAC authentication enabled).
// Returns a process exit code (0 = all seeds clean).
int soak_main(int argc, char** argv);

}  // namespace sensmart::chaos
