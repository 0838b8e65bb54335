// Pinned network-chaos runs: every run_net_chaos seed of the golden
// table must stay violation-free and reproduce its recorded cycle count
// and trace digest exactly. The per-seed `[ok]` oracles alone do not
// notice a refactor that shifts a crash/reboot, relay or Nack decision;
// the digest does. Regenerate the table only for an intentional protocol
// change (bench/update_golden.cpp documents the policy).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "chaos/chaos.hpp"
#include "host/parallel.hpp"

namespace sensmart {
namespace {

struct GoldenSeed {
  uint64_t seed;
  uint64_t cycles;
  uint64_t trace_hash;
};

#include "golden_traces.inc"

void expect_net_table(std::span<const GoldenSeed> rows, bool force_adversary) {
  const auto got = host::sweep_collect<chaos::NetChaosResult>(
      rows.size(), host::effective_jobs(4, rows.size()), [&](std::size_t i) {
        chaos::NetChaosOptions opts;
        opts.seed = rows[i].seed;
        opts.force_adversary = force_adversary;
        return chaos::run_net_chaos(opts);
      });
  for (size_t i = 0; i < rows.size(); ++i) {
    const chaos::NetChaosResult& r = got[i];
    const char* what = force_adversary ? "adversarial net seed " : "net seed ";
    EXPECT_TRUE(r.ok()) << what << rows[i].seed << ": " << r.summary();
    EXPECT_EQ(r.cycles, rows[i].cycles) << what << rows[i].seed;
    EXPECT_EQ(r.trace_digest, rows[i].trace_hash)
        << what << rows[i].seed << " digest 0x" << std::hex << r.trace_digest;
  }
}

TEST(NetDeterminism, NetChaosGoldenDigests) {
  expect_net_table(kNetGolden, false);
  expect_net_table(kNetGoldenAdversarial, true);
}

}  // namespace
}  // namespace sensmart
