// The chaos harness and the kernel auditor: seeded fault-injection runs
// must be violation-free and replay bit-identically; the auditor must
// actually catch corruption (negative control); and move_regions must
// preserve region contents for both slide directions.
#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "emu/machine.hpp"
#include "kernel/kernel.hpp"
#include "rewriter/linker.hpp"
#include "sim/harness.hpp"

namespace sensmart::kern {
// Test peer with access to the kernel's memory-management internals.
struct KernelTestPeer {
  static Task& task(Kernel& k, size_t i) { return k.tasks_[i]; }
  static uint16_t sp(const Kernel& k, const Task& t) { return k.sp_of(t); }
  static std::vector<Kernel::TaskSnapshot> snapshot(const Kernel& k) {
    return k.audit_snapshot();
  }
  static void audit_after(Kernel& k, const char* what,
                          const std::vector<Kernel::TaskSnapshot>& before) {
    k.audit_after(what, before);
  }
  static void move_regions(Kernel& k, Task& donor, Task& to, uint16_t delta) {
    k.move_regions(donor, to, delta);
  }
  static void sample_alloc(Kernel& k) { k.sample_alloc(); }
};
}  // namespace sensmart::kern

namespace sensmart {
namespace {

using assembler::Assembler;
using assembler::Image;
using kern::KernelConfig;
using kern::KernelTestPeer;
using kern::Task;

Image trivial_program(uint16_t heap_bytes) {
  Assembler a("trivial");
  if (heap_bytes) a.var("h", heap_bytes);
  a.halt(0);
  return a.finish();
}

struct World {
  explicit World(const std::vector<Image>& images, KernelConfig cfg = {}) {
    rw::Linker linker;
    for (const auto& img : images) linker.add(img);
    sys = linker.link();
    k = std::make_unique<kern::Kernel>(m, sys, cfg);
  }
  emu::Machine m;
  rw::LinkedSystem sys;
  std::unique_ptr<kern::Kernel> k;
};

// --- Chaos runs --------------------------------------------------------------

TEST(Chaos, SeedMatrixRunsClean) {
  chaos::ChaosOptions opts;
  uint64_t injected = 0, relocations = 0, audits = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    opts.seed = seed;
    const chaos::ChaosResult res = chaos::run_chaos(opts);
    EXPECT_TRUE(res.ok()) << res.summary()
                          << (res.violations.empty()
                                  ? ""
                                  : "\n  " + res.violations.front());
    injected += res.run.kernel_stats.injected_kills;
    relocations += res.run.kernel_stats.relocations;
    audits += res.run.kernel_stats.audit_checks;
  }
  // The matrix must actually exercise the machinery under test.
  EXPECT_GT(injected, 0u);
  EXPECT_GT(relocations, 24u);
  EXPECT_GT(audits, 24u);
}

TEST(Chaos, ReplayIsTraceIdentical) {
  chaos::ChaosOptions opts;
  opts.seed = 7;
  const chaos::ChaosResult a = chaos::run_chaos(opts);
  const chaos::ChaosResult b = chaos::run_chaos(opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  ASSERT_EQ(a.run.tasks.size(), b.run.tasks.size());
  for (size_t i = 0; i < a.run.tasks.size(); ++i) {
    EXPECT_EQ(a.run.tasks[i].state, b.run.tasks[i].state) << i;
    EXPECT_EQ(a.run.tasks[i].host_out, b.run.tasks[i].host_out) << i;
  }
  // The network dimension: run_net_chaos replays each planned fleet
  // (seeded crashes, wipes, reboots) itself and flags any divergence.
  for (uint64_t seed : {7ULL, 19ULL, 23ULL}) {
    chaos::NetChaosOptions net_opts;
    net_opts.seed = seed;
    const chaos::NetChaosResult res = chaos::run_net_chaos(net_opts);
    EXPECT_TRUE(res.ok()) << "net seed " << seed << ": "
                          << (res.violations.empty() ? ""
                                                     : res.violations.front());
  }
}

TEST(Chaos, AuditingChargesNoEmulatedCycles) {
  chaos::ChaosOptions audited;
  audited.seed = 11;
  chaos::ChaosOptions plain = audited;
  plain.audit = false;
  const chaos::ChaosResult a = chaos::run_chaos(audited);
  const chaos::ChaosResult b = chaos::run_chaos(plain);
  EXPECT_GT(a.run.kernel_stats.audit_checks, 0u);
  EXPECT_EQ(b.run.kernel_stats.audit_checks, 0u);
  // Identical timing and identical event trace: the auditor is invisible.
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

// --- Auditor negative controls ----------------------------------------------
// A checker that can never fire is worthless: corrupt state behind the
// auditor's back and require it to notice.

TEST(Auditor, DetectsHeapCorruption) {
  KernelConfig cfg;
  cfg.audit = true;
  World w({trivial_program(32), trivial_program(32)}, cfg);
  ASSERT_EQ(w.k->admit_all(), 2u);
  ASSERT_TRUE(w.k->start());

  const auto before = KernelTestPeer::snapshot(*w.k);
  ASSERT_EQ(before.size(), 2u);
  const Task& t1 = w.k->tasks()[1];
  w.m.mem().set_raw(t1.p_l, static_cast<uint8_t>(w.m.mem().raw(t1.p_l) ^ 0xFF));
  KernelTestPeer::audit_after(*w.k, "test", before);

  EXPECT_EQ(w.k->stats().audit_failures, 1u);
  ASSERT_EQ(w.k->audit_log().size(), 1u);
  EXPECT_NE(w.k->audit_log()[0].find("heap byte"), std::string::npos)
      << w.k->audit_log()[0];
}

TEST(Auditor, DetectsRegionInvariantViolation) {
  KernelConfig cfg;
  cfg.audit = true;
  World w({trivial_program(16), trivial_program(16)}, cfg);
  ASSERT_EQ(w.k->admit_all(), 2u);
  ASSERT_TRUE(w.k->start());

  const auto before = KernelTestPeer::snapshot(*w.k);
  KernelTestPeer::task(*w.k, 1).p_l += 1;  // break the contiguous tiling
  KernelTestPeer::audit_after(*w.k, "test", before);

  EXPECT_GE(w.k->stats().audit_failures, 1u);
  ASSERT_FALSE(w.k->audit_log().empty());
  EXPECT_NE(w.k->audit_log()[0].find("region gap"), std::string::npos)
      << w.k->audit_log()[0];
}

// --- move_regions content preservation (property) ----------------------------

class RelocationContents : public ::testing::Test {
 protected:
  void SetUp() override {
    KernelConfig cfg;
    cfg.audit = true;  // the auditor double-checks every move we make
    w = std::make_unique<World>(
        std::vector<Image>{trivial_program(48), trivial_program(64),
                           trivial_program(32)},
        cfg);
    ASSERT_EQ(w->k->admit_all(), 3u);
    ASSERT_TRUE(w->k->start());

    auto& mem = w->m.mem();
    for (size_t i = 0; i < 3; ++i) {
      Task& t = KernelTestPeer::task(*w->k, i);
      for (uint16_t a = t.p_l; a < t.p_h; ++a)
        mem.set_raw(a, static_cast<uint8_t>(0x20 + 0x30 * i + a * 31));
      // Give every task a non-empty live stack (8 patterned bytes). Task 0
      // is Running, so its SP lives in the machine.
      uint16_t sp = KernelTestPeer::sp(*w->k, t);
      for (int j = 0; j < 8; ++j)
        mem.set_raw(static_cast<uint16_t>(sp - j),
                    static_cast<uint8_t>(0xA0 + 0x11 * i + j));
      if (i == 0)
        mem.set_sp(static_cast<uint16_t>(sp - 8));
      else
        t.sp = static_cast<uint16_t>(sp - 8);
      expected_heap[i] = bytes(t.p_l, t.p_h);
      expected_stack[i] = stack_bytes(t);
    }
    ASSERT_TRUE(w->k->check_invariants().empty()) << w->k->check_invariants();
  }

  std::vector<uint8_t> bytes(uint16_t lo, uint16_t hi) const {
    std::vector<uint8_t> v;
    for (uint16_t a = lo; a < hi; ++a) v.push_back(w->m.mem().raw(a));
    return v;
  }
  std::vector<uint8_t> stack_bytes(const Task& t) const {
    return bytes(static_cast<uint16_t>(KernelTestPeer::sp(*w->k, t) + 1),
                 t.p_u);
  }

  void expect_contents_preserved(const char* ctx) {
    EXPECT_TRUE(w->k->check_invariants().empty())
        << ctx << ": " << w->k->check_invariants();
    for (size_t i = 0; i < 3; ++i) {
      const Task& t = KernelTestPeer::task(*w->k, i);
      EXPECT_EQ(bytes(t.p_l, t.p_h), expected_heap[i]) << ctx << " task " << i;
      EXPECT_EQ(stack_bytes(t), expected_stack[i]) << ctx << " task " << i;
    }
    EXPECT_EQ(w->k->stats().audit_failures, 0u)
        << ctx << ": " << (w->k->audit_log().empty() ? "" : w->k->audit_log()[0]);
  }

  std::unique_ptr<World> w;
  std::vector<uint8_t> expected_heap[3], expected_stack[3];
};

TEST_F(RelocationContents, DonorAboveSlidesIntermediatesUpIntact) {
  // Task 2 (top, holds the leftover) donates to task 0: everything in
  // between — task 1 and task 0's region top — slides upward.
  KernelTestPeer::move_regions(*w->k, KernelTestPeer::task(*w->k, 2),
                               KernelTestPeer::task(*w->k, 0), 16);
  expect_contents_preserved("donor-above");
}

TEST_F(RelocationContents, DonorBelowSlidesIntermediatesDownIntact) {
  // Task 0 (bottom) donates to task 2: the intermediate region slides down.
  KernelTestPeer::move_regions(*w->k, KernelTestPeer::task(*w->k, 0),
                               KernelTestPeer::task(*w->k, 2), 16);
  expect_contents_preserved("donor-below");
}

TEST_F(RelocationContents, RoundTripRestoresLayout) {
  Task& t0 = KernelTestPeer::task(*w->k, 0);
  Task& t2 = KernelTestPeer::task(*w->k, 2);
  const uint16_t p_l0 = t0.p_l, p_u0 = t0.p_u;
  KernelTestPeer::move_regions(*w->k, t2, t0, 24);
  KernelTestPeer::move_regions(*w->k, t0, t2, 24);
  expect_contents_preserved("round-trip");
  EXPECT_EQ(t0.p_l, p_l0);
  EXPECT_EQ(t0.p_u, p_u0);
}

// --- Exact average stack allocation (regression) -----------------------------
// Hand-computed trace: three 100-byte-heap tasks under the default config
// get stack allocations 128, 128 and 3124 bytes (the last task takes the
// leftover), a total of 3380 bytes over 3 tasks. The time-average must be
// the exact ratio 3380/3 ≈ 1126.67 — the per-sample integer division of
// the old accumulator floored it to 1126.
TEST(Metrics, AvgStackAllocIsTheExactRatio) {
  World w({trivial_program(100), trivial_program(100), trivial_program(100)});
  ASSERT_EQ(w.k->admit_all(), 3u);
  ASSERT_TRUE(w.k->start());
  const auto& ts = w.k->tasks();
  ASSERT_EQ(ts[0].stack_alloc(), 128u);
  ASSERT_EQ(ts[1].stack_alloc(), 128u);
  ASSERT_EQ(ts[2].stack_alloc(), 3124u);

  w.m.charge(1000);
  KernelTestPeer::sample_alloc(*w.k);
  EXPECT_NEAR(w.k->avg_stack_alloc(), 3380.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace sensmart
