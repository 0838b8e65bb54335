// Kernel units: logical addressing, region layout, admission, stack
// relocation integrity, SP virtualization, reserved-port virtualization,
// scheduling behaviour and fault containment.
#include <gtest/gtest.h>

#include "apps/treesearch.hpp"
#include "assembler/assembler.hpp"
#include "baselines/native_runner.hpp"
#include "emu/machine.hpp"
#include "kernel/kernel.hpp"
#include "rewriter/linker.hpp"
#include "sim/harness.hpp"

namespace sensmart::kern {
namespace {

using assembler::Assembler;
using assembler::Image;

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
    k = std::make_unique<Kernel>(m, sys, cfg);
  }
  emu::Machine m;
  rw::LinkedSystem sys;
  std::unique_ptr<Kernel> k;
};

// --- Layout and admission ----------------------------------------------------

TEST(Layout, RegionsTileTheApplicationArea) {
  World w({trivial_program(100), trivial_program(200), trivial_program(50)});
  ASSERT_EQ(w.k->admit_all(), 3u);
  ASSERT_TRUE(w.k->start());
  EXPECT_TRUE(w.k->check_invariants().empty()) << w.k->check_invariants();

  const auto& ts = w.k->tasks();
  EXPECT_EQ(ts[0].p_l, emu::kSramBase);
  EXPECT_EQ(ts[0].p_h, emu::kSramBase + 100);
  EXPECT_EQ(ts[1].p_l, ts[0].p_u);
  EXPECT_EQ(ts[2].p_u, w.k->app_area_end());  // leftover goes to the last
  // Initial stacks: the first two get the configured initial size.
  const KernelConfig cfg;
  EXPECT_EQ(ts[0].stack_alloc(), cfg.initial_stack);
  EXPECT_GE(ts[2].stack_alloc(), cfg.initial_stack);
}

TEST(Layout, AdmissionRefusedWhenHeapsDoNotFit) {
  World w({trivial_program(2000), trivial_program(2000)});
  EXPECT_TRUE(w.k->admit(0).has_value());
  EXPECT_FALSE(w.k->admit(1).has_value());  // 4000 B of heap cannot fit
}

TEST(Layout, StartFailsWithNoTasks) {
  World w({trivial_program(0)});
  EXPECT_FALSE(w.k->start());
}

TEST(Layout, InitialStackShrinksUnderPressureButNotBelowMinimum) {
  KernelConfig cfg;
  cfg.initial_stack = 1000;  // more than fits for 4 tasks
  World w({trivial_program(400), trivial_program(400), trivial_program(400),
           trivial_program(400)},
          cfg);
  ASSERT_EQ(w.k->admit_all(), 4u);
  ASSERT_TRUE(w.k->start());
  for (const auto& t : w.k->tasks()) {
    EXPECT_GE(t.stack_alloc(), cfg.min_stack);
    EXPECT_LT(t.stack_alloc(), 1000);
  }
  EXPECT_TRUE(w.k->check_invariants().empty());
}

// --- SP virtualization ----------------------------------------------------------

TEST(StackPointer, ReadsAreLogical) {
  // The task reads SPL/SPH right after start; it must see the top of the
  // logical space (0x10FF), not its physical region.
  Assembler a("sp");
  a.in(16, emu::kSpl);
  a.in(17, emu::kSph);
  a.sts(emu::kHostOut, 16);
  a.sts(emu::kHostOut, 17);
  a.halt(0);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  const auto& out = w.k->tasks()[0].host_out;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0] | (out[1] << 8), emu::kDataEnd - 1);
}

TEST(StackPointer, WriteRoundtripsThroughLogicalSpace) {
  // Set SP to logical 0x10F0, push/pop, read it back.
  Assembler a("spw");
  a.ldi(16, 0xF0);
  a.ldi(17, 0x10);
  a.out(emu::kSpl, 16);
  a.out(emu::kSph, 17);
  a.ldi(18, 0x5A);
  a.push(18);
  a.pop(19);
  a.in(20, emu::kSpl);
  a.in(21, emu::kSph);
  a.sts(emu::kHostOut, 19);
  a.sts(emu::kHostOut, 20);
  a.sts(emu::kHostOut, 21);
  a.halt(0);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  const auto& out = w.k->tasks()[0].host_out;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 0x5A);
  EXPECT_EQ(out[1] | (out[2] << 8), 0x10F0);
}

TEST(StackPointer, SettingSpIntoHeapGrowsOrKills) {
  // A task demanding a deeper stack than physically possible is killed
  // with OutOfStackMemory rather than corrupting anyone.
  Assembler a("deep");
  a.ldi(16, 0x00);
  a.ldi(17, 0x02);  // logical 0x0200: a ~3.8 KB stack demand
  a.out(emu::kSph, 17);
  a.out(emu::kSpl, 16);
  a.halt(0);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed);
  EXPECT_TRUE(w.k->tasks()[0].kill_reason == KillReason::OutOfStackMemory ||
              w.k->tasks()[0].kill_reason == KillReason::InvalidAccess);
  EXPECT_EQ(w.k->tasks()[1].state, TaskState::Done);
}

// --- Reserved-port virtualization ------------------------------------------------

TEST(ReservedPorts, Timer3ReadLatchesPerTask) {
  Assembler a("t3");
  a.lds(16, emu::kTcnt3L);  // latches the high byte
  a.lds(17, emu::kTcnt3H);
  a.sts(emu::kHostOut, 16);
  a.sts(emu::kHostOut, 17);
  a.halt(0);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  const auto& out = w.k->tasks()[0].host_out;
  ASSERT_EQ(out.size(), 2u);
  // System init is 5738 cycles = 22 ticks; the read happens shortly after.
  const int ticks = out[0] | (out[1] << 8);
  EXPECT_GE(ticks, 22);
  EXPECT_LE(ticks, 40);
}

TEST(ReservedPorts, HostOutIsPerTask) {
  Assembler a("w1");
  a.ldi(16, 0x11);
  a.sts(emu::kHostOut, 16);
  a.halt(0);
  Assembler b("w2");
  b.ldi(16, 0x22);
  b.sts(emu::kHostOut, 16);
  b.halt(0);
  World w({a.finish(), b.finish()});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].host_out, std::vector<uint8_t>{0x11});
  EXPECT_EQ(w.k->tasks()[1].host_out, std::vector<uint8_t>{0x22});
  // Nothing leaked to the machine-level host port.
  EXPECT_TRUE(w.m.dev().host_out().empty());
}

TEST(ReservedPorts, IndirectAccessIsVirtualizedToo) {
  // Writing the halt port through a pointer must terminate only the task.
  Assembler a("ind");
  a.ldi16(26, emu::kHostHalt);
  a.ldi(16, 9);
  a.st_x(16);
  a.label("spin");
  a.rjmp("spin");
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Done);
  EXPECT_EQ(w.k->tasks()[0].exit_code, 9);
}

// --- Fault containment ------------------------------------------------------------

TEST(Faults, StackUnderflowIsCaught) {
  Assembler a("uf");
  a.pop(16);  // empty stack
  a.halt(0);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed);
  EXPECT_EQ(w.k->tasks()[0].kill_reason, KillReason::InvalidAccess);
}

TEST(Faults, ReturnWithEmptyStackIsCaught) {
  Assembler a("retuf");
  a.ret();
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed);
}

TEST(Faults, SmashedReturnAddressIsCaught) {
  // Push a garbage return address and RET into it.
  Assembler a("smash");
  a.ldi(16, 0xFF);
  a.push(16);
  a.push(16);  // return address 0xFFFF: outside the program
  a.ret();
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed);
  EXPECT_EQ(w.k->tasks()[0].kill_reason, KillReason::BadJump);
}

TEST(Faults, IndirectJumpOutsideProgramIsCaught) {
  Assembler a("badijmp");
  a.ldi16(30, 0x7FFF);
  a.ijmp();
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed);
  EXPECT_EQ(w.k->tasks()[0].kill_reason, KillReason::BadJump);
}

// CALL and RCALL targets are bounded like ICALL's: an original target at
// or past the program's end kills the task instead of leaving its code
// (into the next program, the trampolines or unprogrammed flash).
void expect_call_caught(const isa::Instruction& call, const char* what) {
  Assembler a("badcall");
  a.emit(call);
  a.halt(1);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted) << what;
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed) << what;
  EXPECT_EQ(w.k->tasks()[0].kill_reason, KillReason::BadJump) << what;
  EXPECT_EQ(w.k->tasks()[1].state, TaskState::Done) << what;
}

isa::Instruction call_to(isa::Op op, int32_t k) {
  isa::Instruction i;
  i.op = op;
  i.k = k;
  return i;
}

TEST(Faults, CallOutsideProgramIsCaught) {
  // The program is CALL (2 words) + halt (LDI + STS, 3 words): 5 words.
  expect_call_caught(call_to(isa::Op::Call, 0x3FFFFF), "CALL 0x3FFFFF");
  expect_call_caught(call_to(isa::Op::Call, 5), "CALL one past the end");
}

TEST(Faults, RelativeCallOutsideProgramIsCaught) {
  // RCALL k lands on 1 + k: the 4-word program ends at 4, and -2 lands
  // before its first word.
  expect_call_caught(call_to(isa::Op::Rcall, 3), "RCALL one past the end");
  expect_call_caught(call_to(isa::Op::Rcall, 1000), "RCALL far past the end");
  expect_call_caught(call_to(isa::Op::Rcall, -2), "RCALL before the start");
}

TEST(Faults, CallToTheLastWordIsNotCaught) {
  // The bound is exact: a CALL to the program's last instruction (the
  // STS at word 3 of 5) runs, skipping the LDI, so the task exits with 0.
  Assembler a("lastcall");
  a.emit(call_to(isa::Op::Call, 3));
  a.ldi(16, 7);
  a.sts(emu::kHostHalt, 16);
  World w({a.finish()});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(1'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Done);
  EXPECT_EQ(w.k->tasks()[0].exit_code, 0);
}

// Regression: a grouped-access window whose start address wraps past
// 0xFFFF (base + group_min > 0xFFFF) used to be truncated back into low
// memory, alias the I/O page, and pass the leader's window validation.
TEST(Faults, WrappedGroupWindowIsRejected) {
  Assembler a("wrapwin");
  a.var("pad", 8);
  a.ldi16(28, 0xFFF0);  // Y far outside the logical data space
  a.ldd_y(16, 0x20);    // grouped pair; window start 0x10010 wraps
  a.ldd_y(17, 0x24);
  a.sts(emu::kHostOut, 16);
  a.halt(0);
  const auto r = sim::run_system({a.finish()});
  ASSERT_EQ(r.stop, emu::StopReason::Halted);
  EXPECT_EQ(r.tasks[0].state, TaskState::Killed);
  EXPECT_EQ(r.tasks[0].kill_reason, KillReason::InvalidAccess);
}

// Companion: a grouped window legitimately near the top of the logical
// stack must still validate (the wrap rejection must not over-reject).
TEST(Faults, GroupWindowNearTopOfLogicalStackIsAccepted) {
  Assembler a("topwin");
  a.ldi16(28, 0x10E0);  // inside the logical stack, near 0x10FF
  a.ldd_y(16, 0x04);
  a.ldd_y(17, 0x08);
  a.sts(emu::kHostOut, 16);
  a.halt(0);
  const auto r = sim::run_system({a.finish()});
  ASSERT_EQ(r.stop, emu::StopReason::Halted);
  EXPECT_EQ(r.tasks[0].state, TaskState::Done);
}

TEST(Faults, InfiniteRecursionKillsOnlyTheRecurser) {
  Assembler a("rec");
  a.label("f");
  a.push(16);
  a.rcall("f");
  a.ret();
  Assembler ok("ok");
  ok.ldi(16, 1);
  ok.sts(emu::kHostOut, 16);
  ok.halt(0);
  World w({a.finish(), ok.finish()});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(50'000'000), emu::StopReason::Halted);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Killed);
  EXPECT_EQ(w.k->tasks()[0].kill_reason, KillReason::OutOfStackMemory);
  EXPECT_EQ(w.k->tasks()[1].state, TaskState::Done);
  EXPECT_GT(w.k->stats().relocations, 0u);  // it grew before it died
  EXPECT_TRUE(w.k->check_invariants().empty()) << w.k->check_invariants();
}

TEST(Faults, HeapOfOtherTasksSurvivesRelocationStorm) {
  // Task A fills its heap with a pattern, sleeps, re-verifies byte by
  // byte after the recursive tasks have forced relocations around it.
  Assembler a("verify");
  const uint16_t pat = a.var("pat", 200);
  // fill
  a.ldi16(26, pat);
  a.ldi(17, 200);
  a.ldi(16, 13);
  a.label("fill");
  a.st_x_inc(16);
  a.subi(16, 0x95);
  a.dec(17);
  a.brne("fill");
  // sleep ~20 ms to let the neighbours churn
  a.lds(24, emu::kTcnt3L);
  a.lds(25, emu::kTcnt3H);
  a.ldi16(18, 600);
  a.add(24, 18);
  a.adc(25, 19);
  a.sts(emu::kSleepTargetL, 24);
  a.sts(emu::kSleepTargetH, 25);
  a.sleep();
  // verify
  a.ldi16(26, pat);
  a.ldi(17, 200);
  a.ldi(16, 13);
  a.ldi(20, 0);  // error count
  a.label("chk");
  a.ld_x_inc(18);
  a.cp(18, 16);
  a.breq("okb");
  a.inc(20);
  a.label("okb");
  a.subi(16, 0x95);
  a.dec(17);
  a.brne("chk");
  a.sts(emu::kHostOut, 20);
  a.halt(0);

  std::vector<Image> images;
  images.push_back(a.finish());
  for (int i = 0; i < 3; ++i) {
    apps::TreeSearchParams p;
    p.nodes_per_tree = 20;
    p.trees = 2;
    p.searches = 48;
    p.seed = uint16_t(0x7717 + i);
    images.push_back(apps::tree_search_program(p));
  }
  sim::RunSpec spec;
  spec.kernel.initial_stack = 48;
  const auto r = sim::run_system(images, spec);
  ASSERT_EQ(r.stop, emu::StopReason::Halted);
  EXPECT_GT(r.kernel_stats.relocations, 0u);
  ASSERT_EQ(r.tasks[0].state, TaskState::Done);
  ASSERT_EQ(r.tasks[0].host_out.size(), 1u);
  EXPECT_EQ(r.tasks[0].host_out[0], 0) << "heap bytes corrupted";
}

// --- Scheduling -------------------------------------------------------------------

TEST(Scheduling, RoundRobinSharesCpuFairly) {
  auto spin = [](const char* name) {
    Assembler a(name);
    a.label("x");
    a.nop();
    a.rjmp("x");
    return a.finish();
  };
  World w({spin("s1"), spin("s2"), spin("s3")});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(30'000'000), emu::StopReason::CycleLimit);
  const auto& ts = w.k->tasks();
  const double total = double(ts[0].cpu_cycles + ts[1].cpu_cycles +
                              ts[2].cpu_cycles);
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(double(ts[i].cpu_cycles) / total, 1.0 / 3, 0.05) << i;
  EXPECT_GT(w.k->stats().context_switches, 100u);
}

TEST(Scheduling, BlockedTasksDoNotBurnCpu) {
  // One sleeper + one spinner: the sleeper's cpu share must be tiny.
  Assembler sl("sleeper");
  sl.ldi16(20, 20);
  sl.label("loop");
  sl.lds(24, emu::kTcnt3L);
  sl.lds(25, emu::kTcnt3H);
  sl.ldi16(18, 100);
  sl.add(24, 18);
  sl.adc(25, 19);
  sl.sts(emu::kSleepTargetL, 24);
  sl.sts(emu::kSleepTargetH, 25);
  sl.sleep();
  sl.dec16(20);
  sl.brne("loop");
  sl.halt(0);

  Assembler sp("spinner");
  sp.label("x");
  sp.nop();
  sp.rjmp("x");

  World w({sl.finish(), sp.finish()});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(20'000'000), emu::StopReason::CycleLimit);
  EXPECT_EQ(w.k->tasks()[0].state, TaskState::Done);
  EXPECT_LT(double(w.k->tasks()[0].cpu_cycles),
            0.05 * double(w.k->tasks()[1].cpu_cycles));
}

TEST(Scheduling, AllBlockedFastForwardsIdleTime) {
  Assembler sl("idlewait");
  sl.lds(24, emu::kTcnt3L);
  sl.lds(25, emu::kTcnt3H);
  sl.ldi16(18, 2880);  // 100 ms
  sl.add(24, 18);
  sl.adc(25, 19);
  sl.sts(emu::kSleepTargetL, 24);
  sl.sts(emu::kSleepTargetH, 25);
  sl.sleep();
  sl.halt(0);
  World w({sl.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(10'000'000), emu::StopReason::Halted);
  EXPECT_GT(w.k->stats().idle_cycles, 500'000u);
}

TEST(Scheduling, TrapStatisticsArePlausible) {
  Assembler a("loopy");
  a.ldi16(20, 10000);
  a.label("l");
  a.dec16(20);
  a.brne("l");
  a.halt(0);
  World w({a.finish(), trivial_program(8)});
  w.k->admit_all();
  ASSERT_TRUE(w.k->start());
  ASSERT_EQ(w.k->run(50'000'000), emu::StopReason::Halted);
  // 10000 backward branches taken (9999 + loop entry edge effects).
  EXPECT_NEAR(double(w.k->stats().traps), 10000.0, 10.0);
  // One counter wrap every trap_interval traps.
  const auto expected_checks =
      w.k->stats().traps / w.k->config().trap_interval;
  EXPECT_NEAR(double(w.k->stats().trap_checks), double(expected_checks), 2.0);
}

}  // namespace
}  // namespace sensmart::kern
