// The flattened kernel trap path (DESIGN.md §6c): collapsed stack runs
// checked once and still relocating or faulting at the exact member that
// separate services would, relays entered from a return address the
// link-time site table never saw, and the typed FNV-1a step behind the
// fleet trace digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "assembler/assembler.hpp"
#include "emu/io_map.hpp"
#include "emu/machine.hpp"
#include "kernel/kernel.hpp"
#include "kernel/trace.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

namespace sensmart {
namespace {

using assembler::Assembler;
using assembler::Image;
using isa::Op;

isa::Instruction rjmp_k(int32_t k) {
  isa::Instruction i;
  i.op = Op::Rjmp;
  i.k = k;
  return i;
}

// A task that exits at once; it donates stack space until it runs.
Image donor_program() {
  Assembler a("donor");
  a.halt(0);
  return a.finish();
}

// What a stack run leaves behind that the task can observe: registers,
// SP, each live task's heap and live stack bytes, region bounds, and the
// relocation and exit events. Event cycle stamps are left out (the
// collapsed run charges fewer cycles), and so are the bytes below SP,
// where every trampoline CALL writes its return address: fewer traps
// leave different dead bytes there.
struct RunState {
  std::vector<std::tuple<kern::EventKind, uint16_t, uint16_t>> events;
  std::vector<uint8_t> regs;
  uint16_t sp = 0;
  std::vector<std::vector<uint8_t>> live;  // per live task: heap + stack
  struct TaskEnd {
    kern::TaskState state;
    kern::KillReason why;
    uint16_t p_l, p_h, p_u, peak, final_alloc;
    std::vector<uint8_t> host_out;
    bool operator==(const TaskEnd&) const = default;
  };
  std::vector<TaskEnd> tasks;
  uint32_t relocations = 0;
  uint64_t reloc_bytes = 0;
  uint64_t run_members = 0;
};

// Run `progs` (32-byte initial stacks) for up to `budget` cycles.
RunState run_state(const std::vector<Image>& progs, bool collapse,
                   uint64_t budget) {
  rw::RewriteOptions opts;
  opts.collapse_stack_checks = collapse;
  rw::Linker linker(opts);
  for (const Image& img : progs) linker.add(img);
  const rw::LinkedSystem sys = linker.link();
  emu::Machine m;
  kern::KernelConfig cfg;
  cfg.initial_stack = 32;
  kern::Kernel k(m, sys, cfg);
  kern::KernelTrace trace;
  k.set_trace(&trace);
  EXPECT_EQ(k.admit_all(), progs.size());
  EXPECT_TRUE(k.start());
  k.run(budget);

  RunState s;
  for (const kern::TraceEvent& e : trace.events()) {
    if (e.kind == kern::EventKind::Relocation ||
        e.kind == kern::EventKind::RegionRelease ||
        e.kind == kern::EventKind::TaskDone ||
        e.kind == kern::EventKind::TaskKilled)
      s.events.emplace_back(e.kind, e.a, e.b);
  }
  for (uint8_t r = 0; r < 32; ++r) s.regs.push_back(m.mem().reg(r));
  s.sp = m.mem().sp();
  for (const kern::Task& t : k.tasks()) {
    s.tasks.push_back({t.state, t.kill_reason, t.p_l, t.p_h, t.p_u,
                       t.peak_stack_used, t.final_stack_alloc, t.host_out});
    if (!t.live()) continue;
    const uint16_t sp =
        t.state == kern::TaskState::Running ? m.mem().sp() : t.sp;
    std::vector<uint8_t> bytes;
    for (uint32_t a = t.p_l; a < t.p_h; ++a)
      bytes.push_back(m.mem().raw(static_cast<uint16_t>(a)));
    for (uint32_t a = sp + 1u; a < t.p_u; ++a)
      bytes.push_back(m.mem().raw(static_cast<uint16_t>(a)));
    s.live.push_back(std::move(bytes));
  }
  s.relocations = k.stats().relocations;
  s.reloc_bytes = k.stats().reloc_bytes_moved;
  s.run_members = k.stats().stack_run_members;
  return s;
}

void expect_same_state(const RunState& on, const RunState& off) {
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(on.regs, off.regs);
  EXPECT_EQ(on.sp, off.sp);
  EXPECT_EQ(on.live, off.live);
  EXPECT_EQ(on.tasks, off.tasks);
  EXPECT_EQ(on.relocations, off.relocations);
  EXPECT_EQ(on.reloc_bytes, off.reloc_bytes);
}

// A four-push run whose member `first` (0-based) is the first to reach the
// red zone. With a 32-byte stack and the default 8-byte margin, a push at
// SP needs SP - p_h >= 8; after `pre` single pushes the run's member i
// sees 31 - pre - i, so pre = 24 - first puts member `first` at 7. The
// logical SP after the run goes out through the host port; then the task
// sleeps until tick 0 comes round again (~16 M cycles), so its stack stays
// live, and its context exactly saved, while the donor exits.
Image push_run_program(int first) {
  Assembler a("pushrun");
  a.ldi(20, static_cast<uint8_t>(24 - first));
  a.ldi(21, 0x5A);
  a.label("fill");
  a.push(21);
  a.dec(20);
  a.brne("fill");
  a.ldi(16, 0xA1);
  a.ldi(17, 0xB2);
  a.ldi(18, 0xC3);
  a.ldi(19, 0xD4);
  a.push(16);
  a.push(17);
  a.push(18);
  a.push(19);
  a.in(24, emu::kSpl);
  a.in(25, emu::kSph);
  a.sts(emu::kHostOut, 24);
  a.sts(emu::kHostOut, 25);
  a.ldi(22, 0);
  a.sts(emu::kSleepTargetL, 22);
  a.sts(emu::kSleepTargetH, 22);
  a.sleep();
  a.halt(0);
  return a.finish();
}

TEST(StackRun, PushRunRelocatesAtTheFirstMemberInTheRedZone) {
  for (const int first : {1, 2, 3}) {
    SCOPED_TRACE(first);
    const std::vector<Image> progs = {push_run_program(first),
                                      donor_program()};
    const RunState on = run_state(progs, true, 1'000'000);
    const RunState off = run_state(progs, false, 1'000'000);
    EXPECT_EQ(on.run_members, 3u);  // the run was collapsed
    EXPECT_EQ(off.run_members, 0u);
    // The push's relocation, then the donor's region release.
    EXPECT_EQ(on.relocations, 2u);
    ASSERT_EQ(on.tasks.size(), 2u);
    EXPECT_EQ(on.tasks[0].state, kern::TaskState::Running);
    EXPECT_EQ(on.tasks[0].host_out.size(), 2u);
    EXPECT_EQ(on.tasks[1].state, kern::TaskState::Done);
    ASSERT_EQ(on.live.size(), 1u);
    EXPECT_EQ(on.live[0].size(), size_t(28 - first));  // fills + the run
    expect_same_state(on, off);
  }
}

// `pushes` single pushes, then a run of pushes + 1 pops: the run's last
// member pops past the stack bottom. The task runs alone, so the machine
// stops at the kill with the popped registers and SP still in place.
Image pop_run_program(int pushes) {
  Assembler a("poprun");
  a.ldi(16, 0x11);
  for (int i = 0; i < pushes; ++i) {
    a.push(16);
    a.inc(16);
  }
  for (int i = 0; i <= pushes; ++i) a.pop(static_cast<uint8_t>(1 + i));
  a.halt(0);
  return a.finish();
}

TEST(StackRun, PopRunUnderflowingOnItsLastMemberKills) {
  for (const int pushes : {1, 2, 3}) {
    SCOPED_TRACE(pushes);
    const std::vector<Image> progs = {pop_run_program(pushes)};
    const RunState on = run_state(progs, true, 1'000'000);
    const RunState off = run_state(progs, false, 1'000'000);
    ASSERT_EQ(on.tasks.size(), 1u);
    EXPECT_EQ(on.tasks[0].state, kern::TaskState::Killed);
    EXPECT_EQ(on.tasks[0].why, kern::KillReason::InvalidAccess);
    EXPECT_EQ(on.regs[1], 0x11 + pushes - 1);  // the last value pushed
    expect_same_state(on, off);
  }
}

// --- Relays entered from a forged return address -------------------------------

// A task whose only route to exit code 9 is a relay landing on `exit9`
// (original word 1). Words: 0 rjmp, 1-3 exit9, 4 ldi, 5 dec, 6 brne (a
// live backward relay returning to word 7), 7-8 two NOPs, 9-11 halt(0),
// then two relays no honest path reaches. Entered from a return address
// the table does not pair with them, the formula sends them to word 1:
// the first from word 7 (7 - 6), the second from word 9 (9 - 8).
Image forged_relay_program() {
  Assembler a("forged");
  a.rjmp("main");
  a.label("exit9");
  a.halt(9);
  a.label("main");
  a.ldi(20, 1);
  a.label("loop");
  a.dec(20);
  a.brne("loop");
  a.nop();
  a.nop();
  a.halt(0);
  a.emit(rjmp_k(-6));
  a.emit(rjmp_k(-8));
  return a.finish();
}

// Link the program, let `plant` rewrite its flash, run it alone, and
// return the task's exit code (-1 if it did not exit).
template <typename Plant>
int run_planted(Plant plant) {
  const Image img = forged_relay_program();
  EXPECT_EQ(img.code.size(), 14u);
  rw::Linker linker;
  linker.add(img);
  rw::LinkedSystem sys = linker.link();
  const rw::ProgramInfo& p = sys.programs[0];
  plant(sys.flash, [&p](uint32_t orig) { return p.map.to_naturalized(orig); });
  emu::Machine m;
  kern::Kernel k(m, sys);
  k.admit_all();
  EXPECT_TRUE(k.start());
  if (k.run(1'000'000) != emu::StopReason::Halted ||
      k.tasks()[0].state != kern::TaskState::Done)
    return -1;
  return k.tasks()[0].exit_code;
}

TEST(SiteTargets, UnplantedProgramExitsZero) {
  EXPECT_EQ(run_planted([](std::vector<uint16_t>&, auto) {}), 0);
}

TEST(SiteTargets, KernelTakesTheFormulaFromANonSiteWord) {
  // A trampoline CALL to the second dead relay over the two NOPs: it
  // returns to word 9, which no relay returns to.
  EXPECT_EQ(run_planted([](std::vector<uint16_t>& flash, auto nat) {
              flash[nat(7)] = 0x940E;
              flash[nat(7) + 1] = flash[nat(13) + 1];
            }),
            9);
}

TEST(SiteTargets, KernelTakesTheFormulaForARealSiteOfAnotherService) {
  // The live BRNE's trampoline CALL retargeted to the first dead relay:
  // it returns to word 7, whose table entry belongs to the BRNE.
  EXPECT_EQ(run_planted([](std::vector<uint16_t>& flash, auto nat) {
              ASSERT_EQ(flash[nat(6)], 0x940E);
              flash[nat(6) + 1] = flash[nat(12) + 1];
            }),
            9);
}

// --- Typed FNV-1a step ---------------------------------------------------------

template <typename T>
void expect_typed_step_matches(std::mt19937_64& rng) {
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t h = rng();
    const auto v = static_cast<T>(rng() >> (rng() % 64));
    ASSERT_EQ(net::fnv1a_step_typed(h, v), net::fnv1a_step(h, uint64_t(v)))
        << sizeof(T) << "-byte value " << uint64_t(v);
  }
}

TEST(TraceDigest, TypedStepMatchesTheByteLoopAtEveryWidth) {
  std::mt19937_64 rng(0xF1A5);
  expect_typed_step_matches<uint8_t>(rng);
  expect_typed_step_matches<uint16_t>(rng);
  expect_typed_step_matches<uint32_t>(rng);
  expect_typed_step_matches<uint64_t>(rng);
  for (const uint64_t h : {0ULL, ~0ULL, 0xcbf29ce484222325ULL}) {
    EXPECT_EQ(net::fnv1a_step_typed(h, uint8_t{0}), net::fnv1a_step(h, 0));
    EXPECT_EQ(net::fnv1a_step_typed(h, uint32_t{0xFFFFFFFF}),
              net::fnv1a_step(h, 0xFFFFFFFF));
  }
}

}  // namespace
}  // namespace sensmart
