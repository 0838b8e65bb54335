// Trace-identity regression tests for the host emulation fast path.
//
// The batched event-horizon loop, the decode cache, NOP-run retirement
// and the kernel service fast path are all pure host-side optimizations:
// they must not change a single emulated cycle or kernel event. These
// tests pin ten chaos seeds to golden (cycle count, FNV-1a trace hash)
// pairs recorded from the unbatched pre-optimization build and the
// full-scale Fig. 7 mix to its exact counts, check that batched run()
// matches lockstep step() at every budget boundary, and exercise the
// decode cache's invalidation rules for overlapping load_flash calls —
// including the word-before-base case a cached two-word operand (or a
// Break's cached service index) depends on, and the NOP runs a cached
// NOP entry covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "apps/treesearch.hpp"
#include "chaos/chaos.hpp"
#include "emu/machine.hpp"
#include "isa/codec.hpp"
#include "kernel/kernel.hpp"
#include "rewriter/linker.hpp"

namespace sensmart {
namespace {

using emu::Machine;
using emu::StopReason;
using isa::Instruction;
using isa::Op;

// --- Golden chaos traces -----------------------------------------------------
//
// Recorded with the default ChaosOptions (300M cycle budget, audits and
// kill injection on). Any divergence — one cycle, one reordered kernel
// event — changes the hash, so an optimization that alters emulated
// behavior in any observable way fails here immediately.
//
// The pinned pairs live in the generated include below; regenerate with
// `cmake --build build --target refresh_golden` ONLY when a change
// intentionally alters emulated behavior (new default rewriter pass,
// cost-model recalibration) — never to paper over an unexplained
// divergence. bench/update_golden.cpp documents the policy.

struct GoldenSeed {
  uint64_t seed;
  uint64_t cycles;
  uint64_t trace_hash;
};

#include "golden_traces.inc"

TEST(TraceIdentity, GoldenChaosSeeds) {
  for (const GoldenSeed& g : kGolden) {
    chaos::ChaosOptions opts;
    opts.seed = g.seed;
    const chaos::ChaosResult res = chaos::run_chaos(opts);
    EXPECT_TRUE(res.ok()) << "seed " << g.seed << ": " << res.summary();
    EXPECT_EQ(res.run.cycles, g.cycles) << "seed " << g.seed;
    EXPECT_EQ(res.trace_hash, g.trace_hash) << "seed " << g.seed;
  }
}

Instruction mk(Op op, uint8_t rd = 0, uint8_t rr = 0, int32_t k = 0) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rr = rr;
  i.k = k;
  return i;
}

std::vector<uint16_t> words_of(const std::vector<Instruction>& prog) {
  std::vector<uint16_t> words;
  for (const Instruction& i : prog) isa::encode_to(i, words);
  return words;
}

// The full-scale Fig. 7 mix pinned to its exact counts: the one home of
// the guest-cycle gate. NOP-run retirement must leave the instruction count
// as one-by-one execution has it, and the fused service path the trap count.
TEST(TraceIdentity, FullScaleFig7CountsPinned) {
  rw::Linker linker;
  for (const auto& img : apps::fig7_mix(24, 6, 8000)) linker.add(img);
  const rw::LinkedSystem sys = linker.link();
  emu::Machine m;
  kern::KernelConfig cfg;
  cfg.initial_stack = 96;
  kern::Kernel k(m, sys, cfg);
  k.admit_all();
  ASSERT_TRUE(k.start());
  ASSERT_EQ(k.run(2'000'000'000ULL), StopReason::Halted);
  for (const kern::Task& t : k.tasks())
    EXPECT_EQ(t.state, kern::TaskState::Done) << "task " << int(t.id);
  EXPECT_EQ(m.cycles(), 263'192'880u);
  EXPECT_EQ(m.stats().instructions, 17'281'137u);
  EXPECT_EQ(k.stats().service_calls, 3'927'574u);
}

// --- run() against lockstep step() -------------------------------------------
//
// One machine advances with run() in budgets of assorted sizes; after each
// budget a twin catches up one step() at a time. Both must then agree on
// every piece of CPU state and all of data memory, so an interrupt taken
// at a different instruction boundary, or a NOP run retired past the
// horizon, shows up at the first budget after it.

struct CpuState {
  uint64_t cycles;
  uint64_t instructions;
  uint32_t pc;
  uint8_t sreg;
  uint64_t mem_fnv;
  bool operator==(const CpuState&) const = default;
};

CpuState state_of(const Machine& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t a = 0; a < emu::kDataEnd; ++a) {
    h ^= m.mem().raw(static_cast<uint16_t>(a));
    h *= 0x100000001b3ULL;
  }
  return {m.cycles(), m.stats().instructions, m.pc(), m.mem().sreg(), h};
}

void PrintTo(const CpuState& s, std::ostream* os) {
  *os << "{cycles " << s.cycles << ", insns " << s.instructions << ", pc "
      << s.pc << ", sreg " << int(s.sreg) << ", mem " << s.mem_fnv << "}";
}

// True when `m` stopped between two NOP words: a budget ended inside a run.
bool inside_nop_run(const Machine& m) {
  return m.pc() > 0 && m.flash_word(m.pc()) == 0 &&
         m.flash_word(m.pc() - 1) == 0;
}

// Runs `batched` to a stop (or `max_cycles`) and returns how many budgets
// ended inside a NOP run.
int expect_run_matches_steps(Machine& stepped, Machine& batched,
                             uint64_t max_cycles) {
  static constexpr uint64_t kBudgets[] = {1,   2,   3,    7,    13,   31,  61,
                                          127, 251, 509, 1021, 2039, 4093};
  int inside = 0;
  StopReason sb = StopReason::CycleLimit;
  StopReason sa = StopReason::Running;
  for (size_t i = 0;
       sb == StopReason::CycleLimit && batched.cycles() < max_cycles; ++i) {
    sb = batched.run(kBudgets[i % std::size(kBudgets)]);
    while (sa == StopReason::Running && stepped.cycles() < batched.cycles())
      sa = stepped.step();
    const CpuState a = state_of(stepped), b = state_of(batched);
    EXPECT_EQ(a, b) << "after budget " << i;
    if (a != b) return inside;
    inside += inside_nop_run(batched);
  }
  if (sb != StopReason::CycleLimit) {
    EXPECT_EQ(sa, sb);
  }
  return inside;
}

TEST(TraceIdentity, RunMatchesLockstepStepsOnNativeBenchmarks) {
  for (const std::string& name : apps::benchmark_names()) {
    SCOPED_TRACE(name);
    const assembler::Image img = apps::build_benchmark(name);
    Machine stepped, batched;
    for (Machine* m : {&stepped, &batched}) {
      m->load_flash(img.code);
      m->reset(img.entry);
    }
    expect_run_matches_steps(stepped, batched, 100'000'000);
    EXPECT_EQ(batched.stop_reason(), StopReason::Halted);
  }
}

TEST(TraceIdentity, RunMatchesLockstepStepsOnKernelFig7Mix) {
  rw::Linker linker;
  for (const auto& img : apps::fig7_mix(24, 6)) linker.add(img);
  const rw::LinkedSystem sys = linker.link();
  kern::KernelConfig cfg;
  cfg.initial_stack = 96;
  Machine stepped, batched;
  kern::Kernel ka(stepped, sys, cfg), kb(batched, sys, cfg);
  for (kern::Kernel* k : {&ka, &kb}) {
    k->admit_all();
    ASSERT_TRUE(k->start());
  }
  EXPECT_GT(expect_run_matches_steps(stepped, batched, 100'000'000), 0);
  EXPECT_EQ(batched.stop_reason(), StopReason::Halted);
  for (const kern::Task& t : kb.tasks())
    EXPECT_EQ(t.state, kern::TaskState::Done) << "task " << int(t.id);
}

TEST(TraceIdentity, RunMatchesLockstepStepsAcrossTimerIrqInNopRun) {
  // Timer0 overflow interrupts land in a main loop that is one NOP run;
  // the handler counts them in r20. The stepped twin's loop body is
  // MOV r0,r0 instead — same size and cost, no NOP run to retire — so the
  // comparison also holds NOP-run retirement to one-by-one execution.
  auto program = [](Op body) {
    std::vector<Instruction> prog = {
        /*0*/ mk(Op::Rjmp, 0, 0, 3),  // reset -> main (word 4)
        /*1*/ mk(Op::Nop),
        /*2*/ mk(Op::Rjmp, 0, 0, 9),  // T0 OVF vector -> handler (word 12)
        /*3*/ mk(Op::Nop),
    };
    for (int i = 0; i < 7; ++i) prog.push_back(mk(body));  // main: 4..10
    prog.push_back(mk(Op::Rjmp, 0, 0, -8));                // 11: -> main
    prog.push_back(mk(Op::Inc, 20));                       // 12: handler
    prog.push_back(mk(Op::Reti));
    return words_of(prog);
  };
  Machine stepped, batched;
  stepped.load_flash(program(Op::Mov));
  batched.load_flash(program(Op::Nop));
  for (Machine* m : {&stepped, &batched}) {
    m->reset(0);
    m->mem().write(emu::kTccr0, 2);     // prescale /8: overflow every 2048
    m->mem().write(emu::kTimsk, 0x01);  // Timer0 overflow interrupt on
    m->mem().set_sreg(1u << isa::kFlagI);
  }
  EXPECT_GT(expect_run_matches_steps(stepped, batched, 200'000), 0);
  EXPECT_GE(batched.mem().reg(20), 90);  // ~200000 / 2048 interrupts taken
}

// --- Decode-cache invalidation ----------------------------------------------

// Overwriting an executed word must evict its cached decode: the same PC
// runs the new instruction after a reset, not the cached old one.
TEST(TraceIdentity, ReloadInvalidatesOverlappingWords) {
  Machine m;
  m.load_flash(words_of({mk(Op::Ldi, 16, 0, 0x11)}));
  m.reset(0);
  ASSERT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.mem().reg(16), 0x11);

  m.load_flash(words_of({mk(Op::Ldi, 16, 0, 0x22)}), 0);
  m.reset(0);
  ASSERT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.mem().reg(16), 0x22);
}

// A two-word instruction's cached entry holds the operand word fetched
// from base+1, so reloading flash at that *operand* address must also
// evict the entry one word before the load's base.
TEST(TraceIdentity, ReloadInvalidatesWordBeforeBase) {
  Machine m;
  m.load_flash(words_of({mk(Op::Lds, 16, 0, 0x0200)}));
  m.mem().set_raw(0x0200, 0xAA);
  m.mem().set_raw(0x0300, 0xBB);
  m.reset(0);
  ASSERT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.mem().reg(16), 0xAA);  // decode for word 0 now cached

  // Overwrite only word 1 — the Lds operand. The entry at word 0 must go.
  const uint16_t new_operand[] = {0x0300};
  m.load_flash(new_operand, 1);
  m.reset(0);
  ASSERT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.mem().reg(16), 0xBB);
}

// The Break service index (the flash word after the Break) is cached in
// the decode entry and handed to the service handler without a refetch;
// reloading that word must invalidate the Break's entry too.
TEST(TraceIdentity, ReloadInvalidatesCachedServiceIndex) {
  Machine m;
  std::vector<uint16_t> words = words_of({mk(Op::Break)});
  words.push_back(0x0042);  // service index operand
  m.load_flash(words);

  static uint32_t captured;
  captured = 0;
  m.set_service_handler(
      0,
      [](void*, Machine& mm, uint32_t svc_arg) {
        captured = svc_arg;
        mm.stop(StopReason::Halted);
        return true;
      },
      nullptr);

  m.reset(0);
  m.step();
  EXPECT_EQ(captured, 0x42u);

  const uint16_t new_index[] = {0x0099};
  m.load_flash(new_index, 1);
  m.reset(0);
  m.step();
  EXPECT_EQ(captured, 0x99u);
}

// A cached NOP entry covers the NOP words after it (its run), so a load
// that overwrites only the last word of a 3-NOP run must evict the entry
// at the run's start as well. Word 1 starts the run; word 3 is reloaded.
constexpr uint32_t kRunStart = 1;

std::vector<Instruction> nop_run_program() {
  return {mk(Op::Ldi, 17, 0, 5), mk(Op::Nop),          mk(Op::Nop),
          mk(Op::Nop),           mk(Op::Ldi, 16, 0, 0x11),
          mk(Op::Sts, 16, 0, emu::kHostHalt)};
}

const std::vector<uint16_t>& reloaded_word() {
  static const std::vector<uint16_t> w = words_of({mk(Op::Ldi, 18, 0, 0x22)});
  return w;
}

CpuState run_from_run_start(Machine& m) {
  m.reset(kRunStart);
  EXPECT_EQ(m.run(1000), StopReason::Halted);
  return state_of(m);
}

// What executing the final image from the run's start gives, cache-cold.
CpuState fresh_reference(uint64_t clock_offset) {
  std::vector<uint16_t> words = words_of(nop_run_program());
  words[kRunStart + 2] = reloaded_word()[0];
  Machine fresh;
  fresh.load_flash(words);
  fresh.charge(clock_offset);
  const CpuState s = run_from_run_start(fresh);
  EXPECT_EQ(fresh.mem().reg(18), 0x22);
  return s;
}

TEST(TraceIdentity, ReloadInvalidatesNopRunCoveringBase) {
  Machine m;
  m.load_flash(words_of(nop_run_program()));
  run_from_run_start(m);  // caches the 3-NOP run at word 1
  const uint64_t first_run = m.cycles();
  const uint64_t first_insns = m.stats().instructions;

  m.load_flash(reloaded_word(), kRunStart + 2);
  CpuState got = run_from_run_start(m);
  got.instructions -= first_insns;
  EXPECT_EQ(got, fresh_reference(first_run));
}

TEST(TraceIdentity, ReloadInvalidatesNopRunOfSharedImage) {
  const auto shared = Machine::build_shared_image(words_of(nop_run_program()));
  Machine m;
  m.adopt_image(shared);
  run_from_run_start(m);
  const uint64_t first_run = m.cycles();
  const uint64_t first_insns = m.stats().instructions;

  m.load_flash(reloaded_word(), kRunStart + 2);  // detaches copy-on-write
  ASSERT_FALSE(m.image_shared());
  CpuState got = run_from_run_start(m);
  got.instructions -= first_insns;
  EXPECT_EQ(got, fresh_reference(first_run));
  EXPECT_EQ(shared->flash[kRunStart + 2], 0x0000);  // the image is untouched
}

}  // namespace
}  // namespace sensmart
