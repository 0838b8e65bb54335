// CPU core semantics: ALU flags against the AVR manual's definitions,
// addressing modes, stack/control-flow behaviour, skips across 32-bit
// instructions, interrupts, and cycle accounting; and the fleet image
// dedup path (SharedImage adoption, copy-on-write detach).
#include <gtest/gtest.h>

#include "apps/treesearch.hpp"
#include "emu/machine.hpp"
#include "isa/codec.hpp"

namespace sensmart::emu {
namespace {

using isa::Instruction;
using isa::Op;

class Cpu : public ::testing::Test {
 protected:
  // Load raw instructions at word 0 and reset.
  void load(const std::vector<Instruction>& prog) {
    std::vector<uint16_t> words;
    for (const auto& i : prog) isa::encode_to(i, words);
    m.load_flash(words);
    m.reset(0);
  }
  void step_all(int n) {
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(m.step(), StopReason::Running) << "step " << i;
  }
  static Instruction mk(Op op, uint8_t rd = 0, uint8_t rr = 0, int32_t k = 0) {
    Instruction i;
    i.op = op;
    i.rd = rd;
    i.rr = rr;
    i.k = k;
    return i;
  }

  Machine m;
};

TEST_F(Cpu, AddSetsCarryHalfCarryOverflow) {
  load({mk(Op::Ldi, 16, 0, 0x3F), mk(Op::Ldi, 17, 0, 0x41),
        mk(Op::Add, 16, 17)});
  step_all(3);
  EXPECT_EQ(m.mem().reg(16), 0x80);
  const uint8_t s = m.mem().sreg();
  EXPECT_FALSE(s & 1);        // C
  EXPECT_TRUE(s & (1 << 2));  // N
  EXPECT_TRUE(s & (1 << 3));  // V: 0x3F + 0x41 = pos+pos -> neg
  EXPECT_TRUE(s & (1 << 5));  // H: carry out of bit 3 (F+1)
  EXPECT_FALSE(s & (1 << 1)); // Z
}

TEST_F(Cpu, AddCarryWraps) {
  load({mk(Op::Ldi, 16, 0, 0xFF), mk(Op::Ldi, 17, 0, 0x01),
        mk(Op::Add, 16, 17)});
  step_all(3);
  EXPECT_EQ(m.mem().reg(16), 0x00);
  EXPECT_TRUE(m.mem().sreg() & 1);         // C
  EXPECT_TRUE(m.mem().sreg() & (1 << 1));  // Z
}

TEST_F(Cpu, AdcUsesCarryIn) {
  load({mk(Op::Ldi, 16, 0, 0xFF), mk(Op::Ldi, 17, 0, 0x01),
        mk(Op::Add, 16, 17),  // sets C
        mk(Op::Ldi, 16, 0, 5), mk(Op::Ldi, 17, 0, 3),
        mk(Op::Adc, 16, 17)});
  step_all(6);
  EXPECT_EQ(m.mem().reg(16), 9);  // 5 + 3 + carry
}

TEST_F(Cpu, SubAndCompareFlags) {
  load({mk(Op::Ldi, 16, 0, 0x10), mk(Op::Ldi, 17, 0, 0x20),
        mk(Op::Cp, 16, 17)});
  step_all(3);
  EXPECT_TRUE(m.mem().sreg() & 1);  // C: 0x10 < 0x20 (borrow)
  EXPECT_EQ(m.mem().reg(16), 0x10);  // CP does not write
}

TEST_F(Cpu, SbcCpcPreserveZetaOnlyWhenZero) {
  // 16-bit compare 0x0100 vs 0x0100: CP low (Z set), CPC high keeps Z.
  load({mk(Op::Ldi, 16, 0, 0x00), mk(Op::Ldi, 17, 0, 0x01),
        mk(Op::Ldi, 18, 0, 0x00), mk(Op::Ldi, 19, 0, 0x01),
        mk(Op::Cp, 16, 18), mk(Op::Cpc, 17, 19)});
  step_all(6);
  EXPECT_TRUE(m.mem().sreg() & (1 << 1));  // Z across the pair

  // 0x0100 vs 0x0000: CP low sets Z, CPC high result nonzero clears it.
  load({mk(Op::Ldi, 16, 0, 0x00), mk(Op::Ldi, 17, 0, 0x01),
        mk(Op::Ldi, 18, 0, 0x00), mk(Op::Ldi, 19, 0, 0x00),
        mk(Op::Cp, 16, 18), mk(Op::Cpc, 17, 19)});
  step_all(6);
  EXPECT_FALSE(m.mem().sreg() & (1 << 1));
}

TEST_F(Cpu, LogicOpsClearV) {
  load({mk(Op::Ldi, 16, 0, 0xF0), mk(Op::Ldi, 17, 0, 0x0F),
        mk(Op::Or, 16, 17)});
  step_all(3);
  EXPECT_EQ(m.mem().reg(16), 0xFF);
  EXPECT_FALSE(m.mem().sreg() & (1 << 3));  // V cleared
  EXPECT_TRUE(m.mem().sreg() & (1 << 2));   // N set
}

TEST_F(Cpu, ComNegIncDec) {
  load({mk(Op::Ldi, 16, 0, 0x55), mk(Op::Com, 16)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(16), 0xAA);
  EXPECT_TRUE(m.mem().sreg() & 1);  // COM always sets C

  load({mk(Op::Ldi, 16, 0, 0x01), mk(Op::Neg, 16)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(16), 0xFF);

  load({mk(Op::Ldi, 16, 0, 0x7F), mk(Op::Inc, 16)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(16), 0x80);
  EXPECT_TRUE(m.mem().sreg() & (1 << 3));  // V on 0x7F -> 0x80

  load({mk(Op::Ldi, 16, 0, 0x80), mk(Op::Dec, 16)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(16), 0x7F);
  EXPECT_TRUE(m.mem().sreg() & (1 << 3));
}

TEST_F(Cpu, ShiftsAndRotate) {
  load({mk(Op::Ldi, 16, 0, 0x81), mk(Op::Lsr, 16)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(16), 0x40);
  EXPECT_TRUE(m.mem().sreg() & 1);  // C = old bit 0

  load({mk(Op::Ldi, 16, 0, 0x80), mk(Op::Asr, 16)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(16), 0xC0);  // sign preserved

  // ROR pulls the carry into bit 7.
  load({mk(Op::Ldi, 16, 0, 0x01), mk(Op::Lsr, 16),  // C=1, r16=0
        mk(Op::Ror, 16)});
  step_all(3);
  EXPECT_EQ(m.mem().reg(16), 0x80);
}

TEST_F(Cpu, MulWritesR1R0) {
  load({mk(Op::Ldi, 16, 0, 200), mk(Op::Ldi, 17, 0, 100),
        mk(Op::Mul, 16, 17)});
  step_all(3);
  EXPECT_EQ(m.mem().reg_pair(0), 20000);
  EXPECT_FALSE(m.mem().sreg() & 1);  // C = bit 15 of 20000 = 0
}

TEST_F(Cpu, AdiwSbiw16Bit) {
  load({mk(Op::Ldi, 26, 0, 0xFF), mk(Op::Ldi, 27, 0, 0x00),
        mk(Op::Adiw, 26, 0, 1)});
  step_all(3);
  EXPECT_EQ(m.mem().reg_pair(26), 0x0100);

  load({mk(Op::Ldi, 26, 0, 0x00), mk(Op::Ldi, 27, 0, 0x01),
        mk(Op::Sbiw, 26, 0, 1)});
  step_all(3);
  EXPECT_EQ(m.mem().reg_pair(26), 0x00FF);

  load({mk(Op::Ldi, 26, 0, 0x00), mk(Op::Ldi, 27, 0, 0x00),
        mk(Op::Sbiw, 26, 0, 1)});
  step_all(3);
  EXPECT_EQ(m.mem().reg_pair(26), 0xFFFF);
  EXPECT_TRUE(m.mem().sreg() & 1);  // borrow
}

TEST_F(Cpu, LoadStoreAddressingModes) {
  // ST X+ / ST -X roundtrip through SRAM.
  load({mk(Op::Ldi, 26, 0, 0x00), mk(Op::Ldi, 27, 0, 0x02),  // X = 0x0200
        mk(Op::Ldi, 16, 0, 0xAB), mk(Op::StXInc, 16),
        mk(Op::Ldi, 17, 0, 0xCD), mk(Op::StX, 17),
        mk(Op::LdXDec, 18),   // X back to 0x0200, r18 = mem[0x0200]?? no:
                              // LD -X pre-decrements: reads mem[0x0200]
        mk(Op::LdXInc, 19)}); // r19 = mem[0x0200], X = 0x0201
  step_all(8);
  EXPECT_EQ(m.mem().raw(0x0200), 0xAB);
  EXPECT_EQ(m.mem().raw(0x0201), 0xCD);
  EXPECT_EQ(m.mem().reg(18), 0xAB);
  EXPECT_EQ(m.mem().reg(19), 0xAB);
  EXPECT_EQ(m.mem().reg_pair(26), 0x0201);
}

TEST_F(Cpu, LddStdDisplacement) {
  Instruction stdy = mk(Op::Std, 16);
  stdy.q = 5;
  stdy.ptr = isa::Ptr::Y;
  Instruction lddy = mk(Op::Ldd, 20);
  lddy.q = 5;
  lddy.ptr = isa::Ptr::Y;
  load({mk(Op::Ldi, 28, 0, 0x00), mk(Op::Ldi, 29, 0, 0x03),  // Y = 0x0300
        mk(Op::Ldi, 16, 0, 0x42), stdy, lddy});
  step_all(5);
  EXPECT_EQ(m.mem().raw(0x0305), 0x42);
  EXPECT_EQ(m.mem().reg(20), 0x42);
  EXPECT_EQ(m.mem().reg_pair(28), 0x0300);  // displacement does not mutate Y
}

TEST_F(Cpu, RegisterFileIsMemoryMapped) {
  load({mk(Op::Ldi, 16, 0, 0x77), mk(Op::Sts, 16, 0, 0x0005)});
  step_all(2);
  EXPECT_EQ(m.mem().reg(5), 0x77);  // STS to address 5 wrote r5
}

TEST_F(Cpu, PushPopAndSp) {
  load({mk(Op::Ldi, 16, 0, 0x99), mk(Op::Push, 16), mk(Op::Pop, 17)});
  const uint16_t sp0 = m.mem().sp();
  step_all(3);
  EXPECT_EQ(m.mem().reg(17), 0x99);
  EXPECT_EQ(m.mem().sp(), sp0);
}

TEST_F(Cpu, CallRetRoundtrip) {
  // 0: RCALL +1 ; 1: RJMP 0 (skipped on return path) ; 2: RET
  load({mk(Op::Rcall, 0, 0, 1), mk(Op::Rjmp, 0, 0, -2), mk(Op::Ret)});
  const uint16_t sp0 = m.mem().sp();
  step_all(1);
  EXPECT_EQ(m.pc(), 2u);
  EXPECT_EQ(m.mem().sp(), sp0 - 2);
  step_all(1);  // RET
  EXPECT_EQ(m.pc(), 1u);
  EXPECT_EQ(m.mem().sp(), sp0);
}

TEST_F(Cpu, IjmpIcallUseZ) {
  load({mk(Op::Ldi, 30, 0, 4), mk(Op::Ldi, 31, 0, 0), mk(Op::Ijmp),
        mk(Op::Nop), mk(Op::Nop)});
  step_all(3);
  EXPECT_EQ(m.pc(), 4u);
}

TEST_F(Cpu, BranchTakenAndNotTaken) {
  // BRNE over a marker when Z clear.
  Instruction brne = mk(Op::Brbc, 0, 0, 1);
  brne.b = isa::kFlagZ;
  load({mk(Op::Ldi, 16, 0, 1), mk(Op::Cpi, 16, 0, 1),  // Z set
        brne, mk(Op::Ldi, 17, 0, 0xAA), mk(Op::Ldi, 18, 0, 0xBB)});
  step_all(5);
  EXPECT_EQ(m.mem().reg(17), 0xAA);  // branch not taken

  // Registers persist across reloads (reset does not clear the register
  // file, as on real AVR), so clear r17 explicitly.
  load({mk(Op::Ldi, 16, 0, 1), mk(Op::Ldi, 17, 0, 0),
        mk(Op::Cpi, 16, 0, 2),  // Z clear
        brne, mk(Op::Ldi, 17, 0, 0xAA), mk(Op::Ldi, 18, 0, 0xBB)});
  step_all(5);
  EXPECT_EQ(m.mem().reg(17), 0);     // skipped
  EXPECT_EQ(m.mem().reg(18), 0xBB);  // branch target executed
}

TEST_F(Cpu, SkipOverTwoWordInstruction) {
  // SBRC r16,0 with r16 bit0 = 0 skips the 2-word STS entirely.
  Instruction sbrc = mk(Op::Sbrc);
  sbrc.rr = 16;
  sbrc.b = 0;
  load({mk(Op::Ldi, 16, 0, 0x00), sbrc, mk(Op::Sts, 16, 0, 0x0400),
        mk(Op::Ldi, 17, 0, 0x5A)});
  step_all(3);
  EXPECT_EQ(m.mem().raw(0x0400), 0x00);  // STS skipped
  EXPECT_EQ(m.mem().reg(17), 0x5A);
}

TEST_F(Cpu, CpseSkips) {
  load({mk(Op::Ldi, 16, 0, 7), mk(Op::Ldi, 17, 0, 7), mk(Op::Cpse, 16, 17),
        mk(Op::Ldi, 18, 0, 1), mk(Op::Ldi, 19, 0, 2)});
  step_all(4);
  EXPECT_EQ(m.mem().reg(18), 0);
  EXPECT_EQ(m.mem().reg(19), 2);
}

TEST_F(Cpu, LpmReadsFlashBytes) {
  // Word 8 holds 0xBEEF; LPM uses little-endian byte addressing.
  load({mk(Op::Ldi, 30, 0, 16), mk(Op::Ldi, 31, 0, 0),  // Z = byte addr 16
        mk(Op::LpmInc, 16), mk(Op::Lpm, 17)});
  std::vector<uint16_t> data = {0xBEEF};
  m.load_flash(data, 8);
  m.reset(0);
  step_all(4);
  EXPECT_EQ(m.mem().reg(16), 0xEF);
  EXPECT_EQ(m.mem().reg(17), 0xBE);
}

TEST_F(Cpu, CycleAccounting) {
  load({mk(Op::Ldi, 16, 0, 1),   // 1 cycle
        mk(Op::Push, 16),        // 2
        mk(Op::Rjmp, 0, 0, 0)}); // 2
  step_all(3);
  EXPECT_EQ(m.cycles(), 5u);
  EXPECT_EQ(m.stats().instructions, 3u);
}

TEST_F(Cpu, BranchTakenCostsExtraCycle) {
  Instruction breq = mk(Op::Brbs, 0, 0, 0);
  breq.b = isa::kFlagZ;
  load({mk(Op::Cp, 0, 0), breq, mk(Op::Nop)});
  step_all(2);
  EXPECT_EQ(m.cycles(), 3u);  // CP(1) + taken branch(2)
}

TEST_F(Cpu, InvalidOpcodeStops) {
  std::vector<uint16_t> words = {0x9403};  // undefined one-reg ext... 0x3=Inc
  words[0] = 0xFF08;                       // no such encoding
  m.load_flash(words);
  m.reset(0);
  EXPECT_EQ(m.step(), StopReason::InvalidInstruction);
}

TEST_F(Cpu, HostHaltStopsMachine) {
  load({mk(Op::Ldi, 16, 0, 3), mk(Op::Sts, 16, 0, kHostHalt)});
  step_all(1);
  EXPECT_EQ(m.step(), StopReason::Halted);
  EXPECT_EQ(m.dev().halt_code(), 3);
}

TEST_F(Cpu, InterruptDispatchAndReti) {
  // Enable Timer0 overflow interrupt; vector 2 jumps to the handler which
  // sets r20 and RETIs back into the main loop.
  std::vector<Instruction> prog = {
      /*0*/ mk(Op::Rjmp, 0, 0, 3),   // reset -> main (word 4)
      /*1*/ mk(Op::Nop),
      /*2*/ mk(Op::Rjmp, 0, 0, 5),   // T0 OVF vector -> handler (word 8)
      /*3*/ mk(Op::Nop),
      /*4*/ mk(Op::Nop),             // main:
      /*5*/ mk(Op::Nop),
      /*6*/ mk(Op::Nop),
      /*7*/ mk(Op::Rjmp, 0, 0, -4),  // loop to main
      /*8*/ mk(Op::Ldi, 20, 0, 0x42),// handler:
      /*9*/ mk(Op::Reti),
  };
  load(prog);
  // Configure Timer0: prescale /8, enable OVF interrupt, enable I flag.
  m.mem().write(kTccr0, 2);
  m.mem().write(kTimsk, 0x01);
  m.mem().set_sreg(1u << isa::kFlagI);
  m.run(6000);  // 256*8 = 2048 cycles to overflow
  EXPECT_EQ(m.mem().reg(20), 0x42);
  EXPECT_TRUE(m.mem().sreg() & (1u << isa::kFlagI));  // RETI restored I
}

TEST_F(Cpu, TimedSleepFastForwards) {
  // Arm a sleep 100 ticks ahead, SLEEP, then halt.
  std::vector<Instruction> prog = {
      mk(Op::Lds, 24, 0, kTcnt3L), mk(Op::Lds, 25, 0, kTcnt3H),
      mk(Op::Subi, 24, 0, 0x9C),  // += 100 (subi -100)
      mk(Op::Sbci, 25, 0, 0xFF),
      mk(Op::Sts, 24, 0, kSleepTargetL), mk(Op::Sts, 25, 0, kSleepTargetH),
      mk(Op::Sleep), mk(Op::Ldi, 16, 0, 1), mk(Op::Sts, 16, 0, kHostHalt)};
  load(prog);
  EXPECT_EQ(m.run(1'000'000), StopReason::Halted);
  EXPECT_GE(m.cycles(), 100u * kTimer3Prescale);
  EXPECT_GT(m.stats().idle_cycles, 90u * kTimer3Prescale);
}

TEST_F(Cpu, SleepWithNoWakeSourceDeadlocks) {
  load({mk(Op::Sleep)});
  EXPECT_EQ(m.run(1000), StopReason::Deadlock);
}

// The PC after SLEEP wraps at the end of flash like every other
// instruction's.
TEST_F(Cpu, SleepAtLastFlashWordWrapsPc) {
  std::vector<uint16_t> words;
  isa::encode_to(mk(Op::Sleep), words);
  m.load_flash(words, Machine::kFlashWords - 1);
  m.reset(Machine::kFlashWords - 1);
  EXPECT_EQ(m.step(), StopReason::Deadlock);
  EXPECT_EQ(m.pc(), 0u);
}

// --- Fleet image dedup -------------------------------------------------------
// A fleet shares one pre-decoded SharedImage instead of a private flash
// array and decode cache per machine; a machine that loads flash detaches
// with a private copy.

assembler::Image search_program(uint16_t nodes, uint16_t seed) {
  apps::TreeSearchParams p;
  p.nodes_per_tree = nodes;
  p.trees = 1;
  p.searches = 8;
  p.seed = seed;
  return apps::tree_search_program(p);
}

struct NativeRun {
  uint64_t cycles = 0;
  std::vector<uint8_t> out;
};

NativeRun run_to_halt(Machine& m, uint32_t entry) {
  m.reset(entry);
  EXPECT_EQ(m.run(100'000'000), StopReason::Halted);
  return {m.cycles(), m.dev().host_out()};
}

NativeRun private_run(const assembler::Image& img) {
  Machine m;
  m.load_flash(img.code);
  return run_to_halt(m, img.entry);
}

TEST(SharedImage, AdoptersHoldNoPrivateImageBytes) {
  const auto img = search_program(8, 0x3131);
  const auto shared = Machine::build_shared_image(img.code);
  Machine fresh, owner;
  owner.load_flash(img.code);
  EXPECT_FALSE(owner.image_shared());
  EXPECT_GE(owner.private_image_bytes(), shared->bytes());
  // Adopting releases whatever private image the machine held.
  for (Machine* m : {&fresh, &owner}) {
    m->adopt_image(shared);
    EXPECT_TRUE(m->image_shared());
    EXPECT_EQ(m->private_image_bytes(), 0u);
  }
}

TEST(SharedImage, AdoptersRunLikeAPrivateLoad) {
  const auto img = search_program(8, 0x3131);
  const NativeRun want = private_run(img);
  ASSERT_FALSE(want.out.empty());
  const auto shared = Machine::build_shared_image(img.code);
  Machine a, b;
  a.adopt_image(shared);
  b.adopt_image(shared);
  for (Machine* m : {&a, &b}) {
    const NativeRun got = run_to_halt(*m, img.entry);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.out, want.out);
    EXPECT_TRUE(m->image_shared());  // fetching never detaches
    EXPECT_EQ(m->private_image_bytes(), 0u);
  }
}

TEST(SharedImage, LoadFlashDetachesOnlyThatMachine) {
  const auto img = search_program(8, 0x3131);
  const auto other = search_program(6, 0x0101);
  const NativeRun want = private_run(img);
  const NativeRun want_other = private_run(other);
  ASSERT_NE(want.cycles, want_other.cycles);
  const auto shared = Machine::build_shared_image(img.code);
  const std::vector<uint16_t> flash_before = shared->flash;
  Machine a, b;
  a.adopt_image(shared);
  b.adopt_image(shared);
  a.load_flash(other.code);
  EXPECT_FALSE(a.image_shared());
  EXPECT_GT(a.private_image_bytes(), 0u);
  EXPECT_TRUE(b.image_shared());
  EXPECT_EQ(shared->flash, flash_before);

  const NativeRun got_a = run_to_halt(a, other.entry);
  EXPECT_EQ(got_a.cycles, want_other.cycles);
  EXPECT_EQ(got_a.out, want_other.out);
  const NativeRun got_b = run_to_halt(b, img.entry);
  EXPECT_EQ(got_b.cycles, want.cycles);
  EXPECT_EQ(got_b.out, want.out);
  EXPECT_TRUE(b.image_shared());
}

}  // namespace
}  // namespace sensmart::emu
