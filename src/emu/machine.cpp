#include "emu/machine.hpp"

#include <stdexcept>

namespace sensmart::emu {

using isa::Instruction;
using isa::Op;

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::Running: return "running";
    case StopReason::Halted: return "halted";
    case StopReason::CycleLimit: return "cycle-limit";
    case StopReason::InvalidInstruction: return "invalid-instruction";
    case StopReason::Breakpoint: return "breakpoint";
    case StopReason::Deadlock: return "deadlock";
    case StopReason::ServiceFault: return "service-fault";
  }
  return "?";
}

// flash_/dcache_ start empty: a fleet-simulation machine that never
// executes (every NetSim receiver during dissemination) never pays the
// ~1.6 MB of private image arrays. materialize_image() allocates them on
// the first load_flash()/fetch; adopt_image() shares them instead.
Machine::Machine() {
  mem_.set_io_hook(
      [](void* self, uint16_t addr, uint8_t& v, bool write) {
        Machine& m = *static_cast<Machine*>(self);
        m.dev_.sync(m.cycles_);
        m.dev_.io_access(addr, v, write);
        // Only writes — and the few reads with device side effects — can
        // change what interrupt fires when. A plain read of a non-device
        // register keeps the armed probe/horizon, which already coincides
        // with the next scheduled device event.
        if (write || DeviceHub::read_has_side_effects(addr)) {
          m.next_irq_probe_ = 0;
          m.horizon_ = 0;
        }
      },
      this);
  reset();
}

void Machine::set_service_hook(uint32_t floor, ServiceHook hook) {
  service_hook_ = std::move(hook);
  set_service_handler(floor, &Machine::hook_thunk, this);
}

bool Machine::hook_thunk(void* self, Machine& m, uint32_t) {
  // Legacy std::function hooks predate the fused CALL+Break dispatch and
  // read their state (service operand, return address) from the machine
  // directly, so hand-off shortcuts must not apply to them.
  m.fused_ret_valid_ = false;
  return static_cast<Machine*>(self)->service_hook_(m);
}

void Machine::materialize_image() {
  if (!flash_.empty()) return;
  if (shared_) {
    // Copy-on-write detach: snapshot the shared image (every entry of its
    // decode cache is valid, so the snapshot is immediately hot) and stop
    // sharing. The SharedImage itself is never written.
    flash_ = shared_->flash;
    dcache_ = shared_->dcache;
    shared_.reset();
  } else {
    flash_.assign(kFlashWords, 0xFFFF);
    dcache_.assign(kFlashWords, DecodedInsn{});
  }
  flash_ro_ = flash_.data();
  dcache_ro_ = dcache_.data();
}

void Machine::adopt_image(std::shared_ptr<const SharedImage> img) {
  shared_ = std::move(img);
  // Move-assign empty vectors: `= {}` would only clear and keep the
  // capacity, i.e. the ~1.2 MB of private image bytes.
  flash_ = std::vector<uint16_t>();
  dcache_ = std::vector<DecodedInsn>();
  flash_ro_ = shared_->flash.data();
  dcache_ro_ = shared_->dcache.data();
  flash_used_ = shared_->used;
}

std::shared_ptr<const Machine::SharedImage> Machine::build_shared_image(
    std::span<const uint16_t> words, uint32_t base) {
  if (base + words.size() > kFlashWords)
    throw std::out_of_range("flash image too large");
  auto img = std::make_shared<SharedImage>();
  img->flash.assign(kFlashWords, 0xFFFF);
  for (size_t i = 0; i < words.size(); ++i) img->flash[base + i] = words[i];
  img->used = base + static_cast<uint32_t>(words.size());
  img->dcache.resize(kFlashWords);
  for (uint32_t a = 0; a < kFlashWords; ++a)
    decode_entry(img->flash, a, img->dcache[a]);
  return img;
}

void Machine::load_flash(std::span<const uint16_t> words, uint32_t base) {
  if (base + words.size() > kFlashWords)
    throw std::out_of_range("flash image too large");
  materialize_image();
  for (size_t i = 0; i < words.size(); ++i) {
    flash_[base + i] = words[i];
    dcache_[base + i].valid = 0;
  }
  // A decode-cache entry can depend on the word *after* its own (the k
  // operand of a two-word instruction, the service index of a Break), so
  // a load that starts mid-stream must also invalidate the entry whose
  // second word it just overwrote.
  if (base > 0) dcache_[base - 1].valid = 0;
  flash_used_ = std::max<uint32_t>(flash_used_, base + uint32_t(words.size()));
}

void Machine::reset(uint32_t entry_word) {
  pc_ = entry_word % kFlashWords;
  mem_.set_sp(kDataEnd - 1);
  mem_.set_sreg(0);
  stop_ = StopReason::Running;
  // A probe time armed before the reset must not suppress IRQ polling
  // afterwards (the devices kept running; the CPU's bookkeeping did not).
  next_irq_probe_ = 0;
  horizon_ = 0;
  fused_ret_valid_ = false;
}

void Machine::decode_entry(std::span<const uint16_t> flash,
                           uint32_t word_addr, DecodedInsn& d) {
  d.ins = isa::decode(flash, word_addr);
  d.size = static_cast<uint8_t>(isa::size_words(d.ins.op));
  d.cycles = static_cast<uint8_t>(isa::base_cycles(d.ins.op));
  // A Break's decode has no operand of its own; cache the service-index
  // word that follows it so a trap dispatch does not refetch it from
  // flash. load_flash() invalidates this entry if either word changes.
  if (d.ins.op == isa::Op::Break)
    d.ins.k = static_cast<int32_t>(flash[(word_addr + 1) % kFlashWords]);
  d.valid = 1;
}

void Machine::fill_entry(uint32_t word_addr) {
  decode_entry(flash_, word_addr, dcache_[word_addr]);
}

void Machine::dispatch_irq(Irq irq) {
  push16(static_cast<uint16_t>(pc_));
  mem_.set_sreg(mem_.sreg() & ~(1u << isa::kFlagI));
  dev_.acknowledge(irq);
  pc_ = vector_of(irq);
  charge(4);
}

bool Machine::maybe_take_irq() {
  if (!irq_enabled()) return false;
  if (cycles_ < next_irq_probe_) return false;
  dev_.sync(cycles_);
  if (auto irq = dev_.pending_irq()) {
    dispatch_irq(*irq);
    return true;
  }
  if (auto next = dev_.next_event_after(cycles_)) {
    next_irq_probe_ = *next;
  } else {
    next_irq_probe_ = cycles_ + 64;
  }
  return false;
}

StopReason Machine::do_sleep() {
  dev_.sync(cycles_);
  if (dev_.sleep_armed()) {
    const uint64_t wake = dev_.sleep_wake_cycle();
    if (wake > cycles_) charge_idle(wake - cycles_);
    dev_.consume_sleep();
    dev_.sync(cycles_);
    return StopReason::Running;
  }
  // Untimed sleep: wait for the next device event that can raise an
  // enabled interrupt; with nothing armed the node would sleep forever.
  if (auto next = dev_.next_event_after(cycles_)) {
    if (*next > cycles_) charge_idle(*next - cycles_);
    dev_.sync(cycles_);
    next_irq_probe_ = 0;
    horizon_ = 0;
    return StopReason::Running;
  }
  return StopReason::Deadlock;
}

StopReason Machine::step() {
  if (stop_ != StopReason::Running) return stop_;
  if (maybe_take_irq()) return StopReason::Running;
  uint32_t pc = pc_;
  uint64_t cycles = cycles_;
  uint64_t insns = stats_.instructions;
  uint8_t sreg = mem_.sreg();
  stop_ = execute_one(pc, cycles, insns, sreg);
  pc_ = pc;
  cycles_ = cycles;
  stats_.instructions = insns;
  mem_.set_sreg(sreg);
  if (stop_ == StopReason::Running && dev_.halted()) stop_ = StopReason::Halted;
  return stop_;
}

StopReason Machine::run(uint64_t max_cycles) {
  const uint64_t limit = cycles_ + max_cycles;
  while (stop_ == StopReason::Running) {
    if (cycles_ >= limit) return StopReason::CycleLimit;
    if (maybe_take_irq()) continue;
    // Event horizon: execute straight-line up to the earliest point where
    // an IRQ probe could matter — the armed probe time when interrupts are
    // on, the budget otherwise. Within the batch there is no per-
    // instruction probe or stop poll; the I/O hook collapses horizon_ to 0
    // when device state changes, and an I-flag transition ends the batch
    // so the probe schedule is re-derived (both keep the instruction-level
    // probe points identical to the unbatched loop).
    const bool irq_on = irq_enabled();
    horizon_ = (irq_on && next_irq_probe_ < limit) ? next_irq_probe_ : limit;
    // Hot state lives in locals for the batch (see execute_one's note);
    // horizon_ stays a member read each iteration because the I/O hook
    // collapses it mid-batch.
    uint32_t pc = pc_;
    uint64_t cycles = cycles_;
    uint64_t insns = stats_.instructions;
    uint8_t sreg = mem_.sreg();
    StopReason s = StopReason::Running;
    while (cycles < horizon_) {
      s = execute_one(pc, cycles, insns, sreg);
      if (s != StopReason::Running) break;
      if (((sreg & (1u << isa::kFlagI)) != 0) != irq_on) break;
    }
    pc_ = pc;
    cycles_ = cycles;
    stats_.instructions = insns;
    mem_.set_sreg(sreg);
    if (s != StopReason::Running) stop_ = s;
    // A halting write to kHostHalt collapses horizon_ through the I/O hook,
    // so the batch is already over when this check runs — no instruction
    // executes after the halt, exactly as with a per-step check.
    if (stop_ == StopReason::Running && dev_.halted())
      stop_ = StopReason::Halted;
  }
  return stop_;
}

// ---------------------------------------------------------------------------
// Instruction semantics.
// ---------------------------------------------------------------------------
namespace {

struct Flags {
  uint8_t sreg;
  void set(int bit, bool v) {
    sreg = static_cast<uint8_t>(v ? (sreg | (1u << bit)) : (sreg & ~(1u << bit)));
  }
  bool get(int bit) const { return (sreg >> bit) & 1u; }
};

void nz_s(Flags& f, uint8_t r) {
  f.set(isa::kFlagN, r & 0x80);
  f.set(isa::kFlagZ, r == 0);
  f.set(isa::kFlagS, f.get(isa::kFlagN) ^ f.get(isa::kFlagV));
}

uint8_t do_add(Flags& f, uint8_t d, uint8_t r, bool carry_in) {
  const uint8_t c = carry_in && f.get(isa::kFlagC) ? 1 : 0;
  const uint8_t res = static_cast<uint8_t>(d + r + c);
  const uint8_t carries =
      static_cast<uint8_t>((d & r) | (r & ~res) | (~res & d));
  f.set(isa::kFlagH, carries & 0x08);
  f.set(isa::kFlagC, carries & 0x80);
  f.set(isa::kFlagV, ((d & r & ~res) | (~d & ~r & res)) & 0x80);
  nz_s(f, res);
  return res;
}

uint8_t do_sub(Flags& f, uint8_t d, uint8_t r, bool carry_in, bool keep_z) {
  const uint8_t c = carry_in && f.get(isa::kFlagC) ? 1 : 0;
  const uint8_t res = static_cast<uint8_t>(d - r - c);
  const uint8_t borrows =
      static_cast<uint8_t>((~d & r) | (r & res) | (res & ~d));
  f.set(isa::kFlagH, borrows & 0x08);
  f.set(isa::kFlagC, borrows & 0x80);
  f.set(isa::kFlagV, ((d & ~r & ~res) | (~d & r & res)) & 0x80);
  const bool old_z = f.get(isa::kFlagZ);
  nz_s(f, res);
  if (keep_z) f.set(isa::kFlagZ, (res == 0) && old_z);
  f.set(isa::kFlagS, f.get(isa::kFlagN) ^ f.get(isa::kFlagV));
  return res;
}

void logic_flags(Flags& f, uint8_t res) {
  f.set(isa::kFlagV, false);
  nz_s(f, res);
}

}  // namespace

uint16_t Machine::pointer_addr(isa::Ptr p) const {
  switch (p) {
    case isa::Ptr::X: return mem_.reg_pair(26);
    case isa::Ptr::Y: return mem_.reg_pair(28);
    default: return mem_.reg_pair(30);
  }
}

void Machine::set_pointer(isa::Ptr p, uint16_t v) {
  switch (p) {
    case isa::Ptr::X: mem_.set_reg_pair(26, v); break;
    case isa::Ptr::Y: mem_.set_reg_pair(28, v); break;
    default: mem_.set_reg_pair(30, v); break;
  }
}

// Shared body for all LD/ST addressing modes. A store to the SREG data
// address must survive the flag write-back at the end of execute_one(),
// hence the refresh of the caller's local flag copy.
void Machine::mem_indirect(uint8_t& sreg_local, const Instruction& ins,
                           bool store, isa::Ptr p, int pre, int post,
                           uint8_t disp) {
  uint16_t a = pointer_addr(p);
  a = static_cast<uint16_t>(a + pre);
  const uint16_t ea = static_cast<uint16_t>(a + disp);
  if (store) {
    mem_.write(ea, mem_.reg(ins.rd));
    if (ea == kSreg) sreg_local = mem_.sreg();
  } else {
    mem_.set_reg(ins.rd, mem_.read(ea));
  }
  a = static_cast<uint16_t>(a + post);
  if (pre != 0 || post != 0) set_pointer(p, a);
}

void Machine::skip_next(uint32_t& next_pc, int& cyc) {
  const int nsize = entry(next_pc).size;
  next_pc += nsize;
  cyc += nsize;  // +1 for 1-word skip, +2 for 2-word skip
}

inline StopReason Machine::execute_one(uint32_t& pc_l, uint64_t& cycles_l,
                                       uint64_t& insns_l, uint8_t& sreg_l) {
  const DecodedInsn& d = entry(pc_l);
  const Instruction& ins = d.ins;
  const uint32_t pc0 = pc_l;
  uint32_t next_pc = pc0 + d.size;
  int cyc = d.cycles;
  bool fuse_break = false;  // call into a trampoline: dispatch its Break here
  uint16_t call_ret = 0;    // the return address that call pushed

  Flags f{sreg_l};
  auto rel_branch = [&](bool taken) {
    if (taken) {
      next_pc = static_cast<uint32_t>(int64_t(pc0) + 1 + ins.k);
      cyc += 1;
    }
  };
  // Bracket for instructions that touch data memory by address. Before the
  // access the world must look exactly as the unbatched loop left it: the
  // clock current (the I/O hook timestamps device sync from cycles_) and
  // ram's SREG equal to the in-flight flag copy (the address may alias
  // SREG). Afterwards ram's SREG is restored from the flag copy — exactly
  // the per-instruction write-back of the unbatched loop, which keeps a
  // stray store that landed on SREG only where a dedicated refresh below
  // reads it back first.
  auto mem_pre = [&] {
    cycles_ = cycles_l;
    mem_.set_sreg(f.sreg);
  };
  auto mem_post = [&] { mem_.set_sreg(f.sreg); };

  using enum Op;
  switch (ins.op) {
    case Add: mem_.set_reg(ins.rd, do_add(f, mem_.reg(ins.rd), mem_.reg(ins.rr), false)); break;
    case Adc: mem_.set_reg(ins.rd, do_add(f, mem_.reg(ins.rd), mem_.reg(ins.rr), true)); break;
    case Sub: mem_.set_reg(ins.rd, do_sub(f, mem_.reg(ins.rd), mem_.reg(ins.rr), false, false)); break;
    case Sbc: mem_.set_reg(ins.rd, do_sub(f, mem_.reg(ins.rd), mem_.reg(ins.rr), true, true)); break;
    case And: { uint8_t r = mem_.reg(ins.rd) & mem_.reg(ins.rr); mem_.set_reg(ins.rd, r); logic_flags(f, r); break; }
    case Or: { uint8_t r = mem_.reg(ins.rd) | mem_.reg(ins.rr); mem_.set_reg(ins.rd, r); logic_flags(f, r); break; }
    case Eor: { uint8_t r = mem_.reg(ins.rd) ^ mem_.reg(ins.rr); mem_.set_reg(ins.rd, r); logic_flags(f, r); break; }
    case Mov: mem_.set_reg(ins.rd, mem_.reg(ins.rr)); break;
    case Cp: do_sub(f, mem_.reg(ins.rd), mem_.reg(ins.rr), false, false); break;
    case Cpc: do_sub(f, mem_.reg(ins.rd), mem_.reg(ins.rr), true, true); break;
    case Cpse: if (mem_.reg(ins.rd) == mem_.reg(ins.rr)) skip_next(next_pc, cyc); break;
    case Mul: {
      const uint16_t r = uint16_t(mem_.reg(ins.rd)) * uint16_t(mem_.reg(ins.rr));
      mem_.set_reg_pair(0, r);
      f.set(isa::kFlagC, r & 0x8000);
      f.set(isa::kFlagZ, r == 0);
      break;
    }

    case Subi: mem_.set_reg(ins.rd, do_sub(f, mem_.reg(ins.rd), uint8_t(ins.k), false, false)); break;
    case Sbci: mem_.set_reg(ins.rd, do_sub(f, mem_.reg(ins.rd), uint8_t(ins.k), true, true)); break;
    case Andi: { uint8_t r = mem_.reg(ins.rd) & uint8_t(ins.k); mem_.set_reg(ins.rd, r); logic_flags(f, r); break; }
    case Ori: { uint8_t r = mem_.reg(ins.rd) | uint8_t(ins.k); mem_.set_reg(ins.rd, r); logic_flags(f, r); break; }
    case Cpi: do_sub(f, mem_.reg(ins.rd), uint8_t(ins.k), false, false); break;
    case Ldi: mem_.set_reg(ins.rd, uint8_t(ins.k)); break;

    case Com: {
      const uint8_t r = static_cast<uint8_t>(~mem_.reg(ins.rd));
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagC, true);
      f.set(isa::kFlagV, false);
      nz_s(f, r);
      break;
    }
    case Neg: {
      const uint8_t dd = mem_.reg(ins.rd);
      const uint8_t r = static_cast<uint8_t>(0 - dd);
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagH, (r | dd) & 0x08);
      f.set(isa::kFlagC, r != 0);
      f.set(isa::kFlagV, r == 0x80);
      nz_s(f, r);
      break;
    }
    case Swap: {
      const uint8_t dd = mem_.reg(ins.rd);
      mem_.set_reg(ins.rd, static_cast<uint8_t>((dd << 4) | (dd >> 4)));
      break;
    }
    case Inc: {
      const uint8_t dd = mem_.reg(ins.rd);
      const uint8_t r = static_cast<uint8_t>(dd + 1);
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagV, dd == 0x7F);
      nz_s(f, r);
      break;
    }
    case Dec: {
      const uint8_t dd = mem_.reg(ins.rd);
      const uint8_t r = static_cast<uint8_t>(dd - 1);
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagV, dd == 0x80);
      nz_s(f, r);
      break;
    }
    case Asr: {
      const uint8_t dd = mem_.reg(ins.rd);
      const uint8_t r = static_cast<uint8_t>((dd >> 1) | (dd & 0x80));
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagC, dd & 1);
      f.set(isa::kFlagN, r & 0x80);
      f.set(isa::kFlagV, f.get(isa::kFlagN) ^ f.get(isa::kFlagC));
      f.set(isa::kFlagZ, r == 0);
      f.set(isa::kFlagS, f.get(isa::kFlagN) ^ f.get(isa::kFlagV));
      break;
    }
    case Lsr: {
      const uint8_t dd = mem_.reg(ins.rd);
      const uint8_t r = static_cast<uint8_t>(dd >> 1);
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagC, dd & 1);
      f.set(isa::kFlagN, false);
      f.set(isa::kFlagV, f.get(isa::kFlagC));
      f.set(isa::kFlagZ, r == 0);
      f.set(isa::kFlagS, f.get(isa::kFlagV));
      break;
    }
    case Ror: {
      const uint8_t dd = mem_.reg(ins.rd);
      const uint8_t r =
          static_cast<uint8_t>((dd >> 1) | (f.get(isa::kFlagC) ? 0x80 : 0));
      mem_.set_reg(ins.rd, r);
      f.set(isa::kFlagC, dd & 1);
      f.set(isa::kFlagN, r & 0x80);
      f.set(isa::kFlagV, f.get(isa::kFlagN) ^ f.get(isa::kFlagC));
      f.set(isa::kFlagZ, r == 0);
      f.set(isa::kFlagS, f.get(isa::kFlagN) ^ f.get(isa::kFlagV));
      break;
    }

    case Adiw: {
      const uint16_t dd = mem_.reg_pair(ins.rd);
      const uint16_t r = static_cast<uint16_t>(dd + ins.k);
      mem_.set_reg_pair(ins.rd, r);
      f.set(isa::kFlagV, (~dd & r) & 0x8000);
      f.set(isa::kFlagC, (~r & dd) & 0x8000);
      f.set(isa::kFlagN, r & 0x8000);
      f.set(isa::kFlagZ, r == 0);
      f.set(isa::kFlagS, f.get(isa::kFlagN) ^ f.get(isa::kFlagV));
      break;
    }
    case Sbiw: {
      const uint16_t dd = mem_.reg_pair(ins.rd);
      const uint16_t r = static_cast<uint16_t>(dd - ins.k);
      mem_.set_reg_pair(ins.rd, r);
      f.set(isa::kFlagV, (dd & ~r) & 0x8000);
      f.set(isa::kFlagC, (r & ~dd) & 0x8000);
      f.set(isa::kFlagN, r & 0x8000);
      f.set(isa::kFlagZ, r == 0);
      f.set(isa::kFlagS, f.get(isa::kFlagN) ^ f.get(isa::kFlagV));
      break;
    }
    case Movw: mem_.set_reg_pair(ins.rd, mem_.reg_pair(ins.rr)); break;

    case Lds:
      mem_pre();
      mem_.set_reg(ins.rd, mem_.read(static_cast<uint16_t>(ins.k)));
      mem_post();
      break;
    case Sts:
      mem_pre();
      mem_.write(static_cast<uint16_t>(ins.k), mem_.reg(ins.rd));
      if (ins.k == kSreg) f.sreg = mem_.sreg();
      mem_post();
      break;

    case LdX: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::X, 0, 0, 0); mem_post(); break;
    case LdXInc: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::X, 0, 1, 0); mem_post(); break;
    case LdXDec: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::X, -1, 0, 0); mem_post(); break;
    case LdYInc: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::Y, 0, 1, 0); mem_post(); break;
    case LdYDec: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::Y, -1, 0, 0); mem_post(); break;
    case LdZInc: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::Z, 0, 1, 0); mem_post(); break;
    case LdZDec: mem_pre(); mem_indirect(f.sreg, ins, false, isa::Ptr::Z, -1, 0, 0); mem_post(); break;
    case Ldd: mem_pre(); mem_indirect(f.sreg, ins, false, ins.ptr, 0, 0, ins.q); mem_post(); break;
    case StX: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::X, 0, 0, 0); mem_post(); break;
    case StXInc: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::X, 0, 1, 0); mem_post(); break;
    case StXDec: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::X, -1, 0, 0); mem_post(); break;
    case StYInc: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::Y, 0, 1, 0); mem_post(); break;
    case StYDec: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::Y, -1, 0, 0); mem_post(); break;
    case StZInc: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::Z, 0, 1, 0); mem_post(); break;
    case StZDec: mem_pre(); mem_indirect(f.sreg, ins, true, isa::Ptr::Z, -1, 0, 0); mem_post(); break;
    case Std: mem_pre(); mem_indirect(f.sreg, ins, true, ins.ptr, 0, 0, ins.q); mem_post(); break;

    case Push: {
      mem_pre();
      const uint16_t sp = mem_.sp();
      mem_.write(sp, mem_.reg(ins.rd));
      mem_.set_sp(static_cast<uint16_t>(sp - 1));
      mem_post();
      break;
    }
    case Pop: {
      mem_pre();
      const uint16_t sp = static_cast<uint16_t>(mem_.sp() + 1);
      mem_.set_reg(ins.rd, mem_.read(sp));
      mem_.set_sp(sp);
      mem_post();
      break;
    }

    case In:
      mem_pre();
      mem_.set_reg(ins.rd, mem_.read(static_cast<uint16_t>(kIoBase + ins.a)));
      mem_post();
      break;
    case Out:
      mem_pre();
      mem_.write(static_cast<uint16_t>(kIoBase + ins.a), mem_.reg(ins.rd));
      // OUT to SREG replaces the local flag copy.
      if (kIoBase + ins.a == kSreg) f.sreg = mem_.sreg();
      mem_post();
      break;
    case Sbi: {
      mem_pre();
      const uint16_t a = static_cast<uint16_t>(kIoBase + ins.a);
      mem_.write(a, static_cast<uint8_t>(mem_.read(a) | (1u << ins.b)));
      mem_post();
      break;
    }
    case Cbi: {
      mem_pre();
      const uint16_t a = static_cast<uint16_t>(kIoBase + ins.a);
      mem_.write(a, static_cast<uint8_t>(mem_.read(a) & ~(1u << ins.b)));
      mem_post();
      break;
    }
    case Sbic:
      mem_pre();
      if ((mem_.read(static_cast<uint16_t>(kIoBase + ins.a)) & (1u << ins.b)) == 0)
        skip_next(next_pc, cyc);
      mem_post();
      break;
    case Sbis:
      mem_pre();
      if ((mem_.read(static_cast<uint16_t>(kIoBase + ins.a)) & (1u << ins.b)) != 0)
        skip_next(next_pc, cyc);
      mem_post();
      break;

    case LpmR0: mem_.set_reg(0, flash_byte(mem_.reg_pair(30))); break;
    case Lpm: mem_.set_reg(ins.rd, flash_byte(mem_.reg_pair(30))); break;
    case LpmInc: {
      const uint16_t z = mem_.reg_pair(30);
      mem_.set_reg(ins.rd, flash_byte(z));
      mem_.set_reg_pair(30, static_cast<uint16_t>(z + 1));
      break;
    }

    case Rjmp: next_pc = static_cast<uint32_t>(int64_t(pc0) + 1 + ins.k); break;
    case Rcall:
      call_ret = static_cast<uint16_t>(pc0 + 1);
      push16(call_ret);
      mem_post();  // stack bytes that alias SREG don't outlive the write-back
      next_pc = static_cast<uint32_t>(int64_t(pc0) + 1 + ins.k);
      fuse_break = true;
      break;
    case Jmp: next_pc = static_cast<uint32_t>(ins.k); break;
    case Call:
      call_ret = static_cast<uint16_t>(pc0 + 2);
      push16(call_ret);
      mem_post();
      next_pc = static_cast<uint32_t>(ins.k);
      fuse_break = true;
      break;
    case Ijmp: next_pc = mem_.reg_pair(30); break;
    case Icall:
      call_ret = static_cast<uint16_t>(pc0 + 1);
      push16(call_ret);
      mem_post();
      next_pc = mem_.reg_pair(30);
      fuse_break = true;
      break;
    case Ret:
      mem_.set_sreg(f.sreg);  // the popped bytes may alias SREG
      next_pc = pop16();
      break;
    case Reti:
      mem_.set_sreg(f.sreg);
      next_pc = pop16();
      f.set(isa::kFlagI, true);
      break;

    case Brbs: rel_branch(f.get(ins.b)); break;
    case Brbc: rel_branch(!f.get(ins.b)); break;
    case Sbrc: if ((mem_.reg(ins.rr) & (1u << ins.b)) == 0) skip_next(next_pc, cyc); break;
    case Sbrs: if ((mem_.reg(ins.rr) & (1u << ins.b)) != 0) skip_next(next_pc, cyc); break;

    case Bset: f.set(ins.b, true); break;
    case Bclr: f.set(ins.b, false); break;

    case Nop:
    case Wdr:
      break;

    case Sleep: {
      sreg_l = f.sreg;
      cycles_l += cyc;
      ++insns_l;
      pc_l = next_pc;
      // do_sleep works on member state: publish the locals, run it, and
      // read back what it changed (the clock, via charge_idle).
      mem_.set_sreg(sreg_l);
      cycles_ = cycles_l;
      stats_.instructions = insns_l;
      pc_ = pc_l;
      const StopReason r = do_sleep();
      cycles_l = cycles_;
      return r;
    }

    case Break: {
      if (service_fn_ != nullptr && pc0 >= service_floor_) {
        sreg_l = f.sreg;
        ++insns_l;
        fused_ret_valid_ = false;  // standalone dispatch: handler must pop
        // The handler works on member state: sets PC, charges cycles,
        // may switch tasks (SREG) or stop the machine. Publish the
        // locals around it and read back everything it may have touched.
        mem_.set_sreg(sreg_l);
        cycles_ = cycles_l;
        stats_.instructions = insns_l;
        pc_ = pc0;
        const bool ok =
            service_fn_(service_ctx_, *this, static_cast<uint32_t>(ins.k));
        pc_l = pc_;
        cycles_l = cycles_;
        insns_l = stats_.instructions;
        sreg_l = mem_.sreg();
        return ok ? stop_ : StopReason::ServiceFault;
      }
      return StopReason::Breakpoint;
    }

    case Invalid:
      return StopReason::InvalidInstruction;
  }

  sreg_l = f.sreg;
  cycles_l += cyc;
  ++insns_l;
  pc_l = next_pc % kFlashWords;

  // Fused trampoline entry: a rewritten site reaches its service via a
  // call (CALL/RCALL/ICALL) into a trampoline whose head is a Break.
  // Between the call and that Break the batched run() loop does nothing
  // but re-check the (unchanged, calls touch neither SREG nor I/O) batch
  // conditions, so when the batch would continue — the clock still short
  // of the horizon — the Break can be dispatched right here, skipping one
  // full fetch/dispatch round per kernel service. Outside those
  // conditions the instruction falls back to the loop and the Break
  // executes normally.
  if (fuse_break && cycles_l < horizon_ && service_fn_ != nullptr &&
      pc_l >= service_floor_) {
    const Instruction& bi = entry(pc_l).ins;
    if (bi.op == Op::Break) {
      ++insns_l;
      fused_ret_ = call_ret;
      fused_ret_valid_ = true;
      mem_.set_sreg(sreg_l);
      cycles_ = cycles_l;
      stats_.instructions = insns_l;
      pc_ = pc_l;
      const bool ok =
          service_fn_(service_ctx_, *this, static_cast<uint32_t>(bi.k));
      pc_l = pc_;
      cycles_l = cycles_;
      insns_l = stats_.instructions;
      sreg_l = mem_.sreg();
      return ok ? stop_ : StopReason::ServiceFault;
    }
  }
  return StopReason::Running;
}

}  // namespace sensmart::emu
