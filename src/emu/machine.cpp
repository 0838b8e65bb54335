#include "emu/machine.hpp"

#include <cstring>
#include <iterator>
#include <new>
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
  constexpr size_t kCacheBytes = kFlashWords * sizeof(DecodedInsn);
  // A fresh cache is one zero-filled allocation (all-zero entries are
  // "not decoded yet"); a detaching one is overwritten whole below.
  dcache_.reset(static_cast<DecodedInsn*>(
      shared_ ? std::malloc(kCacheBytes)
              : std::calloc(kFlashWords, sizeof(DecodedInsn))));
  if (!dcache_) throw std::bad_alloc();
  if (shared_) {
    // Copy-on-write detach: snapshot the shared image (every entry of its
    // decode cache is decoded, so the snapshot is immediately hot) and stop
    // sharing. The SharedImage itself is never written.
    flash_ = shared_->flash;
    std::memcpy(dcache_.get(), shared_->dcache.data(), kCacheBytes);
    shared_.reset();
  } else {
    flash_.assign(kFlashWords, 0xFFFF);
  }
  flash_ro_ = flash_.data();
  dcache_ro_ = dcache_.get();
}

void Machine::adopt_image(std::shared_ptr<const SharedImage> img) {
  shared_ = std::move(img);
  // Move-assign an empty vector: `= {}` would only clear and keep the
  // capacity of the private flash.
  flash_ = std::vector<uint16_t>();
  dcache_.reset();
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
    dcache_[base + i].handler = 0;
  }
  // A decode-cache entry can depend on words *after* its own: the k
  // operand of a two-word instruction and the service index of a Break
  // (the word at base - 1), and the NOP words a NOP entry's run covers
  // (up to kMaxNopRun - 1 words back). A load that starts mid-stream must
  // also invalidate those entries.
  const uint32_t first = base > kMaxNopRun ? base - kMaxNopRun : 0;
  for (uint32_t a = first; a < base; ++a) {
    DecodedInsn& d = dcache_[a];
    if (a + 1 == base || a + d.nop_run > base) d.handler = 0;
  }
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
  // A NOP records how many NOP words (0x0000, NOP's only encoding) start
  // here, so the dispatch loop retires the whole run at once. The run
  // stops at the end of flash rather than wrapping.
  d.nop_run = 0;
  if (d.ins.op == isa::Op::Nop) {
    uint32_t n = 1;
    while (n < kMaxNopRun && word_addr + n < kFlashWords &&
           flash[word_addr + n] == 0x0000)
      ++n;
    d.nop_run = static_cast<uint8_t>(n);
  }
  d.handler = static_cast<uint8_t>(static_cast<unsigned>(d.ins.op) + 1);
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
  if (!dcache_ro_) materialize_image();
  // A horizon one cycle ahead ends the batch after exactly one instruction:
  // every instruction, and every service handler, advances the clock.
  horizon_ = cycles_ + 1;
  stop_ = execute_batch();
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
    // when device state changes, and the handlers that can flip the I flag
    // end the batch so the probe schedule is re-derived (both keep the
    // instruction-level probe points identical to the unbatched loop).
    horizon_ = (irq_enabled() && next_irq_probe_ < limit) ? next_irq_probe_
                                                           : limit;
    if (cycles_ < horizon_) {
      if (!dcache_ro_) materialize_image();
      const StopReason s = execute_batch();
      if (s != StopReason::Running) stop_ = s;
    }
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

constexpr uint32_t kPcMask = Machine::kFlashWords - 1;
constexpr uint8_t kNopHandler = static_cast<uint8_t>(Op::Nop) + 1;
static_assert((Machine::kFlashWords & kPcMask) == 0, "flash size is 2^n");

// SREG bits. The flag updates below are mask arithmetic: each flag is
// computed as a 0/1 value and the untouched bits pass through a keep mask,
// so no flag costs a branch. Each helper updates `sreg` and returns the
// result.
constexpr unsigned kC = 1u << isa::kFlagC, kZ = 1u << isa::kFlagZ,
                   kH = 1u << isa::kFlagH, kT = 1u << isa::kFlagT,
                   kI = 1u << isa::kFlagI;

[[gnu::always_inline]] inline unsigned bit(unsigned x, int n) {
  return (x >> n) & 1u;
}

// Z, N, V and S = N ^ V for an 8-bit result `res` and overflow `v` (0/1).
[[gnu::always_inline]] inline unsigned znvs(uint8_t res, unsigned v) {
  const unsigned n = bit(res, 7);
  return (unsigned(res == 0) << isa::kFlagZ) | (n << isa::kFlagN) |
         (v << isa::kFlagV) | ((n ^ v) << isa::kFlagS);
}

// ADD/ADC with carry in `c` (0/1): every arithmetic flag from the carry
// vector.
[[gnu::always_inline]] inline uint8_t add8(uint8_t& sreg, uint8_t d,
                                           uint8_t r, unsigned c) {
  const uint8_t res = static_cast<uint8_t>(d + r + c);
  const unsigned carries = (d & r) | (r & ~res) | (~res & d);
  const unsigned v = bit((d & r & ~res) | (~d & ~r & res), 7);
  sreg = static_cast<uint8_t>((sreg & (kI | kT)) | bit(carries, 7) |
                              (bit(carries, 3) << isa::kFlagH) |
                              znvs(res, v));
  return res;
}

// SUB/SBC/SUBI/SBCI/CP/CPC/CPI with borrow in `c` (0/1). The borrowing
// forms (`keep_z`: SBC, SBCI, CPC) only keep Z set when the result is zero
// and Z was already set.
[[gnu::always_inline]] inline uint8_t sub8(uint8_t& sreg, uint8_t d,
                                           uint8_t r, unsigned c,
                                           bool keep_z) {
  const uint8_t res = static_cast<uint8_t>(d - r - c);
  const unsigned borrows = (~d & r) | (r & res) | (res & ~d);
  const unsigned v = bit((d & ~r & ~res) | (~d & r & res), 7);
  const unsigned z_mask = keep_z ? (sreg | ~kZ) : ~0u;
  sreg = static_cast<uint8_t>((sreg & (kI | kT)) | bit(borrows, 7) |
                              (bit(borrows, 3) << isa::kFlagH) |
                              (znvs(res, v) & z_mask));
  return res;
}

// AND/OR/EOR/ANDI/ORI: V cleared, C and H kept.
[[gnu::always_inline]] inline uint8_t logic8(uint8_t& sreg, uint8_t res) {
  sreg = static_cast<uint8_t>((sreg & (kI | kT | kH | kC)) | znvs(res, 0));
  return res;
}

// ASR/LSR/ROR of `d` to `res`: C is the bit shifted out, V = N ^ C, H kept.
[[gnu::always_inline]] inline uint8_t shift8(uint8_t& sreg, uint8_t d,
                                             uint8_t res) {
  const unsigned c = d & 1u;
  sreg = static_cast<uint8_t>((sreg & (kI | kT | kH)) | c |
                              znvs(res, bit(res, 7) ^ c));
  return res;
}

// ADIW/SBIW of `d` by `k` (`sub` selects SBIW): 16-bit result flags, H
// kept.
[[gnu::always_inline]] inline uint16_t word16(uint8_t& sreg, uint16_t d,
                                              int32_t k, bool sub) {
  const uint16_t res = static_cast<uint16_t>(sub ? d - k : d + k);
  const uint16_t grew = static_cast<uint16_t>(~d & res);    // ADIW: V
  const uint16_t shrank = static_cast<uint16_t>(d & ~res);  // ADIW: C
  const unsigned v = bit(sub ? shrank : grew, 15);
  const unsigned c = bit(sub ? grew : shrank, 15);
  const unsigned n = bit(res, 15);
  sreg = static_cast<uint8_t>(
      (sreg & (kI | kT | kH)) | c | (unsigned(res == 0) << isa::kFlagZ) |
      (n << isa::kFlagN) | (v << isa::kFlagV) | ((n ^ v) << isa::kFlagS));
  return res;
}

// The dispatch table lists one handler per isa::Op, in enum order; the
// static_assert below keeps this list and the enum in step.
#define SENSMART_OPS(X)                                                     \
  X(Add) X(Adc) X(Sub) X(Sbc) X(And) X(Or) X(Eor) X(Mov) X(Cp) X(Cpc)       \
  X(Cpse) X(Mul) X(Subi) X(Sbci) X(Andi) X(Ori) X(Cpi) X(Ldi) X(Com)        \
  X(Neg) X(Swap) X(Inc) X(Dec) X(Asr) X(Lsr) X(Ror) X(Adiw) X(Sbiw)         \
  X(Movw) X(Lds) X(Sts) X(LdX) X(LdXInc) X(LdXDec) X(LdYInc) X(LdYDec)     \
  X(LdZInc) X(LdZDec) X(Ldd) X(StX) X(StXInc) X(StXDec) X(StYInc)          \
  X(StYDec) X(StZInc) X(StZDec) X(Std) X(Push) X(Pop) X(In) X(Out) X(Sbi)  \
  X(Cbi) X(Sbic) X(Sbis) X(LpmR0) X(Lpm) X(LpmInc) X(Rjmp) X(Rcall) X(Jmp) \
  X(Call) X(Ijmp) X(Icall) X(Ret) X(Reti) X(Brbs) X(Brbc) X(Sbrc) X(Sbrs)  \
  X(Bset) X(Bclr) X(Nop) X(Sleep) X(Wdr) X(Break) X(Invalid)

constexpr bool ops_in_enum_order() {
#define SENSMART_OP_VALUE(o) Op::o,
  constexpr Op kOrder[] = {SENSMART_OPS(SENSMART_OP_VALUE)};
#undef SENSMART_OP_VALUE
  for (unsigned i = 0; i < std::size(kOrder); ++i)
    if (static_cast<unsigned>(kOrder[i]) != i) return false;
  return std::size(kOrder) == static_cast<unsigned>(Op::Invalid) + 1;
}
static_assert(ops_in_enum_order(), "SENSMART_OPS must mirror isa::Op");

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
// address must survive the flag write-back that follows every access,
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

// Threaded dispatch: every decode-cache entry names its handler, and each
// handler ends by jumping straight to the next instruction's handler
// (labels-as-values; the build is GCC/Clang only). Handler 0 decodes the
// entry first, so the fetch needs no separate validity test. The optimize
// attribute keeps one indirect jump per handler: GCC's cross-jumping and
// GCSE would otherwise merge the identical dispatch tails into a few
// shared jumps, which predict far worse (kernel_fig7 ran ~1.3x slower).
#if !defined(__clang__)
[[gnu::optimize("no-crossjumping", "no-gcse")]]
#endif
StopReason Machine::execute_batch() {
  static const void* const kHandlers[] = {
      &&decode,
#define SENSMART_OP_LABEL(o) &&op_##o,
      SENSMART_OPS(SENSMART_OP_LABEL)
#undef SENSMART_OP_LABEL
  };

  const DecodedInsn* dc = dcache_ro_;
  uint32_t pc = pc_;
  uint64_t cycles = cycles_;
  uint64_t insns = stats_.instructions;
  uint8_t sreg = mem_.sreg();
  // The I flag at batch start (see SENSMART_END_IF_I_CHANGED).
  const unsigned irq_on = bit(sreg, isa::kFlagI);
  // horizon_ mirrored in a local: byte stores into data memory may alias
  // the member, which would otherwise be reloaded after every register
  // write. Only the I/O hook, SLEEP and service handlers change it.
  uint64_t horizon = horizon_;
  StopReason stop = StopReason::Running;
  const DecodedInsn* d = &dc[pc];
  uint32_t svc_arg = 0;  // service index for the `service` block
  uint16_t call_ret = 0;  // return address a call pushed, for fusing

  // Bracket for instructions that touch data memory by address. Before the
  // access the world must look exactly as the unbatched loop left it: the
  // clock current (the I/O hook timestamps device sync from cycles_) and
  // ram's SREG equal to the in-flight flag copy (the address may alias
  // SREG). Afterwards ram's SREG is restored from the flag copy — exactly
  // the per-instruction write-back of the unbatched loop, which keeps a
  // stray store that landed on SREG only where a dedicated refresh reads
  // it back first.
  auto mem_pre = [&] {
    cycles_ = cycles;
    mem_.set_sreg(sreg);
  };
  auto mem_post = [&] {
    mem_.set_sreg(sreg);
    horizon = horizon_;
  };
  // Publish the hot state for code that reads the members (SLEEP,
  // service handlers).
  auto publish = [&] {
    mem_.set_sreg(sreg);
    cycles_ = cycles;
    stats_.instructions = insns;
    pc_ = pc;
  };
  // The size of the instruction at `at` (a skip's cost depends on it).
  auto size_at = [&](uint32_t at) -> uint32_t { return entry(at).size; };

  // Every dispatch: end the batch at the horizon, else jump to the next
  // entry's handler.
#define SENSMART_DISPATCH()           \
  do {                                \
    if (cycles >= horizon) goto out;  \
    d = &dc[pc];                      \
    goto* kHandlers[d->handler];      \
  } while (0)
  // Retire the current instruction with its decoded size and base cost.
#define SENSMART_RETIRE()             \
  do {                                \
    pc = (pc + d->size) & kPcMask;    \
    cycles += d->cycles;              \
    ++insns;                          \
  } while (0)
#define SENSMART_NEXT()               \
  do {                                \
    SENSMART_RETIRE();                \
    SENSMART_DISPATCH();              \
  } while (0)
  // Retire with a new PC and extra cycles on top of the base cost.
#define SENSMART_JUMP(target, extra)  \
  do {                                \
    pc = (target) & kPcMask;          \
    cycles += d->cycles + (extra);    \
    ++insns;                          \
    SENSMART_DISPATCH();              \
  } while (0)
  // A run of nop_run NOP words (collapsed stack-run placeholders) retires
  // at once, clipped to the horizon so that cycles, instruction counts
  // and IRQ-probe points are exactly those of one-by-one execution.
  // cycles < horizon holds wherever this runs, so at least one NOP
  // retires; step()'s one-cycle horizon retires exactly one.
#define SENSMART_RETIRE_NOP_RUN()                           \
  do {                                                      \
    const uint64_t room = horizon - cycles;                 \
    const uint32_t n = d->nop_run < room                    \
                           ? d->nop_run                     \
                           : static_cast<uint32_t>(room);   \
    pc = (pc + n) & kPcMask;                                \
    cycles += n;                                            \
    insns += n;                                             \
  } while (0)
  // Skip: the next instruction's size is added to both PC and cost.
#define SENSMART_SKIP_IF(cond)                              \
  do {                                                      \
    const uint32_t next = (pc + d->size) & kPcMask;         \
    const uint32_t skip = (cond) ? size_at(next) : 0u;      \
    SENSMART_JUMP(next + skip, skip);                       \
  } while (0)
  // Ends the batch in the handlers that can write the I flag, so run()
  // re-derives the IRQ probe schedule.
#define SENSMART_END_IF_I_CHANGED()                         \
  do {                                                      \
    if (bit(sreg, isa::kFlagI) != irq_on) goto out;         \
  } while (0)
#define SENSMART_RD mem_.reg(d->ins.rd)
#define SENSMART_RR mem_.reg(d->ins.rr)
#define SENSMART_K8 static_cast<uint8_t>(d->ins.k)
#define SENSMART_LD(label, ptr, pre, post, disp)            \
  op_##label:                                               \
  mem_pre();                                                \
  mem_indirect(sreg, d->ins, false, ptr, pre, post, disp);  \
  mem_post();                                               \
  SENSMART_NEXT();
#define SENSMART_ST(label, ptr, pre, post, disp)            \
  op_##label:                                               \
  mem_pre();                                                \
  mem_indirect(sreg, d->ins, true, ptr, pre, post, disp);   \
  mem_post();                                               \
  SENSMART_RETIRE();                                        \
  SENSMART_END_IF_I_CHANGED();                              \
  SENSMART_DISPATCH();

  goto* kHandlers[d->handler];

decode:
  fill_entry(pc);
  goto* kHandlers[d->handler];

op_Add:
  mem_.set_reg(d->ins.rd, add8(sreg, SENSMART_RD, SENSMART_RR, 0));
  SENSMART_NEXT();
op_Adc:
  mem_.set_reg(d->ins.rd, add8(sreg, SENSMART_RD, SENSMART_RR, sreg & kC));
  SENSMART_NEXT();
op_Sub:
  mem_.set_reg(d->ins.rd, sub8(sreg, SENSMART_RD, SENSMART_RR, 0, false));
  SENSMART_NEXT();
op_Sbc:
  mem_.set_reg(d->ins.rd,
               sub8(sreg, SENSMART_RD, SENSMART_RR, sreg & kC, true));
  SENSMART_NEXT();
op_And:
  mem_.set_reg(d->ins.rd, logic8(sreg, SENSMART_RD & SENSMART_RR));
  SENSMART_NEXT();
op_Or:
  mem_.set_reg(d->ins.rd, logic8(sreg, SENSMART_RD | SENSMART_RR));
  SENSMART_NEXT();
op_Eor:
  mem_.set_reg(d->ins.rd, logic8(sreg, SENSMART_RD ^ SENSMART_RR));
  SENSMART_NEXT();
op_Mov:
  mem_.set_reg(d->ins.rd, SENSMART_RR);
  SENSMART_NEXT();
op_Cp:
  sub8(sreg, SENSMART_RD, SENSMART_RR, 0, false);
  SENSMART_NEXT();
op_Cpc:
  sub8(sreg, SENSMART_RD, SENSMART_RR, sreg & kC, true);
  SENSMART_NEXT();
op_Cpse:
  SENSMART_SKIP_IF(SENSMART_RD == SENSMART_RR);
op_Mul: {
  const uint16_t r = static_cast<uint16_t>(SENSMART_RD * SENSMART_RR);
  mem_.set_reg_pair(0, r);
  sreg = static_cast<uint8_t>((sreg & ~(kC | kZ)) | bit(r, 15) |
                              (unsigned(r == 0) << isa::kFlagZ));
  SENSMART_NEXT();
}

op_Subi:
  mem_.set_reg(d->ins.rd, sub8(sreg, SENSMART_RD, SENSMART_K8, 0, false));
  SENSMART_NEXT();
op_Sbci:
  mem_.set_reg(d->ins.rd,
               sub8(sreg, SENSMART_RD, SENSMART_K8, sreg & kC, true));
  SENSMART_NEXT();
op_Andi:
  mem_.set_reg(d->ins.rd, logic8(sreg, SENSMART_RD & SENSMART_K8));
  SENSMART_NEXT();
op_Ori:
  mem_.set_reg(d->ins.rd, logic8(sreg, SENSMART_RD | SENSMART_K8));
  SENSMART_NEXT();
op_Cpi:
  sub8(sreg, SENSMART_RD, SENSMART_K8, 0, false);
  SENSMART_NEXT();
op_Ldi:
  mem_.set_reg(d->ins.rd, SENSMART_K8);
  SENSMART_NEXT();

op_Com: {
  const uint8_t r = static_cast<uint8_t>(~SENSMART_RD);
  mem_.set_reg(d->ins.rd, r);
  sreg = static_cast<uint8_t>((sreg & (kI | kT | kH)) | kC | znvs(r, 0));
  SENSMART_NEXT();
}
op_Neg: {
  const uint8_t a = SENSMART_RD;
  const uint8_t r = static_cast<uint8_t>(0 - a);
  mem_.set_reg(d->ins.rd, r);
  sreg = static_cast<uint8_t>((sreg & (kI | kT)) | unsigned(r != 0) |
                              (bit(r | a, 3) << isa::kFlagH) |
                              znvs(r, r == 0x80));
  SENSMART_NEXT();
}
op_Swap: {
  const uint8_t a = SENSMART_RD;
  mem_.set_reg(d->ins.rd, static_cast<uint8_t>((a << 4) | (a >> 4)));
  SENSMART_NEXT();
}
op_Inc: {
  const uint8_t a = SENSMART_RD;
  const uint8_t r = static_cast<uint8_t>(a + 1);
  mem_.set_reg(d->ins.rd, r);
  sreg = static_cast<uint8_t>((sreg & (kI | kT | kH | kC)) |
                              znvs(r, a == 0x7F));
  SENSMART_NEXT();
}
op_Dec: {
  const uint8_t a = SENSMART_RD;
  const uint8_t r = static_cast<uint8_t>(a - 1);
  mem_.set_reg(d->ins.rd, r);
  sreg = static_cast<uint8_t>((sreg & (kI | kT | kH | kC)) |
                              znvs(r, a == 0x80));
  SENSMART_NEXT();
}
op_Asr: {
  const uint8_t a = SENSMART_RD;
  mem_.set_reg(d->ins.rd, shift8(sreg, a, (a >> 1) | (a & 0x80)));
  SENSMART_NEXT();
}
op_Lsr: {
  const uint8_t a = SENSMART_RD;
  mem_.set_reg(d->ins.rd, shift8(sreg, a, a >> 1));
  SENSMART_NEXT();
}
op_Ror: {
  const uint8_t a = SENSMART_RD;
  mem_.set_reg(d->ins.rd, shift8(sreg, a, (a >> 1) | ((sreg & kC) << 7)));
  SENSMART_NEXT();
}

op_Adiw:
  mem_.set_reg_pair(d->ins.rd, word16(sreg, mem_.reg_pair(d->ins.rd),
                                      d->ins.k, false));
  SENSMART_NEXT();
op_Sbiw:
  mem_.set_reg_pair(d->ins.rd, word16(sreg, mem_.reg_pair(d->ins.rd),
                                      d->ins.k, true));
  SENSMART_NEXT();
op_Movw:
  mem_.set_reg_pair(d->ins.rd, mem_.reg_pair(d->ins.rr));
  SENSMART_NEXT();

op_Lds:
  mem_pre();
  mem_.set_reg(d->ins.rd, mem_.read(static_cast<uint16_t>(d->ins.k)));
  mem_post();
  SENSMART_NEXT();
op_Sts:
  mem_pre();
  mem_.write(static_cast<uint16_t>(d->ins.k), SENSMART_RD);
  if (d->ins.k == kSreg) sreg = mem_.sreg();
  mem_post();
  SENSMART_RETIRE();
  SENSMART_END_IF_I_CHANGED();
  SENSMART_DISPATCH();

SENSMART_LD(LdX, isa::Ptr::X, 0, 0, 0)
SENSMART_LD(LdXInc, isa::Ptr::X, 0, 1, 0)
SENSMART_LD(LdXDec, isa::Ptr::X, -1, 0, 0)
SENSMART_LD(LdYInc, isa::Ptr::Y, 0, 1, 0)
SENSMART_LD(LdYDec, isa::Ptr::Y, -1, 0, 0)
SENSMART_LD(LdZInc, isa::Ptr::Z, 0, 1, 0)
SENSMART_LD(LdZDec, isa::Ptr::Z, -1, 0, 0)
SENSMART_LD(Ldd, d->ins.ptr, 0, 0, d->ins.q)
SENSMART_ST(StX, isa::Ptr::X, 0, 0, 0)
SENSMART_ST(StXInc, isa::Ptr::X, 0, 1, 0)
SENSMART_ST(StXDec, isa::Ptr::X, -1, 0, 0)
SENSMART_ST(StYInc, isa::Ptr::Y, 0, 1, 0)
SENSMART_ST(StYDec, isa::Ptr::Y, -1, 0, 0)
SENSMART_ST(StZInc, isa::Ptr::Z, 0, 1, 0)
SENSMART_ST(StZDec, isa::Ptr::Z, -1, 0, 0)
SENSMART_ST(Std, d->ins.ptr, 0, 0, d->ins.q)

op_Push: {
  mem_pre();
  const uint16_t sp = mem_.sp();
  mem_.write(sp, SENSMART_RD);
  mem_.set_sp(static_cast<uint16_t>(sp - 1));
  mem_post();
  SENSMART_NEXT();
}
op_Pop: {
  mem_pre();
  const uint16_t sp = static_cast<uint16_t>(mem_.sp() + 1);
  mem_.set_reg(d->ins.rd, mem_.read(sp));
  mem_.set_sp(sp);
  mem_post();
  SENSMART_NEXT();
}

op_In:
  mem_pre();
  mem_.set_reg(d->ins.rd,
               mem_.read(static_cast<uint16_t>(kIoBase + d->ins.a)));
  mem_post();
  SENSMART_NEXT();
op_Out:
  mem_pre();
  mem_.write(static_cast<uint16_t>(kIoBase + d->ins.a), SENSMART_RD);
  // OUT to SREG replaces the local flag copy.
  if (kIoBase + d->ins.a == kSreg) sreg = mem_.sreg();
  mem_post();
  SENSMART_RETIRE();
  SENSMART_END_IF_I_CHANGED();
  SENSMART_DISPATCH();
op_Sbi: {
  mem_pre();
  const uint16_t a = static_cast<uint16_t>(kIoBase + d->ins.a);
  mem_.write(a, static_cast<uint8_t>(mem_.read(a) | (1u << d->ins.b)));
  mem_post();
  SENSMART_NEXT();
}
op_Cbi: {
  mem_pre();
  const uint16_t a = static_cast<uint16_t>(kIoBase + d->ins.a);
  mem_.write(a, static_cast<uint8_t>(mem_.read(a) & ~(1u << d->ins.b)));
  mem_post();
  SENSMART_NEXT();
}
op_Sbic: {
  mem_pre();
  const uint8_t io = mem_.read(static_cast<uint16_t>(kIoBase + d->ins.a));
  mem_post();
  SENSMART_SKIP_IF(bit(io, d->ins.b) == 0);
}
op_Sbis: {
  mem_pre();
  const uint8_t io = mem_.read(static_cast<uint16_t>(kIoBase + d->ins.a));
  mem_post();
  SENSMART_SKIP_IF(bit(io, d->ins.b) != 0);
}

op_LpmR0:
  mem_.set_reg(0, flash_byte(mem_.reg_pair(30)));
  SENSMART_NEXT();
op_Lpm:
  mem_.set_reg(d->ins.rd, flash_byte(mem_.reg_pair(30)));
  SENSMART_NEXT();
op_LpmInc: {
  const uint16_t z = mem_.reg_pair(30);
  mem_.set_reg(d->ins.rd, flash_byte(z));
  mem_.set_reg_pair(30, static_cast<uint16_t>(z + 1));
  SENSMART_NEXT();
}

op_Rjmp:
  SENSMART_JUMP(pc + 1 + static_cast<uint32_t>(d->ins.k), 0);
op_Rcall:
  call_ret = static_cast<uint16_t>(pc + 1);
  pc = pc + 1 + static_cast<uint32_t>(d->ins.k);
  goto call;
op_Jmp:
  SENSMART_JUMP(static_cast<uint32_t>(d->ins.k), 0);
op_Call:
  call_ret = static_cast<uint16_t>(pc + 2);
  pc = static_cast<uint32_t>(d->ins.k);
  goto call;
op_Ijmp:
  SENSMART_JUMP(mem_.reg_pair(30), 0);
op_Icall:
  call_ret = static_cast<uint16_t>(pc + 1);
  pc = mem_.reg_pair(30);
  goto call;
op_Ret:
  mem_.set_sreg(sreg);  // the popped bytes may alias SREG
  SENSMART_JUMP(pop16(), 0);
op_Reti:
  mem_.set_sreg(sreg);
  pc = pop16() & kPcMask;
  cycles += d->cycles;
  ++insns;
  sreg = static_cast<uint8_t>(sreg | kI);
  SENSMART_END_IF_I_CHANGED();
  SENSMART_DISPATCH();

op_Brbs:
  if (bit(sreg, d->ins.b) != 0)
    SENSMART_JUMP(pc + 1 + static_cast<uint32_t>(d->ins.k), 1);
  SENSMART_NEXT();
op_Brbc:
  if (bit(sreg, d->ins.b) == 0)
    SENSMART_JUMP(pc + 1 + static_cast<uint32_t>(d->ins.k), 1);
  SENSMART_NEXT();
op_Sbrc:
  SENSMART_SKIP_IF(bit(SENSMART_RR, d->ins.b) == 0);
op_Sbrs:
  SENSMART_SKIP_IF(bit(SENSMART_RR, d->ins.b) != 0);

op_Bset:
  sreg = static_cast<uint8_t>(sreg | (1u << d->ins.b));
  SENSMART_RETIRE();
  SENSMART_END_IF_I_CHANGED();
  SENSMART_DISPATCH();
op_Bclr:
  sreg = static_cast<uint8_t>(sreg & ~(1u << d->ins.b));
  SENSMART_RETIRE();
  SENSMART_END_IF_I_CHANGED();
  SENSMART_DISPATCH();

op_Nop:
  SENSMART_RETIRE_NOP_RUN();
  SENSMART_DISPATCH();
op_Wdr:
  SENSMART_NEXT();

op_Sleep:
  SENSMART_RETIRE();
  // do_sleep works on member state: publish the locals, run it, and read
  // back what it changed (the clock, via charge_idle; an untimed sleep
  // also collapses the horizon). SLEEP leaves SREG alone.
  publish();
  stop = do_sleep();
  cycles = cycles_;
  horizon = horizon_;
  if (stop != StopReason::Running) goto out;
  SENSMART_DISPATCH();

op_Break:
  if (service_fn_ == nullptr || pc < service_floor_) {
    stop = StopReason::Breakpoint;
    goto out;
  }
  svc_arg = static_cast<uint32_t>(d->ins.k);
  fused_ret_valid_ = false;  // standalone dispatch: handler must pop
  ++insns;
  goto service;

op_Invalid:
  stop = StopReason::InvalidInstruction;
  goto out;

call:
  // CALL/RCALL/ICALL: `pc` holds the unmasked target, `call_ret` the
  // return address.
  push16(call_ret);
  mem_post();  // stack bytes that alias SREG don't outlive the write-back
  pc &= kPcMask;
  cycles += d->cycles;
  ++insns;
  // Fused trampoline entry: a rewritten site reaches its service via a
  // call into a trampoline whose head is a Break. Between the call and
  // that Break the loop would do nothing but re-check the batch
  // conditions (calls touch neither SREG nor I/O), so when the batch
  // continues — the clock still short of the horizon — the Break is
  // dispatched right here with the pushed return address handed over,
  // skipping one fetch/dispatch round per kernel service.
  if (cycles < horizon && service_fn_ != nullptr && pc >= service_floor_) {
    const DecodedInsn& bd = entry(pc);
    if (bd.ins.op == Op::Break) {
      svc_arg = static_cast<uint32_t>(bd.ins.k);
      fused_ret_ = call_ret;
      fused_ret_valid_ = true;
      ++insns;
      goto service;
    }
  }
  SENSMART_DISPATCH();

service: {
  // The handler works on member state: sets PC, charges cycles, may
  // switch tasks (SREG, so possibly I), load flash or stop the machine.
  // Publish the locals around it and read back everything it may have
  // touched.
  publish();
  const bool ok = service_fn_(service_ctx_, *this, svc_arg);
  pc = pc_;
  cycles = cycles_;
  insns = stats_.instructions;
  sreg = mem_.sreg();
  horizon = horizon_;
  dc = dcache_ro_;
  if (!ok) {
    stop = StopReason::ServiceFault;
    goto out;
  }
  stop = stop_;
  if (stop != StopReason::Running) goto out;
  SENSMART_END_IF_I_CHANGED();
  if (cycles >= horizon) goto out;
  // A collapsed stack run's service returns to the run's NOP placeholders:
  // retire them here rather than through one more dispatch.
  d = &dc[pc];
  if (d->handler == kNopHandler) SENSMART_RETIRE_NOP_RUN();
  SENSMART_DISPATCH();
}

out:
  publish();
  return stop;

#undef SENSMART_DISPATCH
#undef SENSMART_RETIRE
#undef SENSMART_NEXT
#undef SENSMART_JUMP
#undef SENSMART_RETIRE_NOP_RUN
#undef SENSMART_SKIP_IF
#undef SENSMART_END_IF_I_CHANGED
#undef SENSMART_RD
#undef SENSMART_RR
#undef SENSMART_K8
#undef SENSMART_LD
#undef SENSMART_ST
}

#undef SENSMART_OPS

}  // namespace sensmart::emu
