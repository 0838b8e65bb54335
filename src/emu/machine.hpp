// The emulated mote: flash, data memory, devices and the AVR CPU core,
// glued to a cycle clock. This is the substrate every experiment runs on —
// both "native" executions and SenSmart/t-kernel executions (where the
// loaded image is a rewritten one and kernel services are reached through
// the service hook).
//
// The hot path is the batched dispatch loop: straight-line instructions
// execute up to the next *event horizon* — the earliest of the cycle
// budget and the armed IRQ probe time — with no per-instruction interrupt
// or stop polling. Device I/O that can change interrupt state collapses
// the horizon instead (see DESIGN.md §"Event-horizon execution"). Each
// decode-cache entry carries its handler index, so the loop is one
// indirect jump per instruction, and one per run of NOP placeholders.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "emu/devices.hpp"
#include "emu/memory.hpp"
#include "isa/codec.hpp"

namespace sensmart::emu {

enum class StopReason {
  Running,
  Halted,              // program wrote kHostHalt
  CycleLimit,          // run() budget exhausted
  InvalidInstruction,  // undecodable opcode reached
  Breakpoint,          // Break outside the service region / no hook
  Deadlock,            // SLEEP with no wake source armed
  ServiceFault,        // service hook reported a fault
};

const char* to_string(StopReason r);

struct RunStats {
  uint64_t instructions = 0;
  uint64_t active_cycles = 0;  // cycles spent executing
  uint64_t idle_cycles = 0;    // cycles fast-forwarded through SLEEP
};

class Machine {
 public:
  static constexpr uint32_t kFlashWords = 0x10000;  // 128 KB

  // Longest run of consecutive NOP words one decode-cache entry retires
  // in a single dispatch (DESIGN.md §6c "NOP runs").
  static constexpr uint32_t kMaxNopRun = 32;

  // Decode-cache entry: the decoded instruction plus its execution
  // metadata, so the hot loop never re-derives size/base-cycles through
  // the out-of-line isa:: classification switches. An entry whose bytes
  // are all zero is "not decoded yet" (handler 0, no NOP run), so a
  // private cache starts as one zero-filled allocation; decoding writes
  // every field.
  struct DecodedInsn {
    isa::Instruction ins;
    uint8_t size = 1;     // isa::size_words(ins.op)
    uint8_t cycles = 1;   // isa::base_cycles(ins.op)
    uint8_t handler = 0;  // dispatch index: 0 = not decoded yet, else op + 1
    uint8_t nop_run = 0;  // NOP only: NOP words from here, 1..kMaxNopRun
  };
  static_assert(sizeof(DecodedInsn) == 16, "one decode entry per 16 bytes");
  // Zero-filled and copied storage holds entries without running a
  // constructor: the type must be trivially copyable and destructible.
  static_assert(std::is_trivially_copyable_v<DecodedInsn> &&
                std::is_trivially_destructible_v<DecodedInsn>);

  // One naturalized image shared by a fleet of machines: the full flash
  // plus a completely pre-decoded cache (every entry decoded), immutable
  // after build_shared_image(). Because every entry is decoded, an
  // adopting machine's fetch path never writes into it — concurrent
  // execution of any number of machines over one SharedImage is read-only
  // and race-free. A machine that needs to mutate flash (load_flash)
  // detaches first with a private copy-on-write snapshot.
  struct SharedImage {
    std::vector<uint16_t> flash;      // kFlashWords; erased state 0xFFFF
    std::vector<DecodedInsn> dcache;  // kFlashWords, all entries decoded
    uint32_t used = 0;                // words occupied by the image
    size_t bytes() const {
      return flash.size() * sizeof(uint16_t) +
             dcache.size() * sizeof(DecodedInsn);
    }
  };

  Machine();

  // Build an immutable, fully pre-decoded image for adopt_image(). Cost is
  // one decode pass over all of flash, paid once per fleet instead of
  // lazily per machine.
  static std::shared_ptr<const SharedImage> build_shared_image(
      std::span<const uint16_t> words, uint32_t base = 0);

  // Share `img` as this machine's flash + decode cache, releasing any
  // private copies. Equivalent to load_flash() of the same words for every
  // observable behavior; the image memory is shared, not owned.
  void adopt_image(std::shared_ptr<const SharedImage> img);
  bool image_shared() const { return shared_ != nullptr; }
  // Heap bytes this machine privately holds for flash + decode cache
  // (zero while unloaded or adopted; the SharedImage tests in
  // tests/emu_cpu_test.cpp pin this).
  size_t private_image_bytes() const {
    return flash_.capacity() * sizeof(uint16_t) +
           (dcache_ ? kFlashWords * sizeof(DecodedInsn) : 0);
  }

  // Load `words` at flash word address `base` and reset decode caches.
  // A machine sharing an image detaches (copy-on-write) first.
  void load_flash(std::span<const uint16_t> words, uint32_t base = 0);
  uint16_t flash_word(uint32_t word_addr) const {
    // flash_ro_ is null only before any image exists; erased flash reads
    // 0xFFFF, matching the eagerly-allocated historical behavior.
    return flash_ro_ ? flash_ro_[word_addr % kFlashWords] : 0xFFFF;
  }
  uint8_t flash_byte(uint32_t byte_addr) const {
    const uint16_t w = flash_word(byte_addr >> 1);
    return static_cast<uint8_t>((byte_addr & 1) ? (w >> 8) : (w & 0xFF));
  }
  uint32_t flash_used_words() const { return flash_used_; }

  // Reset the CPU execution state: PC, SP (top of SRAM), SREG, the stop
  // reason, and any armed IRQ-probe/event-horizon time. Deliberately
  // preserved: flash and the decode cache, data-memory contents, device
  // state, the cycle clock and run statistics — so a warm restart observes
  // the same world an AVR would after a jump to the reset vector.
  void reset(uint32_t entry_word = kResetVector);

  StopReason step();
  StopReason run(uint64_t max_cycles);

  // --- Kernel/service integration -----------------------------------------
  // A Break executed at word address >= `floor` invokes the service
  // handler; the handler must set the PC and charge cycles itself.
  // Returning false faults the machine.
  //
  // Two registration forms: the raw context+function-pointer form is the
  // hot path (no std::function indirection on every trap); the
  // std::function form wraps the same mechanism for convenience.
  //
  // `svc_arg` is the flash word following the Break (the rewriter stores
  // the service index there); it is served from the decode cache so the
  // handler does not refetch it on every trap.
  using ServiceFn = bool (*)(void* ctx, Machine&, uint32_t svc_arg);
  using ServiceHook = std::function<bool(Machine&)>;
  void set_service_handler(uint32_t floor, ServiceFn fn, void* ctx) {
    service_floor_ = floor;
    service_fn_ = fn;
    service_ctx_ = ctx;
  }
  void set_service_hook(uint32_t floor, ServiceHook hook);

  // --- State access ---------------------------------------------------------
  DataMemory& mem() { return mem_; }
  const DataMemory& mem() const { return mem_; }
  DeviceHub& dev() { return dev_; }
  const DeviceHub& dev() const { return dev_; }

  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t pc) { pc_ = pc % kFlashWords; }

  uint64_t cycles() const { return cycles_; }
  // Charge active cycles (used by the CPU core and by kernel handlers to
  // account for the cost of trampoline/service bodies).
  void charge(uint64_t n) { cycles_ += n; }
  // Fast-forward the clock without executing (SLEEP / kernel idle).
  void charge_idle(uint64_t n) {
    cycles_ += n;
    stats_.idle_cycles += n;
  }

  // The clock only ever advances through charge()/charge_idle(), so the
  // active share is derived here instead of being a second read-modify-
  // write on every retired instruction.
  RunStats stats() const {
    RunStats s = stats_;
    s.active_cycles = cycles_ - stats_.idle_cycles;
    return s;
  }
  StopReason stop_reason() const { return stop_; }

  // Push/pop on the *physical* stack (used by CALL/RET and kernel
  // services). Inline: these run on every service trap.
  void push16(uint16_t v) {
    const uint16_t sp = mem_.sp();
    mem_.set_raw(sp, static_cast<uint8_t>(v & 0xFF));
    mem_.set_raw(static_cast<uint16_t>(sp - 1), static_cast<uint8_t>(v >> 8));
    mem_.set_sp(static_cast<uint16_t>(sp - 2));
  }
  uint16_t pop16() {
    const uint16_t sp = mem_.sp();
    const uint8_t hi = mem_.raw(static_cast<uint16_t>(sp + 1));
    const uint8_t lo = mem_.raw(static_cast<uint16_t>(sp + 2));
    mem_.set_sp(static_cast<uint16_t>(sp + 2));
    return static_cast<uint16_t>(lo | (hi << 8));
  }

  // The return address the trampoline call pushed, for a service handler.
  // When the Break was dispatched fused with its call (same batch step)
  // the just-pushed value is handed over directly and only SP is
  // readjusted — the two stack bytes the call wrote stay exactly as a
  // real pop would leave them, so memory and SP state are identical to
  // the unfused path. Handlers must consume this exactly once per trap,
  // before touching the task stack.
  uint16_t service_ret() {
    if (fused_ret_valid_) {
      fused_ret_valid_ = false;
      mem_.set_sp(static_cast<uint16_t>(mem_.sp() + 2));
      return fused_ret_;
    }
    return pop16();
  }

  // Force a stop from inside a service hook (e.g. task fault in native run).
  void stop(StopReason r) { stop_ = r; }

 private:
  // The decoded entry at `word_addr` (< kFlashWords) of a materialized
  // image. dcache_ro_ views either the private cache (lazily fillable) or
  // a shared image (every entry pre-decoded, so the fill branch is dead
  // and the shared data is never written).
  const DecodedInsn& entry(uint32_t word_addr) {
    const DecodedInsn& d = dcache_ro_[word_addr];
    if (d.handler == 0) fill_entry(word_addr);
    return d;
  }
  void fill_entry(uint32_t word_addr);
  // Allocate the private flash/decode-cache arrays on first need; a
  // machine holding a SharedImage detaches by snapshotting it (the
  // copy-on-write half of the dedup contract).
  void materialize_image();
  static void decode_entry(std::span<const uint16_t> flash,
                           uint32_t word_addr, DecodedInsn& d);

  // The dispatch loop shared by run() and step(): executes from pc_ while
  // the clock is short of horizon_ (the first instruction unconditionally;
  // callers guarantee cycles_ < horizon_) and returns why it stopped —
  // Running when the batch merely ended.
  //
  // The hot execution state (PC, cycle clock, retired-instruction count,
  // SREG) lives in locals of this frame instead of members: every opaque
  // call in an instruction body (I/O hook, service handler) would
  // otherwise force the member copies to be reloaded and stored once per
  // emulated instruction. The members are synchronized exactly where an
  // observer can look: before any data-memory access (the I/O hook reads
  // the clock, and the accessed address may alias SREG), around service
  // dispatch and SLEEP, and when the batch ends.
  StopReason execute_batch();
  void dispatch_irq(Irq irq);
  bool maybe_take_irq();
  StopReason do_sleep();
  bool irq_enabled() const {
    return (mem_.sreg() & (1u << isa::kFlagI)) != 0;
  }

  // Execute helpers. `sreg_local` is the in-flight flag copy a store to
  // the SREG data address must refresh.
  uint16_t pointer_addr(isa::Ptr p) const;
  void set_pointer(isa::Ptr p, uint16_t v);
  void mem_indirect(uint8_t& sreg_local, const isa::Instruction& ins,
                    bool store, isa::Ptr p, int pre, int post, uint8_t disp);

  static bool hook_thunk(void* self, Machine& m, uint32_t svc_arg);

  // Image storage: either private (flash_/dcache_, allocated lazily on
  // first load/fetch) or shared (shared_, immutable). flash_ro_/dcache_ro_
  // are the active read views; fill_entry() writes through dcache_ only,
  // which aliases dcache_ro_ exactly when the image is private. dcache_
  // holds kFlashWords entries from calloc/malloc.
  struct FreeDeleter {
    void operator()(DecodedInsn* p) const { std::free(p); }
  };
  std::vector<uint16_t> flash_;
  std::unique_ptr<DecodedInsn[], FreeDeleter> dcache_;
  std::shared_ptr<const SharedImage> shared_;
  const uint16_t* flash_ro_ = nullptr;
  const DecodedInsn* dcache_ro_ = nullptr;
  uint32_t flash_used_ = 0;

  DataMemory mem_;
  DeviceHub dev_{mem_};

  uint32_t pc_ = 0;
  uint64_t cycles_ = 0;
  uint64_t next_irq_probe_ = 0;
  // End of the current straight-line batch: in run(), min(cycle budget,
  // next_irq_probe_ when interrupts are enabled); in step(), one cycle
  // ahead. Collapsed to 0 by the I/O hook when device/interrupt state may
  // have changed.
  uint64_t horizon_ = 0;
  RunStats stats_;
  StopReason stop_ = StopReason::Running;

  uint32_t service_floor_ = kFlashWords;
  ServiceFn service_fn_ = nullptr;
  void* service_ctx_ = nullptr;
  ServiceHook service_hook_;  // storage for the std::function form

  // Fused-dispatch hand-off for service_ret(): the return address the
  // trampoline call pushed in the same batch step as the Break dispatch.
  uint16_t fused_ret_ = 0;
  bool fused_ret_valid_ = false;
};

}  // namespace sensmart::emu
