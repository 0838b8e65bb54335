// Kernel service descriptors — the "trampolines" of §IV-A.
//
// The rewriter replaces each patched instruction with a CALL into a
// trampoline appended after the application code. A trampoline's *body* is
// represented by a Service descriptor: the emulator executes the Break
// marker at the trampoline head and dispatches to the native kernel handler
// for the descriptor, which performs the operation and charges the cycle
// cost the equivalent AVR sequence would take (the cost model is calibrated
// against Table II of the paper). The flash footprint of each trampoline is
// the size a real AVR body of that kind would occupy, so code-inflation
// numbers (Fig. 4) are measured from real flash layout.
//
// Identical descriptors are merged — one trampoline serves every site with
// the same instruction bits, across application programs (§IV-A). This is
// possible because every trampoline is entered by CALL: the return address
// pushed by the CPU identifies the site, and relative-branch targets are
// recomputed from it at run time.
#pragma once

#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "isa/instruction.hpp"

namespace sensmart::rw {

enum class ServiceKind : uint8_t {
  MemIndirect,      // LD/ST/LDD/STD: logical->physical translation + check
  MemIndirectGrouped,  // follower of a grouped access: pre-translated path
  MemIndirectCoalesced,  // provenance-coalesced access: check-only reuse
                         // tier against the cached translation (§6d)
  MemDirect,        // LDS/STS into the heap: static displacement + check
  MemDirectFast,    // LDS/STS statically proven in-heap: 16-bit
                    // displacement only, no run-time area classification
  ReservedDirect,   // LDS/STS to a kernel-virtualized port (Timer3, host)
  PushPop,          // PUSH/POP: stack bounds check + operation; a stack-run
                    // leader checks the whole collapsed run at once
  CallEnter,        // RCALL/CALL/ICALL: stack check, push, (translated) jump
  Return,           // RET/RETI: underflow check + jump
  IndirectJump,     // IJMP: program-memory address translation (shift table)
  BackwardBranch,   // backward RJMP/BRxx: software-trap counting + branch
  ForwardBranch,    // forward BRxx whose offset no longer fits after rewrite
  SpRead,           // IN from SPL/SPH: physical->logical SP translation
  SpWrite,          // OUT to SPL/SPH: logical->physical SP translation
  Lpm,              // LPM: program-memory data address translation
  SleepOp,          // SLEEP: block the task until its armed wake target
};

inline constexpr int kNumServiceKinds = int(ServiceKind::SleepOp) + 1;

// Flash words a real trampoline body of this kind would occupy (Break
// marker + handler sequence). Derived from hand-written AVR sequences for
// each operation; see DESIGN.md.
int body_words(ServiceKind kind);

// Flash words left in a trampoline of this kind after its handler tail has
// been peephole-merged with the first trampoline of the same kind: the stub
// materializes the operation identity and jumps into the shared tail. Never
// below 2 — the Break marker and the service-index word must stay in place.
int stub_words(ServiceKind kind);

struct Service {
  ServiceKind kind;
  isa::Instruction original;  // the instruction this trampoline stands for
  // Grouped-access metadata: a leader's bounds check covers the window
  // [ptr + group_min, ptr + group_min + group_span]. A PushPop stack-run
  // leader reuses group_span as the count of collapsed followers.
  uint8_t group_min = 0;
  uint8_t group_span = 0;
  // Stack-run leader: follower registers, 5 bits each, in run order.
  uint16_t run_regs = 0;

  // Merging key: services with identical behaviour share one trampoline.
  auto key() const {
    return std::tuple(kind, original.op, original.rd, original.rr,
                      original.k, original.a, original.b, original.q,
                      original.ptr, group_min, group_span, run_regs);
  }
};

// The pool of merged trampolines shared by all programs linked together.
class ServicePool {
 public:
  // Return the index for `svc`, creating it if new. When merging is
  // disabled (ablation / t-kernel mode) every request creates a new entry.
  // Either way services() lists the entries in first-request order.
  uint32_t intern(const Service& svc);

  // Set before the first intern().
  void set_merging(bool on) { merging_ = on; }

  const std::vector<Service>& services() const { return services_; }
  uint32_t total_body_words() const;
  uint32_t requests() const { return requests_; }  // pre-merge count
  // Pre-merge request count per ServiceKind (merge-statistics reporting).
  const std::array<uint32_t, size_t(kNumServiceKinds)>& requests_by_kind()
      const {
    return requests_by_kind_;
  }

 private:
  void grow();

  std::vector<Service> services_;
  // Merging index: an open-addressing hash table (linear probing, at most
  // half full) of services_ positions plus one; 0 marks an empty slot.
  std::vector<uint32_t> slots_;
  bool merging_ = true;
  uint32_t requests_ = 0;
  std::array<uint32_t, size_t(kNumServiceKinds)> requests_by_kind_{};
};

}  // namespace sensmart::rw
