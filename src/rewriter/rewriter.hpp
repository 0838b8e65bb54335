// The base-station binary rewriter (§IV-A): translates a compiled
// application image into a "naturalized" program that cooperates with the
// kernel runtime.
//
// Patching rules, following the paper:
//  * control flow: every backward branch is redirected through a trampoline
//    that performs software-trap counting (1/256) for interrupt-free
//    preemption; forward relative branches are retargeted in place and only
//    trampolined when inflation pushes their target out of encoding range;
//    absolute JMP/CALL are retargeted; IJMP/ICALL/LPM get run-time
//    program-address translation via the shift table; RET is checked.
//  * memory: indirect loads/stores get run-time logical->physical
//    translation with bounds checks (grouped accesses translate once per
//    group); direct accesses to the heap get a static displacement
//    trampoline; direct accesses to the I/O area stay native, except for
//    kernel-reserved ports (Timer3, host ports) which are virtualized.
//  * stack: PUSH/POP/CALL/RET are checked against the task's region, and
//    stack-pointer reads/writes are translated between the logical and
//    physical stack locations.
//
// Every patched instruction becomes exactly one CALL (or JMP) instruction,
// so the naturalized program has the same instruction count as the original
// ("approximate linearity"); 16-bit instructions that became 32-bit CALLs
// are recorded in the shift table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "rewriter/address_map.hpp"
#include "rewriter/analysis.hpp"
#include "rewriter/service.hpp"

namespace sensmart::rw {

struct RewriteOptions {
  // Patch backward branches for software-trap preemption. Disabled for the
  // "memory protection only" configuration of Fig. 5.
  bool patch_branches = true;
  // Grouped-access optimization (§IV-C2); ablatable.
  bool grouped_access = true;
  // Block-local pointer-provenance coalescing (DESIGN.md §6d): repeated
  // indirect accesses through an untouched pointer reuse the translation
  // via the check-only tier instead of re-trapping at full cost.
  bool coalesce_translations = true;
  // Collapse adjacent PUSH (or POP) runs: one bounds-checking leader
  // trampoline plus native follower instructions. Task-visible behavior is
  // identical because the run cap (4) never exceeds the kernel's enforced
  // minimum red-zone margin.
  bool collapse_stack_checks = true;
  // LDS/STS whose address is statically provable in-heap take the
  // displacement-only fast service (no run-time area classification).
  bool fast_direct_heap = true;
  // Peephole tail merging in the trampoline pool: trampolines of one kind
  // share the first one's handler tail, later ones shrink to stubs.
  bool tramp_tail_merge = true;
  // Scale factor on trampoline body sizes. 1.0 models SenSmart's shared,
  // base-station-optimized bodies; the t-kernel mode uses a larger factor
  // together with disabled merging to model inline on-node rewriting.
  double body_scale = 1.0;
};

// The configuration of §IV exactly as published, without the optimization
// tiers layered on after it. The figure benches pin their paper columns to
// this so the reproduced numbers keep matching the paper while the default
// configuration carries the faster code generation.
RewriteOptions paper_options();

// First word of every trampoline call site: a two-word CALL whose second
// word the linker sets to the service's flash address.
inline constexpr uint16_t kTrampolineCall = 0x940E;

struct NaturalizedProgram {
  std::string name;
  uint32_t base = 0;              // load base (flash word address)
  std::vector<uint16_t> code;     // naturalized body (no trampolines)
  AddressMap map;                 // original -> naturalized addresses
  uint16_t heap_size = 0;
  uint32_t entry_orig = 0;

  // CALL placeholders (kTrampolineCall) that must be pointed at the
  // trampoline region once the linker has placed it:
  // code[index+1] = address_of(service).
  struct Callsite {
    uint32_t code_index;
    uint32_t service;
  };
  std::vector<Callsite> callsites;

  // Inflation statistics (Fig. 4).
  uint32_t orig_words = 0;
  uint32_t shift_entries = 0;
  uint32_t patched_sites = 0;

  uint32_t entry_naturalized() const { return map.to_naturalized(entry_orig); }
};

// Rewrite one program to be loaded at `base`, interning trampolines into
// the shared pool.
NaturalizedProgram rewrite(const assembler::Image& img, uint32_t base,
                           ServicePool& pool, const RewriteOptions& opts);

// True if the rewriter virtualizes direct accesses to this data address
// (kernel-reserved ports, §IV-A bullet 3).
bool is_reserved_port(uint16_t data_addr);

}  // namespace sensmart::rw
