// Binary analysis performed by the base-station rewriter before patching:
// linear decode, basic-block discovery, grouped-memory-access detection
// (§IV-C2: adjacent LDD/STD through the same unmodified index register are
// translated once; the paper observes 2- and 4-instruction groups for word
// and double-word data), and the two block-local dataflow passes layered on
// top of it — pointer-provenance translation coalescing and stack-run
// collapsing (DESIGN.md §6d).
#pragma once

#include <cstdint>
#include <vector>

#include "assembler/assembler.hpp"
#include "isa/codec.hpp"

namespace sensmart::rw {

enum class GroupRole : uint8_t { None, Leader, Follower };

// Role of a PUSH/POP site inside a collapsed same-op run: the leader's
// trampoline checks bounds for the whole run, followers stay native.
enum class StackRunRole : uint8_t { None, Leader, Follower };

struct DecodedSite {
  uint32_t addr = 0;  // original word address
  isa::Instruction ins;
  int size = 1;  // words
  bool is_data = false;  // constant flash data: copied verbatim
  bool block_leader = false;
  GroupRole group = GroupRole::None;
  uint8_t group_min_q = 0;   // leader: smallest displacement in the group
  uint8_t group_span = 0;    // leader: max displacement minus min
  // Translation coalescing: a later access in the same block through a
  // pointer whose provenance is still live takes the check-only reuse tier.
  bool coalesced = false;
  StackRunRole stack_run = StackRunRole::None;
  uint8_t run_extra = 0;     // stack-run leader: members beyond itself
  uint16_t run_regs = 0;     // leader: follower registers, 5 bits each
};

// Decode the whole image and annotate basic-block leaders and access groups.
// `grouping` disables the grouped-access optimization when false (ablation).
// Throws std::runtime_error if the last instruction or a data range runs
// past the end of the code.
std::vector<DecodedSite> analyze(const assembler::Image& img, bool grouping);

// Dense original-address -> site lookup over one image. It has one slot per
// code word plus one past the end, sized from the image itself and never
// from an address read out of it, so a hostile branch target can make a
// lookup fail but never make the index grow.
class SiteIndex {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  SiteIndex(const std::vector<DecodedSite>& sites, size_t code_words);

  // The site starting at word `addr`; npos for an address before word 0,
  // past the end of the code, or in the middle of an instruction or data
  // range.
  size_t find(int64_t addr) const {
    if (addr < 0 || static_cast<uint64_t>(addr) >= slot_.size()) return npos;
    const uint32_t i = slot_[static_cast<size_t>(addr)];
    return i == kNone ? npos : i;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> slot_;
};

// Pointer-provenance coalescing pass: within a basic block, after one
// translated indirect access through X/Y/Z, later indirect accesses through
// the same pointer — not rebuilt in between, with no relocation-capable or
// blocking service in between — are marked `coalesced` and take the
// check-only reuse tier instead of a full translation. Grouped followers
// (already cheaper) and group leaders (their window check guards their
// followers) are left untouched. Returns the number of sites marked.
size_t mark_coalesced(std::vector<DecodedSite>& sites);

// Stack-run collapsing pass: maximal runs of adjacent same-op PUSH (or POP)
// sites inside one block, capped at `cap` members, become one leader whose
// trampoline performs the whole run — with the identical per-member bounds
// check, relocation request and kill condition the uncollapsed services
// would apply, so the machine-state trajectory is the same with the pass on
// or off — while the follower sites shrink to one-word placeholders. The
// follower registers ride in `run_regs` (5 bits each, run order), which
// caps the run at 1 leader + 3 followers. Returns the follower count
// (trampoline calls saved).
size_t mark_stack_runs(std::vector<DecodedSite>& sites, int cap = 4);

// Count of sites whose role is Follower (used by inflation stats/tests).
size_t count_followers(const std::vector<DecodedSite>& sites);

}  // namespace sensmart::rw
