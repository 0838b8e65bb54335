#include "rewriter/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace sensmart::rw {

using isa::Instruction;
using isa::Op;

namespace {

bool is_control_transfer(Op op) {
  switch (op) {
    case Op::Rjmp:
    case Op::Rcall:
    case Op::Jmp:
    case Op::Call:
    case Op::Ijmp:
    case Op::Icall:
    case Op::Ret:
    case Op::Reti:
    case Op::Brbs:
    case Op::Brbc:
      return true;
    default:
      return false;
  }
}

bool is_skip(Op op) {
  return op == Op::Cpse || op == Op::Sbrc || op == Op::Sbrs ||
         op == Op::Sbic || op == Op::Sbis;
}

// Groupable access: LDD/STD through Y or Z (plain LD Y/Z decode as q = 0).
bool groupable(const Instruction& ins) {
  return ins.op == Op::Ldd || ins.op == Op::Std;
}

}  // namespace

SiteIndex::SiteIndex(const std::vector<DecodedSite>& sites,
                     size_t code_words)
    : slot_(code_words + 1, kNone) {
  for (size_t i = 0; i < sites.size(); ++i)
    slot_[sites[i].addr] = static_cast<uint32_t>(i);
}

std::vector<DecodedSite> analyze(const assembler::Image& img, bool grouping) {
  const size_t words = img.code.size();
  std::vector<DecodedSite> sites;
  sites.reserve(words);

  auto data_range_at = [&img](uint32_t pc) -> const std::pair<uint32_t, uint32_t>* {
    for (const auto& r : img.data_ranges)
      if (pc >= r.first && pc < r.second) return &r;
    return nullptr;
  };

  for (uint32_t pc = 0; pc < words;) {
    DecodedSite s;
    s.addr = pc;
    if (const auto* r = data_range_at(pc)) {
      s.is_data = true;
      s.size = static_cast<int>(r->second - pc);
    } else {
      s.ins = isa::decode(img.code, pc);
      s.size = isa::size_words(s.ins.op);
    }
    // The rewriter copies every word of a site; one that ends past the
    // code would be read out of bounds.
    if (pc + static_cast<uint32_t>(s.size) > words)
      throw std::runtime_error(img.name +
                               ": instruction or data range runs past the "
                               "end of the code");
    sites.push_back(s);
    pc += static_cast<uint32_t>(s.size);
  }

  const SiteIndex by_addr(sites, words);
  auto mark_leader = [&](int64_t addr) {
    const size_t i = by_addr.find(addr);
    if (i != SiteIndex::npos) sites[i].block_leader = true;
  };

  mark_leader(img.entry);
  for (size_t i = 0; i < sites.size(); ++i) {
    const DecodedSite& s = sites[i];
    const Op op = s.ins.op;
    if (isa::is_relative_branch(op))
      mark_leader(int64_t(s.addr) + 1 + s.ins.k);
    if (op == Op::Jmp || op == Op::Call) mark_leader(s.ins.k);
    if (is_control_transfer(op) && i + 1 < sites.size())
      sites[i + 1].block_leader = true;
    if (is_skip(op)) {
      // Both the skipped instruction's successor and the fall-through are
      // jump targets of the skip.
      if (i + 1 < sites.size()) sites[i + 1].block_leader = true;
      if (i + 2 < sites.size()) sites[i + 2].block_leader = true;
    }
  }

  if (grouping) {
    size_t i = 0;
    while (i < sites.size()) {
      if (!groupable(sites[i].ins)) {
        ++i;
        continue;
      }
      // Extend the group over adjacent groupable accesses through the same
      // index register, stopping at basic-block boundaries. Cap at 4
      // members (word/double-word accesses per the paper).
      size_t j = i + 1;
      while (j < sites.size() && j - i < 4 && groupable(sites[j].ins) &&
             !sites[j].block_leader &&
             isa::pointer_of(sites[j].ins) == isa::pointer_of(sites[i].ins)) {
        ++j;
      }
      if (j - i >= 2) {
        uint8_t qmin = sites[i].ins.q, qmax = sites[i].ins.q;
        for (size_t k = i; k < j; ++k) {
          qmin = std::min(qmin, sites[k].ins.q);
          qmax = std::max(qmax, sites[k].ins.q);
        }
        sites[i].group = GroupRole::Leader;
        sites[i].group_min_q = qmin;
        sites[i].group_span = static_cast<uint8_t>(qmax - qmin);
        for (size_t k = i + 1; k < j; ++k)
          sites[k].group = GroupRole::Follower;
      }
      i = j;
    }
  }

  return sites;
}

namespace {

// Registers written by `ins` that overlap the pointer pair at `base`
// (26/28/30). Loads and ALU results into r26..r31 rebuild a pointer, so
// its provenance dies; everything else leaves the pair intact.
bool clobbers_pair(const Instruction& ins, uint8_t base) {
  auto hits = [base](uint8_t r) { return r == base || r == base + 1; };
  switch (ins.op) {
    case Op::Add: case Op::Adc: case Op::Sub: case Op::Sbc:
    case Op::And: case Op::Or: case Op::Eor: case Op::Mov:
    case Op::Subi: case Op::Sbci: case Op::Andi: case Op::Ori:
    case Op::Ldi:
    case Op::Com: case Op::Neg: case Op::Swap: case Op::Inc:
    case Op::Dec: case Op::Asr: case Op::Lsr: case Op::Ror:
    case Op::Lds: case Op::Pop: case Op::In:
    case Op::Lpm:
      return hits(ins.rd);
    case Op::Mul:
      return hits(0) || hits(1);
    case Op::LpmR0:
      return hits(0);
    case Op::Adiw: case Op::Sbiw: case Op::Movw:
      return hits(ins.rd) || hits(static_cast<uint8_t>(ins.rd + 1));
    case Op::LpmInc:
      // Reads program memory through Z and post-increments it: Z is no
      // longer a (translated) data pointer afterwards.
      return hits(ins.rd) || base == 30;
    default:
      return false;
  }
}

// Sites whose kernel service may relocate memory regions (stack growth) or
// block the task (after which other tasks run and may trigger relocation):
// any cached translation window is stale afterwards.
bool may_relocate_or_block(const Instruction& ins) {
  if (ins.op == Op::Push || ins.op == Op::Sleep) return true;
  if (ins.op == Op::Out && isa::writes_sp(ins.op, ins.a)) return true;
  // Calls grow the stack too, but they end the basic block anyway and the
  // successor site is a block leader; listed for clarity.
  return isa::is_call(ins.op);
}

int ptr_index(isa::Ptr p) {
  switch (p) {
    case isa::Ptr::X: return 0;
    case isa::Ptr::Y: return 1;
    default: return 2;
  }
}

constexpr uint8_t kPtrBase[3] = {26, 28, 30};

}  // namespace

size_t mark_coalesced(std::vector<DecodedSite>& sites) {
  // Forward scan with three provenance bits: "an indirect access through
  // this pointer has translated it, and neither the pointer nor the region
  // map can have changed since". Block leaders reset all three — control
  // can arrive there from elsewhere, including the backward-branch traps
  // that are the only preemption points (§IV-B), so nothing is live across
  // them.
  bool live[3] = {false, false, false};
  size_t marked = 0;
  for (DecodedSite& s : sites) {
    if (s.is_data || s.block_leader) live[0] = live[1] = live[2] = false;
    if (s.is_data) continue;
    const Instruction& ins = s.ins;

    if (isa::is_mem_indirect(ins.op)) {
      const int p = ptr_index(isa::pointer_of(ins));
      if (live[p] && s.group == GroupRole::None) {
        s.coalesced = true;
        ++marked;
      }
      live[p] = true;
      // A load may overwrite a pointer pair (e.g. LDD r26, Z+4 rebuilds X
      // while dereferencing Z); kill the overwritten pair's provenance —
      // including the dereferenced pointer's own, if the load targets it.
      if (!isa::is_store(ins.op)) {
        for (int o = 0; o < 3; ++o)
          if (ins.rd == kPtrBase[o] || ins.rd == kPtrBase[o] + 1)
            live[o] = false;
      }
      continue;
    }

    if (may_relocate_or_block(ins)) {
      live[0] = live[1] = live[2] = false;
      continue;
    }
    for (int o = 0; o < 3; ++o)
      if (live[o] && clobbers_pair(ins, kPtrBase[o])) live[o] = false;
  }
  return marked;
}

size_t mark_stack_runs(std::vector<DecodedSite>& sites, int cap) {
  if (cap > 4) cap = 4;  // run_regs packs at most 3 followers
  size_t followers = 0;
  size_t i = 0;
  while (i < sites.size()) {
    const Op op = sites[i].ins.op;
    if (sites[i].is_data || (op != Op::Push && op != Op::Pop)) {
      ++i;
      continue;
    }
    // Extend over adjacent same-op sites; a member that is a block leader
    // can be reached from elsewhere and must start its own checked run.
    size_t j = i + 1;
    while (j < sites.size() && j - i < static_cast<size_t>(cap) &&
           sites[j].ins.op == op && !sites[j].is_data &&
           !sites[j].block_leader) {
      ++j;
    }
    if (j - i >= 2) {
      sites[i].stack_run = StackRunRole::Leader;
      sites[i].run_extra = static_cast<uint8_t>(j - i - 1);
      uint16_t regs = 0;
      for (size_t k = i + 1; k < j; ++k) {
        sites[k].stack_run = StackRunRole::Follower;
        regs |= static_cast<uint16_t>((sites[k].ins.rd & 0x1F)
                                      << (5 * (k - i - 1)));
        ++followers;
      }
      sites[i].run_regs = regs;
    }
    i = j;
  }
  return followers;
}

size_t count_followers(const std::vector<DecodedSite>& sites) {
  return static_cast<size_t>(
      std::count_if(sites.begin(), sites.end(), [](const DecodedSite& s) {
        return s.group == GroupRole::Follower;
      }));
}

}  // namespace sensmart::rw
