#include "rewriter/rewriter.hpp"

#include <optional>
#include <stdexcept>
#include <tuple>

#include "emu/io_map.hpp"

namespace sensmart::rw {

using isa::Instruction;
using isa::Op;

bool is_reserved_port(uint16_t a) {
  return a == emu::kTcnt3L || a == emu::kTcnt3H || a == emu::kTccr3 ||
         a == emu::kHostHalt || a == emu::kHostOut ||
         a == emu::kSleepTargetL || a == emu::kSleepTargetH;
}

namespace {

// How a site is emitted in the naturalized program.
enum class PatchClass : uint8_t {
  Keep,        // copied (JMP/CALL/relative branches retargeted in place)
  RelaxBr,     // forward Brxx: keep if the offset fits, else trampoline
  RelaxRjmp,   // forward Rjmp: keep if the offset fits, else widen to JMP
  Tramp,       // replaced by CALL <trampoline>
  Placeholder, // collapsed stack-run follower: the leader's trampoline
               // performed it; a one-word NOP holds the site's place
};

struct Plan {
  PatchClass cls = PatchClass::Keep;
  Service svc;       // valid when the site may become a trampoline
  bool promoted = false;  // RelaxBr/RelaxRjmp: forced to the wide form
  int nat_size = 1;
  uint32_t nat_addr = 0;
};

// Decide the service kind for a patched instruction, or nullopt to keep it.
std::optional<Service> classify(const DecodedSite& s,
                                const RewriteOptions& opts,
                                uint16_t heap_size) {
  const Instruction& ins = s.ins;
  Service svc;
  svc.original = ins;

  if (isa::is_mem_indirect(ins.op)) {
    if (s.coalesced) {
      svc.kind = ServiceKind::MemIndirectCoalesced;
    } else if (s.group == GroupRole::Follower) {
      svc.kind = ServiceKind::MemIndirectGrouped;
    } else {
      svc.kind = ServiceKind::MemIndirect;
      if (s.group == GroupRole::Leader) {
        svc.group_min = s.group_min_q;
        svc.group_span = s.group_span;
      }
    }
    return svc;
  }
  if (isa::is_mem_direct(ins.op)) {
    const auto addr = static_cast<uint16_t>(ins.k);
    if (addr < emu::kSramBase) {
      if (!is_reserved_port(addr)) return std::nullopt;  // native I/O access
      svc.kind = ServiceKind::ReservedDirect;
      return svc;
    }
    // A direct address statically inside this program's heap can never
    // land elsewhere at run time (the heap displacement is the only thing
    // relocation changes), so the area classification is resolved on the
    // base station and the trampoline only applies the displacement.
    svc.kind = (opts.fast_direct_heap &&
                addr < emu::kSramBase + heap_size)
                   ? ServiceKind::MemDirectFast
                   : ServiceKind::MemDirect;
    return svc;
  }
  if (isa::is_stack_op(ins.op)) {
    svc.kind = ServiceKind::PushPop;
    // A run leader's service performs the collapsed followers' operations
    // too; the count rides in group_span, their registers in run_regs.
    // (Follower sites never reach classify — they become placeholders.)
    svc.group_span = s.run_extra;
    svc.run_regs = s.run_regs;
    return svc;
  }
  if (ins.op == Op::In) {
    if (!isa::reads_sp(ins.op, ins.a)) return std::nullopt;
    svc.kind = ServiceKind::SpRead;
    return svc;
  }
  if (ins.op == Op::Out) {
    if (!isa::writes_sp(ins.op, ins.a)) return std::nullopt;
    svc.kind = ServiceKind::SpWrite;
    return svc;
  }
  if (ins.op == Op::Lpm || ins.op == Op::LpmInc || ins.op == Op::LpmR0) {
    svc.kind = ServiceKind::Lpm;
    return svc;
  }
  if (ins.op == Op::Rcall || ins.op == Op::Call || ins.op == Op::Icall) {
    svc.kind = ServiceKind::CallEnter;
    return svc;
  }
  if (isa::is_return(ins.op)) {
    svc.kind = ServiceKind::Return;
    return svc;
  }
  if (ins.op == Op::Ijmp) {
    svc.kind = ServiceKind::IndirectJump;
    return svc;
  }
  if (ins.op == Op::Sleep) {
    svc.kind = ServiceKind::SleepOp;
    return svc;
  }
  if ((ins.op == Op::Rjmp || ins.op == Op::Brbs || ins.op == Op::Brbc) &&
      ins.k < 0 && opts.patch_branches) {
    svc.kind = ServiceKind::BackwardBranch;
    return svc;
  }
  return std::nullopt;
}

}  // namespace

RewriteOptions paper_options() {
  RewriteOptions o;
  o.coalesce_translations = false;
  o.collapse_stack_checks = false;
  o.fast_direct_heap = false;
  o.tramp_tail_merge = false;
  return o;
}

NaturalizedProgram rewrite(const assembler::Image& img, uint32_t base,
                           ServicePool& pool, const RewriteOptions& opts) {
  std::vector<DecodedSite> sites = analyze(img, opts.grouped_access);
  if (opts.coalesce_translations) mark_coalesced(sites);
  if (opts.collapse_stack_checks) mark_stack_runs(sites);

  // --- Plan each site --------------------------------------------------------
  std::vector<Plan> plans(sites.size());
  const SiteIndex site_at(sites, img.code.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    Plan& p = plans[i];
    p.nat_size = sites[i].size;
    if (sites[i].is_data) continue;

    if (sites[i].stack_run == StackRunRole::Follower) {
      p.cls = PatchClass::Placeholder;
      p.nat_size = 1;
      continue;
    }
    if (auto svc = classify(sites[i], opts, img.heap_size)) {
      p.cls = PatchClass::Tramp;
      p.svc = *svc;
      p.nat_size = 2;
      continue;
    }
    const Op op = sites[i].ins.op;
    if (op == Op::Rjmp) {
      p.cls = PatchClass::RelaxRjmp;  // forward, or backward w/o traps
    } else if (op == Op::Brbs || op == Op::Brbc) {
      p.cls = PatchClass::RelaxBr;
      p.svc.kind = ServiceKind::ForwardBranch;
      p.svc.original = sites[i].ins;
    } else if (op == Op::Invalid) {
      throw std::runtime_error(img.name +
                               ": undecodable instruction in code region");
    }
  }

  // --- Relaxation: find a fixpoint of sizes and addresses --------------------
  auto recompute_addrs = [&] {
    uint32_t a = base;
    for (size_t i = 0; i < sites.size(); ++i) {
      plans[i].nat_addr = a;
      a += static_cast<uint32_t>(plans[i].nat_size);
    }
  };
  auto target_site = [&](size_t i) -> size_t {
    const size_t t = site_at.find(int64_t(sites[i].addr) + 1 + sites[i].ins.k);
    if (t == SiteIndex::npos)
      throw std::runtime_error(img.name + ": branch into the middle of an instruction");
    return t;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    recompute_addrs();
    for (size_t i = 0; i < sites.size(); ++i) {
      Plan& p = plans[i];
      if (p.promoted) continue;
      if (p.cls != PatchClass::RelaxBr && p.cls != PatchClass::RelaxRjmp)
        continue;
      const int64_t off = int64_t(plans[target_site(i)].nat_addr) -
                          int64_t(p.nat_addr) - 1;
      const int64_t lo = p.cls == PatchClass::RelaxBr ? -64 : -2048;
      const int64_t hi = p.cls == PatchClass::RelaxBr ? 63 : 2047;
      if (off < lo || off > hi) {
        p.promoted = true;
        p.nat_size = 2;
        changed = true;
      }
    }
  }
  recompute_addrs();

  // --- Build the address map -------------------------------------------------
  std::vector<uint32_t> inflated;
  for (size_t i = 0; i < sites.size(); ++i)
    if (plans[i].nat_size > sites[i].size) inflated.push_back(sites[i].addr);

  NaturalizedProgram out;
  out.name = img.name;
  out.base = base;
  out.shift_entries = static_cast<uint32_t>(inflated.size());
  out.map = AddressMap(base, std::move(inflated));
  out.heap_size = img.heap_size;
  out.entry_orig = img.entry;
  out.orig_words = img.code_words();
  out.code.reserve(sites.empty() ? 0
                                 : plans.back().nat_addr +
                                       uint32_t(plans.back().nat_size) - base);

  // --- Emit -------------------------------------------------------------------
  auto emit_call_placeholder = [&](const Service& svc) {
    const uint32_t idx = pool.intern(svc);
    out.callsites.push_back({uint32_t(out.code.size()), idx});
    out.code.push_back(kTrampolineCall);  // target patched by the linker
    out.code.push_back(0x0000);
    ++out.patched_sites;
  };

  // Re-encode an absolute control transfer with its full 22-bit target.
  // Targets beyond the architectural range fail loudly instead of being
  // silently truncated into a wrong-but-valid flash address.
  auto emit_abs = [&](Op op, uint32_t tgt) {
    if (tgt > 0x3FFFFF)
      throw std::runtime_error(img.name +
                               ": retargeted JMP/CALL exceeds the 22-bit "
                               "program address range");
    Instruction j;
    j.op = op;
    j.k = static_cast<int32_t>(tgt);
    isa::encode_to(j, out.code);
  };

  for (size_t i = 0; i < sites.size(); ++i) {
    const DecodedSite& s = sites[i];
    const Plan& p = plans[i];

    if (s.is_data) {
      for (int w = 0; w < s.size; ++w)
        out.code.push_back(img.code[s.addr + w]);
      continue;
    }

    switch (p.cls) {
      case PatchClass::Tramp:
        emit_call_placeholder(p.svc);
        break;

      case PatchClass::Placeholder: {
        Instruction nop;
        nop.op = Op::Nop;
        isa::encode_to(nop, out.code);
        break;
      }

      case PatchClass::RelaxRjmp: {
        const uint32_t tgt = plans[target_site(i)].nat_addr;
        if (p.promoted) {
          emit_abs(Op::Jmp, tgt);
        } else {
          Instruction j = s.ins;
          j.k = int32_t(tgt) - int32_t(p.nat_addr) - 1;
          isa::encode_to(j, out.code);
        }
        break;
      }

      case PatchClass::RelaxBr: {
        if (p.promoted) {
          emit_call_placeholder(p.svc);
        } else {
          Instruction b = s.ins;
          b.k = int32_t(plans[target_site(i)].nat_addr) -
                int32_t(p.nat_addr) - 1;
          isa::encode_to(b, out.code);
        }
        break;
      }

      case PatchClass::Keep: {
        const Op op = s.ins.op;
        if (op == Op::Jmp || op == Op::Call) {
          // Retarget absolute control transfers statically (§IV-C2:
          // resolved on the base station, no run-time cost).
          const size_t t = site_at.find(s.ins.k);
          if (t == SiteIndex::npos)
            throw std::runtime_error(img.name + ": jmp/call into the middle of an instruction");
          emit_abs(op, plans[t].nat_addr);
        } else {
          for (int w = 0; w < s.size; ++w)
            out.code.push_back(img.code[s.addr + w]);
        }
        break;
      }
    }
  }

  return out;
}

// --- ServicePool -------------------------------------------------------------

namespace {

uint64_t key_hash(const Service& svc) {
  uint64_t h = 0;
  std::apply(
      [&h](auto... field) {
        ((h = (h ^ uint64_t(field)) * 0x9E3779B97F4A7C15ULL), ...);
      },
      svc.key());
  return h ^ (h >> 32);
}

}  // namespace

uint32_t ServicePool::intern(const Service& svc) {
  ++requests_;
  ++requests_by_kind_[size_t(svc.kind)];
  if (merging_) {
    if (2 * (services_.size() + 1) > slots_.size()) grow();
    const auto key = svc.key();
    const size_t mask = slots_.size() - 1;
    for (size_t i = key_hash(svc) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        services_.push_back(svc);
        slots_[i] = uint32_t(services_.size());
        return slots_[i] - 1;
      }
      if (services_[slots_[i] - 1].key() == key) return slots_[i] - 1;
    }
  }
  services_.push_back(svc);
  return uint32_t(services_.size() - 1);
}

void ServicePool::grow() {
  slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), 0);
  const size_t mask = slots_.size() - 1;
  for (uint32_t s = 0; s < services_.size(); ++s) {
    size_t i = key_hash(services_[s]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = s + 1;
  }
}

uint32_t ServicePool::total_body_words() const {
  uint32_t n = 0;
  for (const Service& s : services_) n += uint32_t(body_words(s.kind));
  return n;
}

int body_words(ServiceKind kind) {
  // Flash words a trampoline stub occupies. A stub materializes the
  // operation's identity (opcode/register/displacement) and transfers into
  // the shared kernel runtime, which does the heavy lifting; the kernel's
  // own flash footprint is accounted separately (<6% of program memory,
  // §V-A), exactly as the paper separates kernel size from app inflation.
  switch (kind) {
    case ServiceKind::MemIndirect: return 7;
    case ServiceKind::MemIndirectGrouped: return 4;
    case ServiceKind::MemIndirectCoalesced: return 4;
    case ServiceKind::MemDirect: return 5;
    case ServiceKind::MemDirectFast: return 4;
    case ServiceKind::ReservedDirect: return 4;
    case ServiceKind::PushPop: return 5;
    case ServiceKind::CallEnter: return 6;
    case ServiceKind::Return: return 4;
    case ServiceKind::IndirectJump: return 6;
    case ServiceKind::BackwardBranch: return 5;
    case ServiceKind::ForwardBranch: return 4;
    case ServiceKind::SpRead: return 4;
    case ServiceKind::SpWrite: return 5;
    case ServiceKind::Lpm: return 6;
    case ServiceKind::SleepOp: return 4;
  }
  return 5;
}

int stub_words(ServiceKind kind) {
  // The per-site part a trampoline cannot share: the Break marker + service
  // index (2 words) plus whatever materializes the site's identity before
  // jumping into the first same-kind trampoline's tail. Memory services
  // keep one word for the register/displacement immediate; the heavier
  // control-flow services keep their target materialization.
  switch (kind) {
    case ServiceKind::MemIndirect: return 4;
    case ServiceKind::MemIndirectGrouped: return 2;
    case ServiceKind::MemIndirectCoalesced: return 2;
    case ServiceKind::MemDirect: return 3;
    case ServiceKind::MemDirectFast: return 3;
    case ServiceKind::ReservedDirect: return 3;
    case ServiceKind::PushPop: return 2;
    case ServiceKind::CallEnter: return 3;
    case ServiceKind::Return: return 2;
    case ServiceKind::IndirectJump: return 3;
    case ServiceKind::BackwardBranch: return 3;
    case ServiceKind::ForwardBranch: return 3;
    case ServiceKind::SpRead: return 2;
    case ServiceKind::SpWrite: return 2;
    case ServiceKind::Lpm: return 3;
    case ServiceKind::SleepOp: return 2;
  }
  return 2;
}

}  // namespace sensmart::rw
