#include "rewriter/linker.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace sensmart::rw {

namespace {

bool is_relay(const Service& svc) {
  switch (svc.kind) {
    case ServiceKind::BackwardBranch:
    case ServiceKind::ForwardBranch:
      return true;
    case ServiceKind::CallEnter:
      return svc.original.op != isa::Op::Icall;
    default:
      return false;
  }
}

}  // namespace

uint32_t relay_target(const AddressMap& map, uint32_t orig_words,
                      const Service& svc, uint32_t ret) {
  const isa::Instruction& ins = svc.original;
  const uint32_t orig =
      ins.op == isa::Op::Call
          ? static_cast<uint32_t>(ins.k)
          : map.to_original(ret) + static_cast<uint32_t>(ins.k);
  if (svc.kind == ServiceKind::CallEnter && orig >= orig_words)
    return kBadTarget;
  return map.to_naturalized(orig);
}

void fill_site_targets(
    ProgramInfo& info, std::span<const Service> services,
    std::span<const NaturalizedProgram::Callsite> callsites) {
  info.sites.assign(size_t(info.nat_words) + 1, SiteTarget{});
  const uint32_t orig_words = info.orig_words();
  for (const auto& cs : callsites) {
    const Service& svc = services[cs.service];
    if (!is_relay(svc)) continue;
    const uint32_t at = cs.code_index + 2;
    info.sites[at] = {cs.service + 1, relay_target(info.map, orig_words, svc,
                                                   info.base + at)};
  }
}

uint32_t scaled_body_words(ServiceKind kind, double scale) {
  return static_cast<uint32_t>(std::lround(std::ceil(body_words(kind) * scale)));
}

Linker::Linker(RewriteOptions opts, bool merge_trampolines)
    : opts_(opts) {
  pool_.set_merging(merge_trampolines);
}

size_t Linker::add(const assembler::Image& img) {
  if (linked_) throw std::logic_error("Linker::add after link()");
  NaturalizedProgram p = rewrite(img, cursor_, pool_, opts_);
  // Program layout: [naturalized code][shift table]. The map base is the
  // code base; the shift table is flash data consulted by the kernel.
  cursor_ += uint32_t(p.code.size()) + p.shift_entries;
  progs_.push_back(std::move(p));
  return progs_.size() - 1;
}

LinkedSystem Linker::link() {
  if (linked_) throw std::logic_error("link() called twice");
  linked_ = true;

  LinkedSystem sys;
  sys.options = opts_;
  sys.tramp_base = cursor_;
  sys.services = pool_.services();
  sys.service_requests = pool_.requests();
  sys.requests_by_kind = pool_.requests_by_kind();

  // Place trampolines. With tail merging, the first trampoline of each
  // kind carries the full handler body; later ones of the same kind keep
  // only the stub that materializes their site identity and jump into the
  // first one's tail.
  uint32_t a = sys.tramp_base;
  std::array<bool, size_t(kNumServiceKinds)> kind_seen{};
  for (const Service& s : sys.services) {
    sys.service_addr.push_back(a);
    const uint32_t full = scaled_body_words(s.kind, opts_.body_scale);
    uint32_t w = full;
    if (opts_.tramp_tail_merge && kind_seen[size_t(s.kind)]) {
      w = std::max<uint32_t>(
          2, static_cast<uint32_t>(
                 std::lround(std::ceil(stub_words(s.kind) * opts_.body_scale))));
      if (w > full) w = full;
      sys.tail_shared_words += full - w;
    }
    kind_seen[size_t(s.kind)] = true;
    sys.service_words.push_back(w);
    a += w;
  }
  sys.tramp_words = a - sys.tramp_base;

  if (a > 0x10000)
    throw std::runtime_error("linked image exceeds 128 KB program memory");

  sys.flash.assign(a, 0xFFFF);

  // Per-service mark: the index of the last program found using it, so a
  // program's distinct trampolines are summed without a set.
  std::vector<uint32_t> used_by(sys.services.size(), UINT32_MAX);
  for (size_t pi = 0; pi < progs_.size(); ++pi) {
    NaturalizedProgram& p = progs_[pi];

    // Resolve trampoline callsites.
    for (const auto& cs : p.callsites)
      p.code[cs.code_index + 1] =
          static_cast<uint16_t>(sys.service_addr[cs.service]);

    // Copy code and shift table into flash.
    std::copy(p.code.begin(), p.code.end(), sys.flash.begin() + p.base);
    const uint32_t table_base = p.base + uint32_t(p.code.size());
    {
      // The shift table is stored as the sorted original word addresses.
      uint32_t w = table_base;
      for (uint32_t orig : p.map.inflated_sites())
        sys.flash[w++] = static_cast<uint16_t>(orig);
    }

    ProgramInfo info;
    info.name = std::move(p.name);
    info.base = p.base;
    info.nat_words = uint32_t(p.code.size());
    info.table_base = table_base;
    info.heap_size = p.heap_size;
    info.entry_nat = p.entry_naturalized();
    info.map = std::move(p.map);
    info.native_bytes = p.orig_words * 2;
    info.rewritten_bytes = uint32_t(p.code.size()) * 2;
    info.shift_table_bytes = p.shift_entries * 2;
    info.patched_sites = p.patched_sites;

    fill_site_targets(info, sys.services, p.callsites);

    uint32_t tw = 0;
    for (const auto& cs : p.callsites) {
      if (used_by[cs.service] == pi) continue;
      used_by[cs.service] = static_cast<uint32_t>(pi);
      tw += sys.service_words[cs.service];
    }
    info.trampoline_bytes = tw * 2;

    sys.programs.push_back(std::move(info));
  }

  // Trampoline markers: Break + service index.
  for (size_t i = 0; i < sys.services.size(); ++i) {
    sys.flash[sys.service_addr[i]] = 0x9598;  // BREAK
    sys.flash[sys.service_addr[i] + 1] = static_cast<uint16_t>(i);
  }

  return sys;
}

}  // namespace sensmart::rw
