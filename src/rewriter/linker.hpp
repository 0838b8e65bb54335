// Links naturalized application programs with the trampoline region into
// one flash image (Figure 1's "linker" step). Trampolines are shared and
// merged across programs; each program additionally carries its shift
// table in flash. Words 0..15 are reserved for the kernel vector area.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rewriter/rewriter.hpp"

namespace sensmart::rw {

inline constexpr uint32_t kAppBase = 16;

// A relay is a trampolined site whose taken target is fixed by the site
// itself: a relative branch (backward, or forward relaxed out of range),
// an RCALL or a CALL. Its target is resolved once, at link time, into the
// program's site table instead of by the shift-table formula per trap.
//
// The shift-table formula for relay `svc` entered from return address
// `ret` (the word after its trampoline CALL): original-address arithmetic
// on `map`, translated back to a naturalized word address. A CALL or RCALL
// whose original target is at or past `orig_words` leaves the program and
// gives kBadTarget; branch targets are not bounded.
inline constexpr uint32_t kBadTarget = UINT32_MAX;
uint32_t relay_target(const AddressMap& map, uint32_t orig_words,
                      const Service& svc, uint32_t ret);

// One entry of a program's site table. `service` is the index of the relay
// service whose trampoline CALL returns to this word, plus one (0: no relay
// returns here); `target` is relay_target() for that site.
struct SiteTarget {
  uint32_t service = 0;
  uint32_t target = 0;
};

struct ProgramInfo {
  std::string name;
  uint32_t base = 0;        // first word of the naturalized code
  uint32_t nat_words = 0;   // naturalized code size (words)
  uint32_t table_base = 0;  // flash placement of the shift table
  AddressMap map;
  uint16_t heap_size = 0;
  uint32_t entry_nat = 0;

  // Inflation accounting (Fig. 4), all in bytes.
  uint32_t native_bytes = 0;
  uint32_t rewritten_bytes = 0;   // naturalized code
  uint32_t shift_table_bytes = 0;
  uint32_t trampoline_bytes = 0;  // distinct trampolines this program uses
  uint32_t patched_sites = 0;

  // Link-time relay targets, indexed by ret - base: nat_words + 1 entries
  // (a trampoline CALL in the last two words returns to base + nat_words),
  // filled by fill_site_targets(). Not serialized: a system rebuilt from
  // bytes rebuilds it from its flash (net::deserialize_system).
  std::vector<SiteTarget> sites;

  // The site-table entry for relay service `service` returning to `ret`,
  // or nullptr when none was filled for that pair: `ret` outside the
  // program, on a word no relay returns to, or paired with another service.
  const SiteTarget* site(uint32_t ret, uint32_t service) const {
    const uint32_t at = ret - base;
    return at < sites.size() && sites[at].service == service + 1 ? &sites[at]
                                                                 : nullptr;
  }

  // Original words of the program: the bound on original control targets.
  uint32_t orig_words() const { return map.to_original(base + nat_words); }

  double inflation() const {
    return double(rewritten_bytes + shift_table_bytes + trampoline_bytes) /
           double(native_bytes);
  }
};

// Size `info.sites` to the program and give every relay among `callsites`
// (trampoline CALLs at program word code_index, to service index service)
// its entry: the service index plus one and relay_target() for the word
// the CALL returns to. Any other callsite is skipped. Every entry is
// therefore the formula's own answer for its (service, ret) pair.
void fill_site_targets(
    ProgramInfo& info, std::span<const Service> services,
    std::span<const NaturalizedProgram::Callsite> callsites);

struct LinkedSystem {
  std::vector<uint16_t> flash;
  std::vector<ProgramInfo> programs;
  std::vector<Service> services;
  std::vector<uint32_t> service_addr;  // flash word address per service
  std::vector<uint32_t> service_words;  // placed size per service (words)
  uint32_t tramp_base = 0;
  uint32_t tramp_words = 0;
  uint32_t service_requests = 0;  // before merging
  // Merge statistics (Fig. 4 reporting): pre-merge requests per kind, and
  // the flash words saved by peephole tail merging across the pool.
  std::array<uint32_t, size_t(kNumServiceKinds)> requests_by_kind{};
  uint32_t tail_shared_words = 0;
  RewriteOptions options;
};

class Linker {
 public:
  explicit Linker(RewriteOptions opts = {}, bool merge_trampolines = true);

  // Rewrite and add one application program. Returns its index.
  size_t add(const assembler::Image& img);

  LinkedSystem link();

 private:
  RewriteOptions opts_;
  ServicePool pool_;
  std::vector<NaturalizedProgram> progs_;
  uint32_t cursor_ = kAppBase;
  bool linked_ = false;
};

// body_words() scaled by the rewrite option's body_scale.
uint32_t scaled_body_words(ServiceKind kind, double scale);

}  // namespace sensmart::rw
