#include "net/image_codec.hpp"

#include <algorithm>
#include <cstring>

namespace sensmart::net {

namespace {

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>& out) : out_(out) {}
  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v) {
    u8(static_cast<uint8_t>(v & 0xFF));
    u8(static_cast<uint8_t>(v >> 8));
  }
  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v & 0xFFFF));
    u16(static_cast<uint16_t>(v >> 16));
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(static_cast<uint32_t>(bits & 0xFFFFFFFFu));
    u32(static_cast<uint32_t>(bits >> 32));
  }
  void str(const std::string& s) {
    u16(static_cast<uint16_t>(s.size()));
    for (char c : s) u8(static_cast<uint8_t>(c));
  }

 private:
  std::vector<uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> in) : in_(in) {}
  bool ok() const { return ok_; }
  bool done() const { return ok_ && at_ == in_.size(); }
  uint8_t u8() {
    if (at_ + 1 > in_.size()) {
      ok_ = false;
      return 0;
    }
    return in_[at_++];
  }
  uint16_t u16() {
    const uint8_t lo = u8(), hi = u8();
    return static_cast<uint16_t>(lo | (hi << 8));
  }
  uint32_t u32() {
    const uint16_t lo = u16(), hi = u16();
    return static_cast<uint32_t>(lo) | (static_cast<uint32_t>(hi) << 16);
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    const uint32_t lo = u32(), hi = u32();
    const uint64_t bits =
        static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const uint16_t n = u16();
    std::string s;
    if (!ok_ || at_ + n > in_.size()) {
      ok_ = false;
      return s;
    }
    s.assign(reinterpret_cast<const char*>(in_.data()) + at_, n);
    at_ += n;
    return s;
  }
  // Remaining bytes — used to bound length-prefixed vectors before
  // reserving memory for them.
  size_t remaining() const { return ok_ ? in_.size() - at_ : 0; }
  void fail() { ok_ = false; }

 private:
  std::span<const uint8_t> in_;
  size_t at_ = 0;
  bool ok_ = true;
};

void write_instruction(Writer& w, const isa::Instruction& ins) {
  w.u8(static_cast<uint8_t>(ins.op));
  w.u8(ins.rd);
  w.u8(ins.rr);
  w.i32(ins.k);
  w.u8(ins.a);
  w.u8(ins.b);
  w.u8(ins.q);
  w.u8(static_cast<uint8_t>(ins.ptr));
}

isa::Instruction read_instruction(Reader& r) {
  isa::Instruction ins;
  const uint8_t op = r.u8();
  if (op > static_cast<uint8_t>(isa::Op::Invalid)) r.fail();
  ins.op = static_cast<isa::Op>(op);
  ins.rd = r.u8();
  ins.rr = r.u8();
  ins.k = r.i32();
  ins.a = r.u8();
  ins.b = r.u8();
  ins.q = r.u8();
  const uint8_t ptr = r.u8();
  if (ptr > static_cast<uint8_t>(isa::Ptr::Z)) r.fail();
  ins.ptr = static_cast<isa::Ptr>(ptr);
  return ins;
}

}  // namespace

std::vector<uint8_t> serialize_system(const rw::LinkedSystem& sys) {
  std::vector<uint8_t> out;
  out.reserve(sys.flash.size() * 2 + 256);
  Writer w(out);
  w.u32(kImageMagic);
  w.u16(kImageFormatVersion);

  const rw::RewriteOptions& o = sys.options;
  w.u8(o.patch_branches);
  w.u8(o.grouped_access);
  w.u8(o.coalesce_translations);
  w.u8(o.collapse_stack_checks);
  w.u8(o.fast_direct_heap);
  w.u8(o.tramp_tail_merge);
  w.f64(o.body_scale);

  w.u32(static_cast<uint32_t>(sys.flash.size()));
  for (uint16_t word : sys.flash) w.u16(word);

  w.u16(static_cast<uint16_t>(sys.programs.size()));
  for (const rw::ProgramInfo& p : sys.programs) {
    w.str(p.name);
    w.u32(p.base);
    w.u32(p.nat_words);
    w.u32(p.table_base);
    w.u16(p.heap_size);
    w.u32(p.entry_nat);
    w.u32(p.native_bytes);
    w.u32(p.rewritten_bytes);
    w.u32(p.shift_table_bytes);
    w.u32(p.trampoline_bytes);
    w.u32(p.patched_sites);
    w.u32(p.map.base());
    w.u32(static_cast<uint32_t>(p.map.entries()));
    for (uint32_t site : p.map.inflated_sites()) w.u32(site);
  }

  w.u32(static_cast<uint32_t>(sys.services.size()));
  for (const rw::Service& s : sys.services) {
    w.u8(static_cast<uint8_t>(s.kind));
    write_instruction(w, s.original);
    w.u8(s.group_min);
    w.u8(s.group_span);
    w.u16(s.run_regs);
  }
  for (uint32_t a : sys.service_addr) w.u32(a);
  for (uint32_t n : sys.service_words) w.u32(n);

  w.u32(sys.tramp_base);
  w.u32(sys.tramp_words);
  w.u32(sys.service_requests);
  for (uint32_t n : sys.requests_by_kind) w.u32(n);
  w.u32(sys.tail_shared_words);
  return out;
}

namespace {

// The site table is not on the wire, so it is rebuilt from the flash: a
// trampoline call site is a CALL placeholder whose second word is a
// service's address. Any other word pair that reads the same (data, the
// operand of a two-word instruction) only adds an entry holding
// rw::relay_target()'s value for its (service, ret), which is what the
// kernel's fallback would compute for that pair anyway.
void rebuild_sites(const rw::LinkedSystem& sys, rw::ProgramInfo& p) {
  if (uint64_t(p.base) + p.nat_words > sys.flash.size()) return;
  const auto addr = sys.service_addr.begin(), addr_end = sys.service_addr.end();
  std::vector<rw::NaturalizedProgram::Callsite> calls;
  for (uint32_t w = 0; w + 1 < p.nat_words; ++w) {
    if (sys.flash[p.base + w] != rw::kTrampolineCall) continue;
    const uint16_t target = sys.flash[p.base + w + 1];
    const auto it = std::lower_bound(addr, addr_end, uint32_t(target));
    if (it != addr_end && *it == target)
      calls.push_back({w, static_cast<uint32_t>(it - addr)});
  }
  rw::fill_site_targets(p, sys.services, calls);
}

}  // namespace

std::optional<rw::LinkedSystem> deserialize_system(
    std::span<const uint8_t> blob) {
  Reader r(blob);
  if (r.u32() != kImageMagic || r.u16() != kImageFormatVersion)
    return std::nullopt;

  rw::LinkedSystem sys;
  rw::RewriteOptions& o = sys.options;
  o.patch_branches = r.u8() != 0;
  o.grouped_access = r.u8() != 0;
  o.coalesce_translations = r.u8() != 0;
  o.collapse_stack_checks = r.u8() != 0;
  o.fast_direct_heap = r.u8() != 0;
  o.tramp_tail_merge = r.u8() != 0;
  o.body_scale = r.f64();

  const uint32_t flash_words = r.u32();
  // Overflow-proof form of `flash_words * 2 > remaining`: the multiply wraps
  // in 32 bits for flash_words >= 2^31, letting a forged header pass the
  // bounds check and command a multi-GB resize below.
  if (flash_words > r.remaining() / 2) return std::nullopt;
  sys.flash.resize(flash_words);
  for (uint32_t i = 0; i < flash_words; ++i) sys.flash[i] = r.u16();

  const uint16_t n_programs = r.u16();
  if (!r.ok()) return std::nullopt;
  sys.programs.reserve(n_programs);
  for (uint16_t i = 0; i < n_programs; ++i) {
    rw::ProgramInfo p;
    p.name = r.str();
    p.base = r.u32();
    p.nat_words = r.u32();
    p.table_base = r.u32();
    p.heap_size = r.u16();
    p.entry_nat = r.u32();
    p.native_bytes = r.u32();
    p.rewritten_bytes = r.u32();
    p.shift_table_bytes = r.u32();
    p.trampoline_bytes = r.u32();
    p.patched_sites = r.u32();
    const uint32_t map_base = r.u32();
    const uint32_t n_sites = r.u32();
    if (!r.ok() || size_t(n_sites) * 4 > r.remaining()) return std::nullopt;
    std::vector<uint32_t> sites(n_sites);
    for (uint32_t s = 0; s < n_sites; ++s) sites[s] = r.u32();
    p.map = rw::AddressMap(map_base, std::move(sites));
    sys.programs.push_back(std::move(p));
  }

  const uint32_t n_services = r.u32();
  if (!r.ok() || size_t(n_services) * 16 > r.remaining()) return std::nullopt;
  sys.services.reserve(n_services);
  for (uint32_t i = 0; i < n_services; ++i) {
    rw::Service s;
    const uint8_t kind = r.u8();
    if (kind >= uint8_t(rw::kNumServiceKinds)) return std::nullopt;
    s.kind = static_cast<rw::ServiceKind>(kind);
    s.original = read_instruction(r);
    s.group_min = r.u8();
    s.group_span = r.u8();
    s.run_regs = r.u16();
    sys.services.push_back(s);
  }
  sys.service_addr.resize(n_services);
  for (uint32_t i = 0; i < n_services; ++i) sys.service_addr[i] = r.u32();
  sys.service_words.resize(n_services);
  for (uint32_t i = 0; i < n_services; ++i) sys.service_words[i] = r.u32();

  sys.tramp_base = r.u32();
  sys.tramp_words = r.u32();
  sys.service_requests = r.u32();
  for (uint32_t& n : sys.requests_by_kind) n = r.u32();
  sys.tail_shared_words = r.u32();

  if (!r.done()) return std::nullopt;  // trailing garbage or truncation
  for (rw::ProgramInfo& p : sys.programs) rebuild_sites(sys, p);
  return sys;
}

}  // namespace sensmart::net
