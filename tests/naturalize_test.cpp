// Naturalization set-up pins: the linked output of a seeded corpus of image
// sets (whole-system digests under the four rewrite configurations), the
// rewriter's error paths for malformed control targets, the emulator's
// "not yet decoded" decode-cache state, and the link-time relay targets
// (site tables) of the same corpus.
//
// These are the contract a set-up optimization must keep: the flash image,
// the trampoline pool and every program's placement and shift table are
// byte-identical, malformed images fail with the same message, and a
// private machine behaves the same whether its decode cache was built
// entry by entry or zero-filled in one allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/benchmarks.hpp"
#include "apps/periodic_task.hpp"
#include "apps/treesearch.hpp"
#include "assembler/assembler.hpp"
#include "chaos/adversarial.hpp"
#include "chaos/prng.hpp"
#include "emu/machine.hpp"
#include "isa/codec.hpp"
#include "net/image_codec.hpp"
#include "rewriter/linker.hpp"
#include "rewriter/rewriter.hpp"
#include "rewriter/tkernel.hpp"

namespace sensmart {
namespace {

using assembler::Image;
using emu::Machine;
using emu::StopReason;
using isa::Instruction;
using isa::Op;

Instruction mk(Op op, uint8_t rd = 0, uint8_t rr = 0, int32_t k = 0) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rr = rr;
  i.k = k;
  return i;
}

std::vector<uint16_t> words_of(const std::vector<Instruction>& prog) {
  std::vector<uint16_t> words;
  for (const Instruction& i : prog) isa::encode_to(i, words);
  return words;
}

// --- Linked-image digests ------------------------------------------------------

// FNV-1a over the eight little-endian bytes of each value.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  template <typename Range>
  void add_all(const Range& r) {
    add(r.size());
    for (const auto& v : r) add(uint64_t(v));
  }
};

uint64_t digest(const rw::LinkedSystem& sys) {
  Fnv f;
  f.add_all(sys.flash);
  f.add(sys.services.size());
  for (const rw::Service& s : sys.services)
    std::apply([&f](auto... field) { (f.add(uint64_t(field)), ...); },
               s.key());
  f.add_all(sys.service_addr);
  f.add_all(sys.service_words);
  f.add(sys.tramp_base);
  f.add(sys.tramp_words);
  f.add(sys.service_requests);
  f.add_all(sys.requests_by_kind);
  f.add(sys.tail_shared_words);
  f.add(sys.programs.size());
  for (const rw::ProgramInfo& p : sys.programs) {
    f.add(p.base);
    f.add(p.nat_words);
    f.add(p.table_base);
    f.add(p.entry_nat);
    f.add(p.heap_size);
    f.add(p.map.base());
    f.add_all(p.map.inflated_sites());
    f.add(p.native_bytes);
    f.add(p.rewritten_bytes);
    f.add(p.shift_table_bytes);
    f.add(p.trampoline_bytes);
    f.add(p.patched_sites);
  }
  return f.h;
}

// One image from the public generators, parameters drawn from `r`.
Image random_image(chaos::Prng& r) {
  const auto u16 = [&r](uint32_t lo, uint32_t hi) {
    return static_cast<uint16_t>(r.range(lo, hi));
  };
  switch (r.below(14)) {
    case 0: return apps::am_program(u16(1, 64));
    case 1: return apps::amplitude_program(u16(1, 2000));
    case 2: return apps::crc_program(u16(1, 400));
    case 3: return apps::eventchain_program(u16(1, 4000));
    case 4: return apps::lfsr_program(u16(1, 60000));
    case 5: return apps::readadc_program(u16(1, 3000));
    case 6: return apps::timer_program(u16(1, 500));
    case 7: {
      apps::TreeSearchParams p;
      p.nodes_per_tree = u16(4, 32);
      p.trees = static_cast<uint8_t>(r.range(1, 3));
      p.searches = u16(1, 200);
      p.seed = u16(1, 0xFFFF);
      return apps::tree_search_program(p);
    }
    case 8: return apps::data_feed_program(u16(1, 96), u16(8, 200));
    case 9: {
      apps::PeriodicTaskParams p;
      p.period_ticks = u16(100, 2000);
      p.activations = u16(1, 400);
      p.instructions = r.range(100, 40000);
      p.phase_ticks = u16(0, 500);
      return apps::periodic_task_program(p);
    }
    case 10:
      return chaos::deep_recursion_program(
          u16(4, 96), static_cast<uint8_t>(r.range(0, 8)), u16(0, 0x7FFF));
    case 11:
      return chaos::stack_storm_program(u16(1, 48), u16(8, 200),
                                        u16(0, 0x7FFF));
    case 12:
      return chaos::pattern_verifier_program(
          u16(16, 400), u16(10, 1000), static_cast<uint8_t>(r.range(1, 5)),
          u16(0, 0xFFFF));
    default: return chaos::runaway_program(u16(0, 0x7FFF));
  }
}

constexpr int kImageSets = 240;

std::vector<std::vector<Image>> image_sets() {
  std::vector<std::vector<Image>> sets;
  for (int s = 0; s < kImageSets; ++s) {
    chaos::Prng r(0x5E7'0000 + uint64_t(s));
    std::vector<Image> set;
    const uint32_t n = r.range(3, 7);
    for (uint32_t i = 0; i < n; ++i) set.push_back(random_image(r));
    sets.push_back(std::move(set));
  }
  return sets;
}

struct LinkConfig {
  const char* name;
  rw::RewriteOptions opts;
  bool merge;
  uint64_t want;  // digest chained over every set, in set order
};

// Recorded from the node-map rewriter and the copying linker: a set-up
// optimization must reproduce every linked byte and number they produced.
TEST(RewriterGolden, LinkedImageDigests) {
  const LinkConfig configs[] = {
      {"default", rw::RewriteOptions{}, true, 0xb9764dadd95efca4ULL},
      {"paper", rw::paper_options(), true, 0x0cd0aeafeefb5014ULL},
      {"tkernel", rw::tkernel_rewrite_options(), rw::kTKernelMerging,
       0x63ff037bb5ee633dULL},
      {"merging off", rw::RewriteOptions{}, false, 0x03e2b313f10935ccULL},
  };
  const std::vector<std::vector<Image>> sets = image_sets();
  for (const LinkConfig& c : configs) {
    Fnv chain;
    for (const std::vector<Image>& set : sets) {
      rw::Linker linker(c.opts, c.merge);
      for (const Image& img : set) linker.add(img);
      chain.add(digest(linker.link()));
    }
    EXPECT_EQ(chain.h, c.want)
        << c.name << ": got 0x" << std::hex << chain.h;
  }
}

// --- Rewriter error paths ----------------------------------------------------

// Rewrite one hand-built image; returns the error message, or "" if the
// rewrite succeeded.
std::string rewrite_error(const std::vector<uint16_t>& code,
                          bool patch_branches = true) {
  Image img;
  img.name = "bad";
  img.code = code;
  rw::RewriteOptions opts;
  opts.patch_branches = patch_branches;
  rw::ServicePool pool;
  try {
    rw::rewrite(img, rw::kAppBase, pool, opts);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

const std::string kMidBranch = "bad: branch into the middle of an instruction";
const std::string kMidJmp = "bad: jmp/call into the middle of an instruction";

// Word 1 is the operand of a two-word LDS (to a native I/O address, so the
// LDS itself is kept as is).
std::vector<uint16_t> with_lds_at_0(std::vector<Instruction> tail) {
  std::vector<Instruction> prog = {mk(Op::Lds, 16, 0, 0x0040)};
  prog.insert(prog.end(), tail.begin(), tail.end());
  return words_of(prog);
}

TEST(RewriterErrors, RelativeBranchIntoTwoWordInstruction) {
  // Backward targets are only resolved statically when branches are not
  // trampolined; forward ones always are.
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Rjmp, 0, 0, -2)}), false),
            kMidBranch);
  Instruction brne = mk(Op::Brbc, 0, 0, -2);
  brne.b = isa::kFlagZ;
  EXPECT_EQ(rewrite_error(with_lds_at_0({brne}), false), kMidBranch);
  EXPECT_EQ(rewrite_error(words_of({mk(Op::Rjmp, 0, 0, 0),
                                    mk(Op::Lds, 16, 0, 0x0040),
                                    mk(Op::Nop)})),
            "");
  EXPECT_EQ(rewrite_error(words_of({mk(Op::Rjmp, 0, 0, 1),
                                    mk(Op::Lds, 16, 0, 0x0040),
                                    mk(Op::Nop)})),
            kMidBranch);
}

TEST(RewriterErrors, RelativeBranchOutsideTheCode) {
  // Before word 0.
  EXPECT_EQ(rewrite_error(words_of({mk(Op::Nop), mk(Op::Rjmp, 0, 0, -3)}),
                          false),
            kMidBranch);
  EXPECT_EQ(rewrite_error(words_of({mk(Op::Rjmp, 0, 0, -2048)}), false),
            kMidBranch);
  // Exactly one past the end, and further.
  EXPECT_EQ(rewrite_error(words_of({mk(Op::Rjmp, 0, 0, 1), mk(Op::Nop)})),
            kMidBranch);
  Instruction breq = mk(Op::Brbs, 0, 0, 40);
  breq.b = isa::kFlagZ;
  EXPECT_EQ(rewrite_error(words_of({breq, mk(Op::Nop)})), kMidBranch);
  EXPECT_EQ(rewrite_error(words_of({mk(Op::Rjmp, 0, 0, 2047)})), kMidBranch);
}

TEST(RewriterErrors, JmpIntoTwoWordInstructionOrOutsideTheCode) {
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Jmp, 0, 0, 1)})), kMidJmp);
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Jmp, 0, 0, 2)})), "");
  // Word 4 is one past the end of [LDS, JMP].
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Jmp, 0, 0, 4)})), kMidJmp);
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Jmp, 0, 0, 0x3FFFFF)})),
            kMidJmp);
}

TEST(RewriterErrors, CallTargetsAreLeftToTheCallTrampoline) {
  // CALL is always trampolined (CallEnter) and its target translated at
  // run time, so the rewriter does not resolve it: a bad CALL target is
  // not a rewrite error.
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Call, 0, 0, 1)})), "");
  EXPECT_EQ(rewrite_error(with_lds_at_0({mk(Op::Call, 0, 0, 0x3FFFFF)})), "");
}

TEST(RewriterErrors, SiteRunningPastTheEndOfTheCode) {
  const std::string past_end =
      "bad: instruction or data range runs past the end of the code";
  // An LDS whose operand word is missing.
  std::vector<uint16_t> code = with_lds_at_0({});
  code.pop_back();
  EXPECT_EQ(rewrite_error(code), past_end);
  EXPECT_EQ(rewrite_error(with_lds_at_0({})), "");
  // A data range that ends past the last code word.
  Image img;
  img.name = "bad";
  img.code = words_of({mk(Op::Nop), mk(Op::Nop), mk(Op::Nop)});
  img.data_ranges = {{1, 5}};
  rw::ServicePool pool;
  try {
    rw::rewrite(img, rw::kAppBase, pool, {});
    ADD_FAILURE() << "data range past the end was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), past_end);
  }
}

// --- The "not yet decoded" decode-cache state --------------------------------

struct Stop {
  StopReason why;
  uint64_t cycles;
  uint64_t instructions;
  uint32_t pc;
  bool operator==(const Stop&) const = default;
};

void PrintTo(const Stop& s, std::ostream* os) {
  *os << "{" << emu::to_string(s.why) << ", cycles " << s.cycles
      << ", insns " << s.instructions << ", pc " << s.pc << "}";
}

Stop stop_of(const Machine& m) {
  return {m.stop_reason(), m.cycles(), m.stats().instructions, m.pc()};
}

// A jump into flash no load ever wrote reaches erased words (0xFFFF, an
// invalid opcode) whose decode-cache entries were never touched: the
// machine stops there, batched or single-stepped, at the pinned point.
const Stop kUnloadedStop{StopReason::InvalidInstruction, 5, 3, 0x8000};

std::vector<uint16_t> jump_to_unloaded() {
  return words_of({mk(Op::Ldi, 16, 0, 7), mk(Op::Inc, 16),
                   mk(Op::Jmp, 0, 0, 0x8000)});
}

TEST(DecodeCache, JumpIntoUnloadedFlashStopsInvalid) {
  Machine batched;
  batched.load_flash(jump_to_unloaded());
  batched.reset(0);
  EXPECT_EQ(batched.run(1000), StopReason::InvalidInstruction);
  EXPECT_EQ(stop_of(batched), kUnloadedStop);

  Machine stepped;
  stepped.load_flash(jump_to_unloaded());
  stepped.reset(0);
  while (stepped.step() == StopReason::Running) {
  }
  EXPECT_EQ(stop_of(stepped), kUnloadedStop);
}

// A machine that never loaded anything materializes erased flash on its
// first fetch and stops at word 0.
TEST(DecodeCache, NeverLoadedMachineStopsInvalidAtResetVector) {
  Machine m;
  EXPECT_EQ(m.private_image_bytes(), 0u);
  m.reset(0);
  EXPECT_EQ(m.run(1000), StopReason::InvalidInstruction);
  EXPECT_EQ(stop_of(m), (Stop{StopReason::InvalidInstruction, 0, 0, 0}));
  EXPECT_GT(m.private_image_bytes(), 0u);
}

// A load after execution beside entries that were never decoded: the
// invalidation reads their NOP-run field, so an undecoded entry must read
// as "no run", and the reloaded words must execute exactly as on a
// machine that loaded the final image in one go.
TEST(DecodeCache, ReloadBesideUndecodedEntriesMatchesFreshMachine) {
  // 0: LDI r16,1 ; 1: RJMP -> 40 ; 2..39 never executed ;
  // 40: LDI r17,2 ; 41: JMP 0x8000 (unloaded flash: stops the run)
  std::vector<uint16_t> image(43, 0x0000);
  const auto put = [&image](uint32_t at, const std::vector<Instruction>& p) {
    const std::vector<uint16_t> w = words_of(p);
    std::copy(w.begin(), w.end(), image.begin() + at);
  };
  put(0, {mk(Op::Ldi, 16, 0, 1), mk(Op::Rjmp, 0, 0, 38)});
  put(40, {mk(Op::Ldi, 17, 0, 2), mk(Op::Jmp, 0, 0, 0x8000)});

  Machine m;
  m.load_flash(image);
  m.reset(0);
  ASSERT_EQ(m.run(1000), StopReason::InvalidInstruction);
  const Stop first = stop_of(m);

  // Overwrite words 20..21 (never decoded) with LDI r18,3 ; RJMP -> 40.
  put(20, {mk(Op::Ldi, 18, 0, 3), mk(Op::Rjmp, 0, 0, 18)});
  m.load_flash(std::span<const uint16_t>(image).subspan(20, 2), 20);
  m.reset(20);
  ASSERT_EQ(m.run(1000), StopReason::InvalidInstruction);

  Machine fresh;
  fresh.load_flash(image);
  fresh.charge(first.cycles);
  fresh.reset(20);
  ASSERT_EQ(fresh.run(1000), StopReason::InvalidInstruction);
  EXPECT_EQ(m.cycles(), fresh.cycles());
  EXPECT_EQ(m.stats().instructions - first.instructions,
            fresh.stats().instructions);
  EXPECT_EQ(m.pc(), fresh.pc());
  EXPECT_EQ(m.mem().reg(18), 3);
  EXPECT_EQ(m.mem().reg(17), 2);
}

// --- Link-time relay targets (site table) -------------------------------------

// The relay-target formula, written out apart from rw::relay_target: the
// shift table's original-address arithmetic, with CALL/RCALL targets
// bounded by the program's original length.
uint32_t formula_target(const rw::ProgramInfo& p, const rw::Service& svc,
                        uint32_t ret) {
  const Instruction& ins = svc.original;
  const uint32_t orig = ins.op == Op::Call
                            ? static_cast<uint32_t>(ins.k)
                            : p.map.to_original(ret) + uint32_t(ins.k);
  if (svc.kind == rw::ServiceKind::CallEnter &&
      orig >= p.map.to_original(p.base + p.nat_words))
    return rw::kBadTarget;
  return p.map.to_naturalized(orig);
}

bool relay_kind(const rw::Service& svc) {
  return svc.kind == rw::ServiceKind::BackwardBranch ||
         svc.kind == rw::ServiceKind::ForwardBranch ||
         (svc.kind == rw::ServiceKind::CallEnter &&
          (svc.original.op == Op::Rcall || svc.original.op == Op::Call));
}

// The relays the seeded corpus lacks: CALLs (one inside the program, one
// past its end) and a forward branch relaxed out of range into a
// trampoline by the indirect accesses it jumps over.
Image relay_corners() {
  assembler::Assembler a("relay-corners");
  a.call("sub");
  a.ldi16(26, 0x0100);
  a.cpi(16, 3);
  a.breq("far");
  for (int i = 0; i < 40; ++i) a.ld_x(17);
  a.label("far");
  a.emit(mk(Op::Call, 0, 0, 0x3FFFFF));
  a.halt(0);
  a.label("sub");
  a.ret();
  return a.finish();
}

const LinkConfig kSiteConfigs[] = {
    {"default", rw::RewriteOptions{}, true, 0},
    {"paper", rw::paper_options(), true, 0},
    {"tkernel", rw::tkernel_rewrite_options(), rw::kTKernelMerging, 0},
    {"merging off", rw::RewriteOptions{}, false, 0},
};

// Every trampolined relative branch, RCALL and CALL site the rewriter
// emits has a table entry naming its own service and holding the
// formula's target, and no other word has an entry. The sites are
// re-derived by rewriting each image again with a private pool, which
// reproduces the linker's placement and service indices.
TEST(SiteTargets, EveryRelaySiteHoldsTheFormulaTarget) {
  std::vector<std::vector<Image>> sets = image_sets();
  sets.push_back({relay_corners(), apps::crc_program(8)});
  for (const LinkConfig& c : kSiteConfigs) {
    // Relay sites seen: backward branches, forward branches, RCALLs, CALLs.
    size_t relays[4] = {};
    for (size_t si = 0; si < sets.size(); ++si) {
      rw::Linker linker(c.opts, c.merge);
      rw::ServicePool pool;
      pool.set_merging(c.merge);
      std::vector<rw::NaturalizedProgram> progs;
      uint32_t cursor = rw::kAppBase;
      for (const Image& img : sets[si]) {
        linker.add(img);
        progs.push_back(rw::rewrite(img, cursor, pool, c.opts));
        cursor += uint32_t(progs.back().code.size()) +
                  progs.back().shift_entries;
      }
      const rw::LinkedSystem sys = linker.link();
      ASSERT_EQ(pool.services().size(), sys.services.size());
      for (size_t pi = 0; pi < progs.size(); ++pi) {
        const rw::ProgramInfo& p = sys.programs[pi];
        ASSERT_EQ(p.sites.size(), size_t(p.nat_words) + 1);
        std::vector<bool> expected(p.sites.size(), false);
        for (const auto& cs : progs[pi].callsites) {
          const rw::Service& svc = sys.services[cs.service];
          if (!relay_kind(svc)) continue;
          const uint32_t at = cs.code_index + 2;
          expected[at] = true;
          ++relays[svc.kind == rw::ServiceKind::BackwardBranch  ? 0
                   : svc.kind == rw::ServiceKind::ForwardBranch ? 1
                   : svc.original.op == Op::Rcall              ? 2
                                                                : 3];
          const rw::SiteTarget* e = p.site(p.base + at, cs.service);
          ASSERT_NE(e, nullptr) << c.name << " set " << si << " prog " << pi
                                << " word " << at;
          EXPECT_EQ(e->target, formula_target(p, svc, p.base + at))
              << c.name << " set " << si << " prog " << pi << " word " << at;
        }
        for (size_t at = 0; at < p.sites.size(); ++at) {
          if (!expected[at]) {
            EXPECT_EQ(p.sites[at].service, 0u)
                << c.name << " set " << si << " prog " << pi << " word " << at;
          }
        }
      }
    }
    for (const size_t n : relays) EXPECT_GT(n, 0u) << c.name;
  }
}

// A return address the linker did not resolve misses the table, so the
// kernel falls back to the formula and gets exactly its answer: outside
// the program, on a word no relay returns to, or a real relay site paired
// with another service's index.
TEST(SiteTargets, ForgedReturnAddressesTakeTheFormula) {
  const std::vector<std::vector<Image>> sets = image_sets();
  for (const LinkConfig& c : kSiteConfigs) {
    for (size_t si = 0; si < sets.size(); si += 8) {
      rw::Linker linker(c.opts, c.merge);
      for (const Image& img : sets[si]) linker.add(img);
      const rw::LinkedSystem sys = linker.link();
      std::vector<uint32_t> relay_services;
      for (uint32_t i = 0; i < sys.services.size(); ++i)
        if (relay_kind(sys.services[i])) relay_services.push_back(i);
      ASSERT_FALSE(relay_services.empty());
      for (const rw::ProgramInfo& p : sys.programs) {
        const uint32_t outside[] = {0, p.base - 1, p.base + p.nat_words + 1,
                                    p.base + p.nat_words + 2, 0xFFFF};
        for (const uint32_t svc : relay_services) {
          for (const uint32_t ret : outside) {
            EXPECT_EQ(p.site(ret, svc), nullptr) << ret;
            EXPECT_EQ(rw::relay_target(p.map, p.orig_words(),
                                       sys.services[svc], ret),
                      formula_target(p, sys.services[svc], ret));
          }
        }
        for (uint32_t at = 0; at < p.sites.size(); ++at) {
          const uint32_t ret = p.base + at;
          const uint32_t own = p.sites[at].service;
          for (const uint32_t svc : relay_services) {
            if (own == svc + 1) continue;  // the real pairing
            EXPECT_EQ(p.site(ret, svc), nullptr) << ret << " " << svc;
          }
          if (own == 0) continue;
          // The real site with another relay's index: the formula's answer
          // for that other relay, not this site's entry.
          const uint32_t other = relay_services[(own + at) %
                                                relay_services.size()];
          if (other + 1 == own) continue;
          EXPECT_EQ(rw::relay_target(p.map, p.orig_words(),
                                     sys.services[other], ret),
                    formula_target(p, sys.services[other], ret));
        }
      }
    }
  }
}

// The site table is not serialized: a system installed from its bytes
// rebuilds it from its flash. Every relay site the linker filled holds the
// linker's entry, and an entry anywhere else (a word pair that merely
// reads like a trampoline CALL) is the formula's own answer for its pair.
TEST(SiteTargets, InstalledSystemRebuildsTheLinkersTable) {
  std::vector<std::vector<Image>> sets = image_sets();
  sets.push_back({relay_corners(), apps::crc_program(8)});
  for (const LinkConfig& c : kSiteConfigs) {
    size_t relays = 0;
    for (size_t si = 0; si < sets.size(); ++si) {
      rw::Linker linker(c.opts, c.merge);
      for (const Image& img : sets[si]) linker.add(img);
      const rw::LinkedSystem sys = linker.link();
      const std::optional<rw::LinkedSystem> installed =
          net::deserialize_system(net::serialize_system(sys));
      ASSERT_TRUE(installed.has_value()) << c.name << " set " << si;
      ASSERT_EQ(installed->programs.size(), sys.programs.size());
      for (size_t pi = 0; pi < sys.programs.size(); ++pi) {
        const rw::ProgramInfo& linked = sys.programs[pi];
        const rw::ProgramInfo& got = installed->programs[pi];
        ASSERT_EQ(got.sites.size(), linked.sites.size())
            << c.name << " set " << si << " prog " << pi;
        for (uint32_t at = 0; at < got.sites.size(); ++at) {
          const rw::SiteTarget& want = linked.sites[at];
          const rw::SiteTarget& have = got.sites[at];
          if (want.service != 0) {
            ++relays;
            EXPECT_EQ(have.service, want.service)
                << c.name << " set " << si << " prog " << pi << " word " << at;
            EXPECT_EQ(have.target, want.target)
                << c.name << " set " << si << " prog " << pi << " word " << at;
          } else if (have.service != 0) {
            EXPECT_EQ(have.target,
                      rw::relay_target(got.map, got.orig_words(),
                                       installed->services[have.service - 1],
                                       got.base + at))
                << c.name << " set " << si << " prog " << pi << " word " << at;
          }
        }
      }
    }
    EXPECT_GT(relays, 1000u) << c.name;
  }
}

}  // namespace
}  // namespace sensmart
