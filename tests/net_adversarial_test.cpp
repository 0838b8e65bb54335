// Adversarial-robustness suite for the OTA stack (DESIGN.md §11).
//
// Three layers:
//   NetAuth     — the SipHash-2-4 MAC primitive (reference vectors), the
//                 authenticated wire variants (Summary MAC, Ack tags), and
//                 the binding properties forged frames must break against.
//   NetFuzz     — hostile-input units: the resynchronizing deframer under
//                 random streams and an evil-frame corpus, the image codec
//                 under truncation/mutation, and exact-byte regressions for
//                 fuzzer-surfaced bugs (the flash_words length overflow).
//   NetHostile  — end-to-end attacks through the simulator: deterministic
//                 scripted attackers proving each vulnerability exists with
//                 auth off and is closed with auth on (forged install, Ack
//                 spoofing), the seeded HostileNode repertoire against star
//                 and grid fleets (survive, classify every honest node,
//                 never install a forgery, replay byte-identically), quota
//                 squelching of Nack floods, a 32-seed termination and
//                 replay property for adversarial runs, and the pinned
//                 cells of bench/fig_dissemination --adversarial with its
//                 MAC-tax bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos/hostile.hpp"
#include "chaos/prng.hpp"
#include "dissemination_cells.hpp"
#include "host/parallel.hpp"
#include "net/auth.hpp"
#include "net/frame.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"
#include "testlib/random_program.hpp"

namespace sensmart {
namespace {

std::vector<uint8_t> seeded_blob(uint64_t seed, size_t size) {
  chaos::Prng r(seed);
  std::vector<uint8_t> b(size);
  for (auto& x : b) x = static_cast<uint8_t>(r.below(256));
  return b;
}

// A deterministic attacker replaying a fixed packet list: packet i goes out
// on the i-th taken TX opportunity (every `period`-th offer, carrier-sense
// respected), cycling forever. Tests use it to inject exact byte sequences.
class ScriptedHostile final : public net::HostileModel {
 public:
  ScriptedHostile(std::vector<std::vector<uint8_t>> packets, uint32_t period)
      : packets_(std::move(packets)), period_(period) {}

  void observe(std::span<const uint8_t>) override {}
  bool emit(uint64_t, bool air_clear, std::vector<uint8_t>& out) override {
    if (!air_clear || packets_.empty()) return false;
    if (++calls_ % period_ != 0) return false;
    out = packets_[next_++ % packets_.size()];
    return true;
  }

 private:
  std::vector<std::vector<uint8_t>> packets_;
  uint32_t period_;
  uint64_t calls_ = 0;
  size_t next_ = 0;
};

// --- NetAuth: the MAC primitive and wire variants ---------------------------

// SipHash-2-4 reference vectors (key 000102...0f, 64-bit output) from the
// SipHash reference implementation's vectors_sip64 table.
TEST(NetAuth, SipHashReferenceVectors) {
  const net::AuthKey k = net::kDefaultAuthKey;  // 000102...0f little-endian
  EXPECT_EQ(net::siphash24(k, {}), 0x726fdb47dd0e0e31ULL);
  const uint8_t one[] = {0x00};
  EXPECT_EQ(net::siphash24(k, one), 0x74f839c593dc67fdULL);
  uint8_t eight[8];
  for (int i = 0; i < 8; ++i) eight[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(net::siphash24(k, eight), 0x93f5f5799a932462ULL);
}

TEST(NetAuth, MacDependsOnKeyAndMessage) {
  const auto blob = seeded_blob(1, 200);
  const uint64_t mac = net::siphash24(net::kDefaultAuthKey, blob);
  net::AuthKey other = net::kDefaultAuthKey;
  other.k0 ^= 1;
  EXPECT_NE(net::siphash24(other, blob), mac);
  auto flipped = blob;
  flipped[100] ^= 0x01;
  EXPECT_NE(net::siphash24(net::kDefaultAuthKey, flipped), mac);
  EXPECT_EQ(net::siphash24(net::kDefaultAuthKey, blob), mac);
}

TEST(NetAuth, SummaryMacRoundTripAndLegacySizes) {
  net::SummaryInfo info{120, 3840u, 0xC0FFEE00u, 32};
  // Legacy star: 11-byte payload, byte-identical to the pre-auth wire.
  EXPECT_EQ(net::make_summary(1, info).payload.size(), 11u);
  // Authenticated star: geometry + 8-byte MAC.
  info.has_mac = true;
  info.image_mac = 0x0123456789ABCDEFULL;
  const auto f = net::make_summary(1, info);
  EXPECT_EQ(f.payload.size(), 19u);
  const auto back = net::parse_summary(f);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->has_mac);
  EXPECT_EQ(back->image_mac, info.image_mac);
  EXPECT_EQ(back->total_chunks, info.total_chunks);
  EXPECT_EQ(back->image_crc, info.image_crc);
  EXPECT_FALSE(back->has_sender);
  // Authenticated mesh: MAC inserted before the sender, which stays last.
  const auto mf = net::make_mesh_summary(1, info, 7, 3);
  EXPECT_EQ(mf.payload.size(), 21u);
  EXPECT_EQ(mf.seq, 3u);  // hop rides in seq
  const auto mb = net::parse_summary(mf);
  ASSERT_TRUE(mb.has_value());
  EXPECT_TRUE(mb->has_mac);
  EXPECT_EQ(mb->image_mac, info.image_mac);
  ASSERT_TRUE(mb->has_sender);
  EXPECT_EQ(mb->sender, 7u);
  // Legacy mesh stays 13 bytes.
  info.has_mac = false;
  EXPECT_EQ(net::make_mesh_summary(1, info, 7, 3).payload.size(), 13u);
}

TEST(NetAuth, AckTagRoundTripAndLegacyFramesCarryNone) {
  const uint64_t tag = net::ack_tag(net::kDefaultAuthKey, 2, 5, 0xDEADBEEFu);
  const auto star = net::make_auth_ack(2, 5, tag);
  EXPECT_EQ(star.seq, 5u);
  EXPECT_EQ(star.payload.size(), 8u);
  const auto got = net::ack_auth_tag(star);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, tag);

  const auto mesh = net::make_mesh_ack(2, 5, 3, 1, tag);
  EXPECT_EQ(mesh.payload.size(), 11u);
  const auto ma = net::parse_mesh_ack(mesh);
  ASSERT_TRUE(ma.has_value());
  EXPECT_TRUE(ma->has_tag);
  EXPECT_EQ(ma->tag, tag);
  EXPECT_EQ(ma->relayer, 3u);
  const auto mt = net::ack_auth_tag(mesh);
  ASSERT_TRUE(mt.has_value());
  EXPECT_EQ(*mt, tag);

  // Legacy encodings: empty star Ack and the 3-byte mesh Ack carry no tag.
  net::Frame legacy{net::FrameType::Ack, 2, 5, {}};
  EXPECT_FALSE(net::ack_auth_tag(legacy).has_value());
  const auto lm = net::make_mesh_ack(2, 5, 3, 1);
  EXPECT_EQ(lm.payload.size(), 3u);
  EXPECT_FALSE(net::ack_auth_tag(lm).has_value());
  const auto lma = net::parse_mesh_ack(lm);
  ASSERT_TRUE(lma.has_value());
  EXPECT_FALSE(lma->has_tag);
}

TEST(NetAuth, AckTagBindsOriginVersionAndCrc) {
  const net::AuthKey k = net::kDefaultAuthKey;
  const uint64_t t = net::ack_tag(k, 1, 4, 0x11111111u);
  EXPECT_EQ(net::ack_tag(k, 1, 4, 0x11111111u), t);
  EXPECT_NE(net::ack_tag(k, 2, 4, 0x11111111u), t);  // version
  EXPECT_NE(net::ack_tag(k, 1, 5, 0x11111111u), t);  // origin
  EXPECT_NE(net::ack_tag(k, 1, 4, 0x22222222u), t);  // image CRC
  net::AuthKey other = k;
  other.k1 ^= 0x80;
  EXPECT_NE(net::ack_tag(other, 1, 4, 0x11111111u), t);  // key
}

// --- NetFuzz: hostile input units -------------------------------------------

TEST(NetFuzz, DeframerSurvivesRandomByteStream) {
  chaos::Prng r(0xF00D);
  net::Deframer d;
  size_t frames = 0;
  for (size_t i = 0; i < 64 * 1024; ++i) {
    d.push(static_cast<uint8_t>(r.below(256)));
    while (d.next()) ++frames;  // random CRC hits are fine; crashes are not
  }
  // The parser must not wedge: after arbitrary garbage, a burst of valid
  // frames longer than the worst-case phantom (a garbage sync promising a
  // 48-byte payload can hold back up to 56 bytes) always yields a parse.
  net::Frame valid{net::FrameType::Data, 1, 0x1234, {9, 8, 7}};
  for (int k = 0; k < 8; ++k)
    for (uint8_t b : net::encode_frame(valid)) d.push(b);
  size_t recovered = 0;
  while (auto f = d.next())
    if (f->seq == 0x1234) ++recovered;
  EXPECT_GE(recovered, 1u);
  (void)frames;
}

TEST(NetFuzz, DeframerEvilCorpus) {
  // Each entry is a hostile byte sequence; after each, a burst of valid
  // sentinel frames (sized past the worst-case 56-byte phantom an evil
  // header can hold pending) must still get through.
  const std::vector<std::vector<uint8_t>> corpus = {
      {net::kFrameSync},                                  // bare sync
      {net::kFrameSync, 0x02, 0x01, 0x00, 0x00},          // cut-off header
      {net::kFrameSync, 0x02, 0x01, 0x00, 0x00, 0xFF},    // length over max
      {net::kFrameSync, 0x02, 0x01, 0x00, 0x00, 48},      // max length, no body
      {net::kFrameSync, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // type 0
      {net::kFrameSync, net::kFrameSync, net::kFrameSync, net::kFrameSync},
      {0x00, 0x01, 0x02, net::kFrameSync, 0x04, 0x05, 0x06, 0x07, 0x08},
  };
  // A valid frame whose CRC bytes are flipped: detected, then resynced.
  auto bad_crc = net::encode_frame({net::FrameType::Data, 1, 7, {1, 2, 3}});
  bad_crc.back() ^= 0xFF;

  net::Deframer d;
  const net::Frame sentinel{net::FrameType::Ack, 1, 0xBEEF, {}};
  for (const auto& evil : corpus) {
    for (uint8_t b : evil) d.push(b);
    for (int k = 0; k < 8; ++k)
      for (uint8_t b : net::encode_frame(sentinel)) d.push(b);
    size_t got = 0;
    while (auto f = d.next())
      if (f->type == net::FrameType::Ack && f->seq == 0xBEEF) ++got;
    EXPECT_GE(got, 1u);
  }
  for (uint8_t b : bad_crc) d.push(b);
  for (int k = 0; k < 8; ++k)
    for (uint8_t b : net::encode_frame(sentinel)) d.push(b);
  bool got = false;
  while (auto f = d.next())
    if (f->seq == 0xBEEF) got = true;
  EXPECT_TRUE(got);
  EXPECT_GE(d.crc_errors(), 1u);
}

std::vector<uint8_t> linked_test_blob() {
  rw::Linker linker(rw::RewriteOptions{}, true);
  linker.add(testlib::random_program(42));
  return net::serialize_system(linker.link());
}

TEST(NetFuzz, ImageCodecSurvivesTruncationAndMutation) {
  const auto blob = linked_test_blob();
  const auto sys = net::deserialize_system(blob);
  ASSERT_TRUE(sys.has_value());
  EXPECT_EQ(net::serialize_system(*sys), blob);  // clean round trip

  // Every truncation must fail clean (strict validation: no partial parse).
  for (size_t len = 0; len < blob.size(); len += 17) {
    const auto cut = net::deserialize_system(
        std::span<const uint8_t>(blob.data(), len));
    EXPECT_FALSE(cut.has_value()) << "prefix " << len;
  }
  // Seeded byte mutations: parsing may succeed or fail, but must never
  // crash, hang, or read out of bounds (ASan/UBSan enforce in CI).
  chaos::Prng r(0xBADF00D);
  for (int i = 0; i < 300; ++i) {
    auto mut = blob;
    const int flips = 1 + int(r.below(8));
    for (int f = 0; f < flips; ++f)
      mut[r.below(static_cast<uint32_t>(mut.size()))] ^=
          static_cast<uint8_t>(1 + r.below(255));
    (void)net::deserialize_system(mut);
  }
  // Pure garbage of assorted sizes.
  for (uint32_t size : {0u, 1u, 5u, 19u, 20u, 21u, 64u, 1024u}) {
    const auto junk = seeded_blob(size + 77, size);
    EXPECT_FALSE(net::deserialize_system(junk).has_value());
  }
}

// Regression: a forged header with flash_words >= 2^31 made the 32-bit
// bounds check `flash_words * 2 > remaining` wrap (0x80000001 * 2 == 2) and
// commanded a multi-GB allocation from a 26-byte blob. The exact triggering
// byte sequence, hand-assembled:
TEST(NetFuzz, FlashWordsOverflowRegression) {
  std::vector<uint8_t> evil;
  auto u16 = [&](uint16_t v) {
    evil.push_back(static_cast<uint8_t>(v & 0xFF));
    evil.push_back(static_cast<uint8_t>(v >> 8));
  };
  auto u32 = [&](uint32_t v) {
    u16(static_cast<uint16_t>(v & 0xFFFF));
    u16(static_cast<uint16_t>(v >> 16));
  };
  u32(net::kImageMagic);
  u16(net::kImageFormatVersion);
  for (int i = 0; i < 6; ++i) evil.push_back(1);  // rewrite option flags
  for (int i = 0; i < 8; ++i) evil.push_back(0);  // body_scale (f64 0.0)
  u32(0x80000001u);  // flash_words: *2 wraps to 2 in uint32
  u16(0xABCD);       // exactly 2 remaining bytes, "satisfying" wrapped check
  ASSERT_EQ(evil.size(), 26u);
  EXPECT_FALSE(net::deserialize_system(evil).has_value());
}

// --- NetHostile: end-to-end attacks through the simulator -------------------

struct HostileRun {
  net::DisseminationResult d;
  std::vector<std::vector<uint8_t>> blobs;  // node_blob per id (1-based at 0)
  std::vector<bool> complete;
  uint64_t digest = 0;
  uint64_t cycles = 0;
};

HostileRun run_hostile(const net::NetConfig& cfg,
                       const std::vector<uint8_t>& blob,
                       net::HostileModel* model) {
  net::NetSim sim(cfg, blob);
  sim.set_hostile_model(model);
  HostileRun r;
  r.d = sim.disseminate();
  r.digest = r.d.trace_digest;
  r.cycles = r.d.cycles;
  for (size_t id = 1; id <= cfg.nodes; ++id) {
    r.complete.push_back(sim.node_complete(id));
    r.blobs.push_back(sim.node_blob(id));
  }
  return r;
}

// The forged image a scripted attacker serves: tiny, CRC-consistent.
struct Forgery {
  std::vector<uint8_t> bytes;
  uint32_t crc;
  net::SummaryInfo info;
};

Forgery make_forgery(bool with_mac) {
  Forgery f;
  f.bytes = seeded_blob(0xEE, 64);
  f.crc = net::crc32(f.bytes);
  f.info = {2, 64u, f.crc, 32};
  if (with_mac) {
    f.info.has_mac = true;
    f.info.image_mac = 0x4141414141414141ULL;  // attacker holds no key
  }
  return f;
}

// A line topology 0-1-2 with the attacker in the middle: honest node 2 is
// out of the base's radio range and hears ONLY the attacker — the forged
// announcement faces no race against the honest one.
net::NetConfig line_cfg(bool auth) {
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.topo.kind = net::TopologyKind::Line;
  cfg.hostile_node = 1;
  cfg.proto.auth = auth;
  cfg.proto.node_give_up_probes = 8;  // the base must be able to give up
  cfg.max_cycles = 3'000'000'000ULL;
  return cfg;
}

std::vector<std::vector<uint8_t>> forged_serving_packets(const Forgery& f) {
  // Mesh Summary claiming hop 1 (sender = hostile id 1), then both chunks.
  std::vector<std::vector<uint8_t>> pkts;
  pkts.push_back(net::encode_frame(net::make_mesh_summary(1, f.info, 1, 1)));
  for (uint16_t seq = 0; seq < 2; ++seq) {
    net::Frame df{net::FrameType::Data, 1, seq,
                  {f.bytes.begin() + seq * 32, f.bytes.begin() + seq * 32 + 32}};
    pkts.push_back(net::encode_frame(df));
  }
  return pkts;
}

// With authentication OFF a CRC-consistent forgery INSTALLS: the victim
// assembles the attacker's bytes, the whole-image CRC (of those bytes)
// passes, and the store activates. This is the vulnerability the MAC
// closes; the test pins it so the threat model stays demonstrably real.
TEST(NetHostile, ForgedImageInstallsWithoutMac) {
  const auto honest = seeded_blob(0x5151, 400);
  const auto f = make_forgery(/*with_mac=*/false);
  ScriptedHostile attacker(forged_serving_packets(f), 4);
  const auto r = run_hostile(line_cfg(/*auth=*/false), honest, &attacker);
  ASSERT_EQ(r.complete.size(), 2u);
  EXPECT_FALSE(r.d.budget_exhausted);
  EXPECT_TRUE(r.complete[1]) << "victim should install the forgery";
  EXPECT_EQ(r.blobs[1], f.bytes);  // forged bytes, verified and activated
  EXPECT_NE(r.blobs[1], honest);
}

// Same attack with authentication ON: the victim assembles the forgery,
// the CRC passes, and the MAC gate kills the install. The victim never
// activates, blacklists the forged announcement, and the base classifies
// it instead of hanging.
TEST(NetHostile, MacBlocksForgedInstall) {
  const auto honest = seeded_blob(0x5151, 400);
  const auto f = make_forgery(/*with_mac=*/true);
  ScriptedHostile attacker(forged_serving_packets(f), 4);
  const auto cfg = line_cfg(/*auth=*/true);
  const auto r = run_hostile(cfg, honest, &attacker);
  ASSERT_EQ(r.complete.size(), 2u);
  EXPECT_FALSE(r.d.budget_exhausted);
  EXPECT_FALSE(r.complete[1]) << "MAC gate must block the forged install";
  EXPECT_GE(r.d.nodes[1].auth_rejects, 1u);
  EXPECT_TRUE(r.d.nodes[1].abandoned);
  // Replay: adversarial runs are as deterministic as honest ones.
  ScriptedHostile again(forged_serving_packets(f), 4);
  const auto r2 = run_hostile(cfg, honest, &again);
  EXPECT_EQ(r2.digest, r.digest);
  EXPECT_EQ(r2.cycles, r.cycles);
}

// Regression for the out-of-bounds Nack scan surfaced by the fuzzer
// (net-chaos seed 7): a victim assembling a forged announcement with FEWER
// chunks than the base's image indexed st.have past its end when building
// its missing list (the loop ran to the sim-global chunk count). The heap
// garbage it read made replays diverge. Trigger: the line-topology victim
// adopts the 2-chunk forgery while the honest image has 13 chunks, then
// Nacks — run twice and require byte-identical traces.
TEST(NetHostile, ForgedSmallGeometryNackReplayRegression) {
  const auto honest = seeded_blob(0x5151, 400);  // 13 chunks at payload 32
  const auto f = make_forgery(/*with_mac=*/true);
  // Serve only the Summary: the victim keeps Nacking against the forged
  // 2-chunk geometry, exercising the missing-list scan every backoff.
  std::vector<std::vector<uint8_t>> pkts = {
      net::encode_frame(net::make_mesh_summary(1, f.info, 1, 1))};
  const auto cfg = line_cfg(/*auth=*/true);
  ScriptedHostile a1(pkts, 4), a2(pkts, 4);
  const auto r1 = run_hostile(cfg, honest, &a1);
  const auto r2 = run_hostile(cfg, honest, &a2);
  EXPECT_FALSE(r1.d.budget_exhausted);
  EXPECT_FALSE(r1.complete[1]);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.d.trace_events, r2.d.trace_events);
}

// Ack spoofing, the completion-side forgery: with auth off a scripted
// attacker claiming "node 1 and node 2 completed" ends the run with the
// base convinced of two installs that never happened. With auth on the
// unsigned claims are dropped and the honest node really completes.
TEST(NetHostile, AckSpoofForgesCompletionWithoutAuthTag) {
  const auto honest = seeded_blob(0x2222, 400);
  net::NetConfig cfg;
  cfg.nodes = 2;  // star: node 2 honest, node 1 hostile
  cfg.hostile_node = 1;
  cfg.max_cycles = 2'000'000'000ULL;

  std::vector<std::vector<uint8_t>> spoofs;
  for (uint16_t victim : {1, 2})
    spoofs.push_back(
        net::encode_frame(net::Frame{net::FrameType::Ack, 1, victim, {}}));

  cfg.proto.auth = false;
  ScriptedHostile liar(spoofs, 2);
  const auto off = run_hostile(cfg, honest, &liar);
  EXPECT_TRUE(off.d.all_acked) << "base believed both spoofed completions";
  EXPECT_FALSE(off.complete[0]);
  EXPECT_FALSE(off.complete[1]) << "yet nobody actually installed";

  cfg.proto.auth = true;
  ScriptedHostile liar2(spoofs, 2);
  const auto on = run_hostile(cfg, honest, &liar2);
  EXPECT_GE(on.d.base.acks_rejected, 2u);
  EXPECT_FALSE(on.d.budget_exhausted);
  EXPECT_TRUE(on.complete[1]);  // honest node 2 completes for real
  EXPECT_EQ(on.blobs[1], honest);
}

// Nack flooding: the liveness quota bounds how long impersonated "still
// alive" claims can delay abandonment. The flood is squelched, honest
// nodes complete, and the run terminates instead of livelocking.
TEST(NetHostile, NackFloodSquelchedByLivenessQuota) {
  const auto honest = seeded_blob(0x3333, 400);
  net::NetConfig cfg;
  cfg.nodes = 3;
  cfg.hostile_node = 1;
  cfg.proto.auth = true;
  cfg.max_cycles = 3'000'000'000ULL;

  chaos::HostileProfile p;
  p.seed = 99;
  p.node = 1;
  p.nodes = 3;
  p.intensity_pct = 95;
  p.garbage = p.truncation = p.replay = p.collide = false;
  p.forge_summary = p.forge_data = p.ack_spoof = false;  // nack_flood only
  chaos::HostileNode flooder(p);

  const auto r = run_hostile(cfg, honest, &flooder);
  EXPECT_FALSE(r.d.budget_exhausted) << "flood must not livelock the run";
  EXPECT_GT(r.d.base.frames_squelched, 0u);
  EXPECT_TRUE(r.complete[1]);
  EXPECT_TRUE(r.complete[2]);
  EXPECT_EQ(r.blobs[1], honest);
  EXPECT_EQ(r.blobs[2], honest);
  EXPECT_GT(flooder.frames_emitted(), 0u);
}

// Full-repertoire acceptance: a seeded HostileNode in an 8-node star at
// 10% loss. The fleet must terminate inside the budget with every honest
// node classified (complete or abandoned with a reason), no forged
// installs, and a byte-identical replay.
TEST(NetHostile, StarFleetSurvivesSeededAttacker) {
  const auto honest = seeded_blob(0x4444, 600);
  net::NetConfig cfg;
  cfg.nodes = 8;
  cfg.link.drop_pct = 10;
  cfg.hostile_node = 3;
  cfg.proto.auth = true;
  cfg.max_cycles = 8'000'000'000ULL;

  chaos::HostileProfile p;
  p.seed = 0xA77AC;
  p.node = 3;
  p.nodes = 8;
  p.intensity_pct = 60;
  auto run = [&] {
    chaos::HostileNode attacker(p);
    return run_hostile(cfg, honest, &attacker);
  };
  const auto r = run();
  EXPECT_FALSE(r.d.budget_exhausted);
  size_t honest_complete = 0;
  for (size_t id = 1; id <= cfg.nodes; ++id) {
    const auto& st = r.d.nodes[id - 1];
    if (id == cfg.hostile_node) {
      EXPECT_FALSE(r.complete[id - 1]);
      continue;
    }
    // Classified: completed, or abandoned with a recorded reason.
    EXPECT_TRUE(r.complete[id - 1] || st.abandoned) << "node " << id;
    if (r.complete[id - 1]) {
      ++honest_complete;
      EXPECT_EQ(r.blobs[id - 1], honest) << "node " << id;  // never forged
    } else {
      EXPECT_NE(st.abort_reason, net::NodeAbortReason::None);
    }
  }
  EXPECT_GE(honest_complete, 1u);
  const auto r2 = run();
  EXPECT_EQ(r2.digest, r.digest);
  EXPECT_EQ(r2.cycles, r.cycles);
}

// Same bar on a 16-node mesh grid at 10% loss (the ISSUE acceptance
// scenario): multi-hop relaying, peer serving and CSMA collisions between
// the attacker and honest traffic, still no forged install and every
// honest node classified within the budget.
TEST(NetHostile, GridFleetSurvivesSeededAttacker) {
  const auto honest = seeded_blob(0x6666, 600);
  net::NetConfig cfg;
  cfg.nodes = 16;
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.link.drop_pct = 10;
  cfg.hostile_node = 5;
  cfg.proto.auth = true;
  cfg.proto.node_give_up_probes = 24;  // generous, but finite under attack
  cfg.max_cycles = 12'000'000'000ULL;

  chaos::HostileProfile p;
  p.seed = 0x6B1D;
  p.node = 5;
  p.nodes = 16;
  p.intensity_pct = 50;
  chaos::HostileNode attacker(p);
  const auto r = run_hostile(cfg, honest, &attacker);
  EXPECT_FALSE(r.d.budget_exhausted);
  for (size_t id = 1; id <= cfg.nodes; ++id) {
    if (id == cfg.hostile_node) continue;
    const auto& st = r.d.nodes[id - 1];
    EXPECT_TRUE(r.complete[id - 1] || st.abandoned) << "node " << id;
    if (r.complete[id - 1]) {
      EXPECT_EQ(r.blobs[id - 1], honest) << "node " << id;
    }
  }
  // One run against a pin instead of a replay: the pin holds the run to
  // the same cycles and trace a replay would have to reproduce.
  EXPECT_EQ(r.cycles, 6440432640u);
  EXPECT_EQ(r.digest, 0xb2fa832368cc6e69ULL);
}

// bench/fig_dissemination --adversarial (dissem::adversarial_matrix()):
// {star 8, grid 16} at 10% loss x MAC off/on x hostile node off/on, plus a
// lossless honest MAC-off/on pair per topology. Its honest MAC-off star
// cells are the default matrix's star 8 cells, pinned by
// NetDeterminism.GoldenTraceDigests, and are not run again here. Every
// other cell ends inside its budget at exactly the pinned cycles and
// digest; an honest cell converges byte-identically, and no MAC-on cell
// installs a forgery.
struct CellPin {
  const char* name;  // dissem::cell_name of the cell
  uint64_t cycles;
  uint64_t digest;
};

constexpr CellPin kAdversarialPins[] = {
    {"star 8 @ 10% hostile", 12840960, 0xb68c346852c27d36ULL},
    {"star 8 @ 10% mac", 32922624, 0x9a8b55ba05ba60bdULL},
    {"star 8 @ 10% mac hostile", 4381381632, 0xbc5e2796ef553bdeULL},
    {"star 8 @ 0% mac", 16465920, 0xe2d1de1ddc848707ULL},
    {"grid 16 @ 10%", 284805120, 0x27e3fb87794159c3ULL},
    {"grid 16 @ 10% hostile", 81841152, 0x3ba28db08c9f520dULL},
    {"grid 16 @ 10% mac", 272074752, 0x27b907efb388523dULL},
    {"grid 16 @ 10% mac hostile", 32501031936, 0xb2eb9080f55157b7ULL},
    {"grid 16 @ 0%", 196033536, 0x1eaf309420c41fcdULL},
    {"grid 16 @ 0% mac", 237646848, 0x994b87c243d7aad7ULL},
};

// The lossless honest MAC-off star 8 cell: "matrix star 8 @ 0%" of
// NetDeterminism.GoldenTraceDigests.
constexpr uint64_t kStar8LosslessCycles = 16220160;

using AdversarialRuns = std::vector<std::pair<std::string, HostileRun>>;

// Runs the adversarial cells that are not default-matrix cells and whose
// MAC-on-under-attack flag is `mac_under_attack`, and checks each against
// its pin and the per-cell rules.
AdversarialRuns expect_adversarial_cells(bool mac_under_attack) {
  std::vector<net::NetConfig> cfgs = dissem::adversarial_matrix();
  std::erase_if(cfgs, [&](const net::NetConfig& cfg) {
    const bool hostile = cfg.hostile_node != 0;
    return (!cfg.proto.auth && !hostile &&
            cfg.topo.kind == net::TopologyKind::Star) ||
           (cfg.proto.auth && hostile) != mac_under_attack;
  });
  const auto blob = dissem::fig7_image_blob();
  const auto runs = host::sweep_collect<HostileRun>(
      cfgs.size(), host::effective_jobs(4, cfgs.size()), [&](std::size_t i) {
        std::optional<chaos::HostileNode> attacker;
        if (cfgs[i].hostile_node)
          attacker.emplace(dissem::attacker_profile(cfgs[i]));
        return run_hostile(cfgs[i], blob, attacker ? &*attacker : nullptr);
      });
  AdversarialRuns named;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    const net::NetConfig& cfg = cfgs[i];
    const HostileRun& r = runs[i];
    const std::string name = dissem::cell_name(cfg);
    SCOPED_TRACE(name);
    EXPECT_FALSE(r.d.budget_exhausted);
    if (!cfg.hostile_node) {
      EXPECT_TRUE(r.d.all_acked);
    }
    // Honest nodes off the source image, and those of them that completed:
    // a forged install.
    size_t foreign = 0, forged = 0;
    for (size_t id = 1; id <= cfg.nodes; ++id) {
      if (id == cfg.hostile_node || r.blobs[id - 1] == blob) continue;
      ++foreign;
      forged += r.complete[id - 1];
    }
    if (!cfg.hostile_node) {
      EXPECT_EQ(foreign, 0u);
    }
    if (cfg.proto.auth) {
      EXPECT_EQ(forged, 0u) << "forged installs with MAC on";
    }
    const CellPin* pin = nullptr;
    for (const CellPin& p : kAdversarialPins)
      if (name == p.name) pin = &p;
    if (!pin) {
      ADD_FAILURE() << "no pin";
      continue;
    }
    EXPECT_EQ(r.cycles, pin->cycles);
    EXPECT_EQ(r.digest, pin->digest) << "digest 0x" << std::hex << r.digest;
    named.emplace_back(name, r);
  }
  return named;
}

// Every cell but the two MAC-on cells under attack, which have their own
// test below.
TEST(NetHostile, AdversarialMatrixPinned) {
  const auto runs = expect_adversarial_cells(false);
  ASSERT_EQ(runs.size() + 2, std::size(kAdversarialPins));
  const auto cycles = [&](const std::string& name) {
    for (const auto& [n, r] : runs)
      if (n == name) return r.cycles;
    ADD_FAILURE() << "no cell " << name;
    return uint64_t{1};
  };

  // The MAC tax on the lossless honest pair (at 10% loss the tag bytes
  // shift frames against the seeded drop rolls, and that luck buries the
  // tax). On a star the tags vanish into data traffic: within 2%. On a mesh
  // Summary re-floods and relayed Acks are small frames the 8-byte tag
  // inflates by 38-73% each: the bound keeps that tax under 25%.
  const double star_tax =
      double(cycles("star 8 @ 0% mac")) / double(kStar8LosslessCycles) - 1.0;
  EXPECT_LE(std::abs(star_tax), 0.02) << "star MAC tax";
  const double grid_tax = double(cycles("grid 16 @ 0% mac")) /
                              double(cycles("grid 16 @ 0%")) -
                          1.0;
  EXPECT_LE(std::abs(grid_tax), 0.25) << "grid MAC tax";
}

// The two MAC-on cells under attack: the attacker stretches them to 4.4
// (star) and 32.5 (grid) Gcycles, ending with every honest node cleanly
// abandoned and no forged install. They dominate the matrix's run time,
// which is why they stand apart from AdversarialMatrixPinned.
TEST(NetHostile, AdversarialMacUnderAttackPinned) {
  EXPECT_EQ(expect_adversarial_cells(true).size(), 2u);
}

// 32-seed property: one random hostile node per seed, and every run
// terminates within its cycle budget and replays byte-identically.
TEST(NetHostile, SeededAttackerShardInvariantOver32Seeds) {
  constexpr size_t kSeeds = 32;
  const auto ok = host::sweep_collect<uint8_t>(
      kSeeds, host::effective_jobs(8, kSeeds), [&](std::size_t i) {
        const uint64_t seed = i + 1;
        chaos::Prng plan(seed ^ 0xADA55ULL);
        net::NetConfig cfg;
        cfg.nodes = 3 + plan.below(3);  // 3..5
        cfg.link.drop_pct = plan.below(6);
        cfg.hostile_node = static_cast<uint16_t>(1 + plan.below(cfg.nodes));
        cfg.proto.auth = true;
        cfg.chaos_seed = seed;
        cfg.max_cycles = 4'000'000'000ULL;
        // Collapse the abandon tail: the attacker never Acks, so every run
        // ends by giving up on it, and the default probe backoff would
        // spend most of the simulated (and wall) time idling toward that
        // abandonment. The property is termination and replay, not
        // classification latency — short timers exercise the same code.
        cfg.proto.node_give_up_probes = 4;
        cfg.proto.nack_timeout = 4 * 40 * emu::DeviceHub::kCyclesPerRadioByte;
        cfg.proto.probe_interval =
            8 * 40 * emu::DeviceHub::kCyclesPerRadioByte;
        cfg.proto.backoff_cap_exp = 2;
        if (plan.below(2)) cfg.topo.kind = net::TopologyKind::Grid;
        const auto blob = seeded_blob(seed * 31, 100 + plan.below(100));
        chaos::HostileProfile p;
        p.seed = seed * 0x9E37;
        p.node = cfg.hostile_node;
        p.nodes = static_cast<uint16_t>(cfg.nodes);
        p.intensity_pct = 30 + plan.below(21);
        auto run = [&] {
          chaos::HostileNode attacker(p);
          return run_hostile(cfg, blob, &attacker);
        };
        const auto first = run();
        if (first.d.budget_exhausted) return false;
        const auto replay = run();
        return replay.digest == first.digest &&
               replay.cycles == first.cycles &&
               replay.d.trace_events == first.d.trace_events &&
               replay.complete == first.complete &&
               replay.blobs == first.blobs;
      });
  for (size_t i = 0; i < kSeeds; ++i) EXPECT_TRUE(ok[i]) << "seed " << i + 1;
}

// The chaos-harness dimension end-to-end: forced-adversary net-chaos seeds
// run their internal replay oracle (and the convergence/forgery oracles)
// clean. Seed 7 is pinned — it is the seed whose planned mesh fleet first
// surfaced the out-of-bounds Nack scan as a replay divergence.
TEST(NetHostile, NetChaosForcedAdversarySeedsReplayClean) {
  for (uint64_t seed : {3ULL, 7ULL, 8ULL}) {
    chaos::NetChaosOptions opts;
    opts.seed = seed;
    opts.force_adversary = true;
    const chaos::NetChaosResult res = chaos::run_net_chaos(opts);
    EXPECT_TRUE(res.ok()) << "seed " << seed << ": "
                          << (res.violations.empty() ? ""
                                                     : res.violations.front());
    EXPECT_TRUE(res.hostile);
    EXPECT_GT(res.hostile_frames, 0u);
  }
}

}  // namespace
}  // namespace sensmart
