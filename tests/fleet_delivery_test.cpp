// The fleet delivery path (DESIGN.md §7, §9): per-sender offer counts and
// the scripted policy's link index, counter-only PRNG rolls, the
// shared-frame tag, the due set's calendar, the whole-frame wake shortcut
// and the radio-only sync.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "chaos/prng.hpp"
#include "emu/io_map.hpp"
#include "emu/machine.hpp"
#include "net/due_set.hpp"
#include "net/frame.hpp"
#include "net/medium.hpp"
#include "net/netsim.hpp"
#include "net/topology.hpp"

namespace sensmart {
namespace {

using emu::DeviceHub;
using net::FaultAction;
using net::Frame;
using net::FrameType;

constexpr uint64_t kB = DeviceHub::kCyclesPerRadioByte;

struct Radio {
  emu::DataMemory mem;
  DeviceHub dev{mem};
};

std::vector<uint8_t> frame_bytes(FrameType type, uint16_t seq,
                                 std::vector<uint8_t> payload) {
  return net::encode_frame(Frame{type, 1, seq, std::move(payload)});
}

std::vector<uint8_t> concat(std::vector<uint8_t> a,
                            const std::vector<uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// --- MediumLinkIndex: the index a scripted policy sees ----------------------

using Offer = std::tuple<size_t, size_t, uint64_t>;  // (from, to, index)

// Attach `first` radios, broadcast from each of `before`, attach `late`
// more, broadcast from each of `after`; every (from, to, link_tx_index) the
// policy sees, in call order. The policy also checks each index against a
// per-link count kept here.
std::vector<Offer> scripted_offers(bool mesh, size_t first, size_t late,
                                   const std::vector<size_t>& before,
                                   const std::vector<size_t>& after) {
  net::Medium medium(net::LinkParams{}, 5);
  std::vector<std::unique_ptr<Radio>> radios;
  for (size_t i = 0; i < first + late; ++i)
    radios.push_back(std::make_unique<Radio>());
  for (size_t i = 0; i < first; ++i) medium.attach(&radios[i]->dev);
  if (mesh) {
    net::TopologySpec spec;
    spec.kind = net::TopologyKind::Line;
    medium.set_topology(net::build_topology(spec, first + late, 1));
  }
  std::vector<Offer> seen;
  std::map<std::pair<size_t, size_t>, uint64_t> offered;
  medium.set_fault_policy([&](size_t from, size_t to, uint64_t index,
                              std::span<const uint8_t>) {
    const auto link = std::make_pair(from, to);
    EXPECT_EQ(index, offered[link]++) << from << " -> " << to;
    seen.emplace_back(from, to, index);
    return FaultAction::None;
  });
  const std::vector<uint8_t> pkt{1, 2, 3};
  uint64_t done = 10'000;
  for (const size_t s : before) medium.broadcast(s, pkt, done += 10'000);
  for (size_t i = first; i < first + late; ++i) medium.attach(&radios[i]->dev);
  for (const size_t s : after) medium.broadcast(s, pkt, done += 10'000);
  return seen;
}

// The sequences below were recorded with the per-link counter table the
// medium kept before it counted offers per sender.
TEST(MediumLinkIndex, ScriptedPolicySeesPerLinkCountsOnStarAndMesh) {
  const std::vector<Offer> star = {
      {0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {2, 0, 0}, {2, 1, 0}, {2, 3, 0},
      {0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 0, 0}, {1, 2, 0}, {1, 3, 0},
      {3, 0, 0}, {3, 1, 0}, {3, 2, 0}, {0, 1, 2}, {0, 2, 2}, {0, 3, 2},
      {2, 0, 1}, {2, 1, 1}, {2, 3, 1}};
  EXPECT_EQ(scripted_offers(false, 4, 0, {0, 2, 0, 1, 3, 0, 2}, {}), star);
  // Line 0-1-2-3-4: a broadcast is offered to the sender's neighbors only.
  const std::vector<Offer> mesh = {
      {0, 1, 0}, {2, 1, 0}, {2, 3, 0}, {1, 0, 0}, {1, 2, 0}, {2, 1, 1},
      {2, 3, 1}, {4, 3, 0}, {3, 2, 0}, {3, 4, 0}, {2, 1, 2}, {2, 3, 2}};
  EXPECT_EQ(scripted_offers(true, 5, 0, {0, 2, 1, 2, 4, 3, 2}, {}), mesh);
}

// A radio attached after broadcasts began has been offered none of them,
// and the links it does not touch keep counting. (The per-link table
// re-strided its counters when it grew: link 0 -> 3 started at 2 and
// link 1 -> 0 fell back to 0.)
TEST(MediumLinkIndex, LateAttachedRadioStartsItsLinksAtZero) {
  const std::vector<Offer> star = {
      {0, 1, 0}, {0, 2, 0}, {1, 0, 0}, {1, 2, 0}, {2, 0, 0}, {2, 1, 0},
      {1, 0, 1}, {1, 2, 1}, {0, 1, 1}, {0, 2, 1}, {0, 3, 0}, {1, 0, 2},
      {1, 2, 2}, {1, 3, 0}, {3, 0, 0}, {3, 1, 0}, {3, 2, 0}, {0, 1, 2},
      {0, 2, 2}, {0, 3, 1}};
  EXPECT_EQ(scripted_offers(false, 3, 1, {0, 1, 2, 1}, {0, 1, 3, 0}), star);
  // Line of 5 with nodes 3 and 4 attached late: node 2's broadcasts before
  // then reach node 1 only.
  const std::vector<Offer> mesh = {
      {1, 0, 0}, {1, 2, 0}, {2, 1, 0}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1},
      {2, 3, 0}, {3, 2, 0}, {3, 4, 0}, {4, 3, 0}, {1, 0, 2}, {1, 2, 2},
      {2, 1, 2}, {2, 3, 1}};
  EXPECT_EQ(scripted_offers(true, 3, 2, {1, 2, 1}, {2, 3, 4, 1, 2}), mesh);
}

TEST(MediumLinkIndex, BroadcastFromAnUnattachedSenderThrows) {
  net::Medium medium(net::LinkParams{}, 1);
  Radio a;
  medium.attach(&a.dev);
  const std::vector<uint8_t> pkt{1};
  EXPECT_THROW(medium.broadcast(1, pkt, 10'000), std::invalid_argument);
}

// Per-sender counts hold only for links that existed from the first
// broadcast on, so a topology comes before it.
TEST(MediumLinkIndex, TopologyAfterTheFirstBroadcastThrows) {
  net::Medium medium(net::LinkParams{}, 1);
  Radio a, b, c;
  for (Radio* r : {&a, &b, &c}) medium.attach(&r->dev);
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::Line;
  medium.set_topology(net::build_topology(spec, 3, 1));
  const std::vector<uint8_t> pkt{1};
  medium.broadcast(0, pkt, 10'000);
  EXPECT_THROW(medium.set_topology(net::build_topology(spec, 3, 1)),
               std::invalid_argument);
}

// --- PrngPercent: counter-only rolls ----------------------------------------

TEST(PrngPercent, MatchesBelowAndLeavesTheSameState) {
  chaos::Prng meta(0x9E7C);
  uint64_t certain = 0;
  for (int round = 0; round < 20'000; ++round) {
    const uint64_t seed = meta.next();
    uint32_t pct = 0;
    switch (round % 6) {
      case 0: pct = 0; break;
      case 1: pct = 100; break;
      case 2: pct = 101; break;
      case 3: pct = ~0u; break;
      case 4: pct = meta.below(100); break;
      default: pct = meta.below(1000); break;
    }
    certain += pct == 0 || pct >= 100;
    chaos::Prng fast(seed), ref(seed);
    for (int k = 0; k < 3; ++k)
      ASSERT_EQ(fast.percent(pct), ref.below(100) < pct)
          << "seed " << seed << " pct " << pct;
    ASSERT_EQ(fast.next(), ref.next()) << "seed " << seed << " pct " << pct;
  }
  EXPECT_GT(certain, 10'000u);
}

// --- DeframerSharedTag: only a whole-frame ParsedPacket is shared ------------

struct Drained {
  size_t frames = 0;
  size_t shared = 0;   // frames handed out from a packet, not decoded
  size_t tagged = 0;   // runs whose packet carried the whole-frame tag
  uint64_t crc_errors = 0;
  std::vector<Frame> got;
};

Drained drain(DeviceHub& dev, uint64_t t) {
  dev.sync(t);
  net::Deframer d;
  Drained out;
  dev.take_rx_runs([&](emu::RadioPacketRef&& p, size_t off, size_t len) {
    out.tagged += p->whole_frame_tag();
    d.push(std::move(p), off, len);
  });
  Frame scratch;
  emu::RadioPacketRef owner;
  while (const Frame* f = d.next(scratch, owner)) {
    ++out.frames;
    out.shared += owner != nullptr;
    out.got.push_back(*f);
    owner.reset();
  }
  out.crc_errors = d.crc_errors();
  return out;
}

TEST(DeframerSharedTag, PlainPacketsAreCopiedAndCrcChecked) {
  const auto good = frame_bytes(FrameType::Data, 7, {1, 2, 3, 4});
  auto bad_crc = good;
  bad_crc.back() ^= 0x40;

  // DeviceHub::schedule_rx(span): a plain RadioPacket, even of one whole
  // frame, is parsed byte by byte.
  Radio r1;
  r1.dev.schedule_rx(std::span<const uint8_t>(good), 1'000);
  r1.dev.schedule_rx(std::span<const uint8_t>(bad_crc), 1'000);
  const Drained plain = drain(r1.dev, 1'000'000);
  EXPECT_EQ(plain.tagged, 0u);
  EXPECT_EQ(plain.frames, 1u);
  EXPECT_EQ(plain.shared, 0u);
  EXPECT_EQ(plain.crc_errors, 1u);
  ASSERT_EQ(plain.got.size(), 1u);
  EXPECT_EQ(plain.got[0].seq, 7u);

  // A plain RadioPacket by reference: the same.
  Radio r2;
  r2.dev.schedule_rx(std::make_shared<const emu::RadioPacket>(
                         std::span<const uint8_t>(good)),
                     1'000);
  const Drained ref = drain(r2.dev, 1'000'000);
  EXPECT_EQ(ref.tagged, 0u);
  EXPECT_EQ(ref.frames, 1u);
  EXPECT_EQ(ref.shared, 0u);

  // The same bytes as a ParsedPacket take the shared path.
  Radio r3;
  r3.dev.schedule_rx(std::make_shared<const net::ParsedPacket>(good), 1'000);
  const Drained parsed = drain(r3.dev, 1'000'000);
  EXPECT_EQ(parsed.tagged, 1u);
  EXPECT_EQ(parsed.frames, 1u);
  EXPECT_EQ(parsed.shared, 1u);
}

TEST(DeframerSharedTag, MediumCorruptCopyIsNeverShared) {
  const auto good = frame_bytes(FrameType::Data, 3, {9, 9, 9, 9, 9, 9});
  for (uint64_t seed = 0; seed < 64; ++seed) {
    net::Medium medium(net::LinkParams{}, seed);
    Radio radios[3];
    for (Radio& r : radios) medium.attach(&r.dev);
    medium.set_fault_policy(
        [](size_t, size_t to, uint64_t, std::span<const uint8_t>) {
          return to == 1 ? FaultAction::Corrupt : FaultAction::None;
        });
    medium.broadcast(0, good, 10'000);
    medium.flush(1'000'000);
    const Drained corrupt = drain(radios[1].dev, 1'000'000);
    EXPECT_EQ(corrupt.tagged, 0u) << "seed " << seed;
    EXPECT_EQ(corrupt.shared, 0u) << "seed " << seed;
    const Drained clean = drain(radios[2].dev, 1'000'000);
    EXPECT_EQ(clean.tagged, 1u) << "seed " << seed;
    EXPECT_EQ(clean.shared, 1u) << "seed " << seed;
  }
}

TEST(DeframerSharedTag, HostileRawBytesAreParsedByteByByte) {
  // Raw transmissions that hold frames but are not exactly one: the
  // medium's ParsedPacket carries no tag, and the receiver decodes the
  // frames in them (CRC-checking each) as the byte-wise deframer would.
  const auto a = frame_bytes(FrameType::Nack, 2, {1, 5, 0});
  const auto b = frame_bytes(FrameType::Ack, 4, {});
  auto bad = a;
  bad[7] ^= 1;
  const std::vector<std::vector<uint8_t>> streams = {
      concat(a, b), concat({0x00, net::kFrameSync}, a), concat(a, {0x55}),
      concat(bad, b)};
  for (const auto& raw : streams) {
    net::Medium medium(net::LinkParams{}, 1);
    Radio tx, rx;
    medium.attach(&tx.dev);
    medium.attach(&rx.dev);
    medium.broadcast(0, raw, 10'000);
    medium.flush(1'000'000);
    const Drained got = drain(rx.dev, 10'000'000);
    EXPECT_EQ(got.tagged, 0u);
    EXPECT_EQ(got.shared, 0u);
    net::Deframer byte_wise;
    byte_wise.push(raw);
    std::vector<Frame> want;
    while (auto f = byte_wise.next()) want.push_back(*f);
    ASSERT_EQ(got.got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.got[i].type, want[i].type);
      EXPECT_EQ(got.got[i].seq, want[i].seq);
      EXPECT_EQ(got.got[i].payload, want[i].payload);
    }
    EXPECT_EQ(got.crc_errors, byte_wise.crc_errors());
  }
}

// --- NetDueSet: far deadlines ------------------------------------------------

TEST(NetDueSet, FarDeadlinesComeDueAfterRefill) {
  // Deadlines that stay put until taken, most of them beyond the calendar
  // window (16384 quanta): they wait on the far list and must come due in
  // exactly their quantum after the window reaches them.
  chaos::Prng r(0xFA2);
  constexpr size_t kIds = 64;
  constexpr uint64_t kQ = 7;
  net::DueSet<kQ> due;
  due.reset(kIds);
  std::vector<uint64_t> ref(kIds, 0);
  std::vector<uint32_t> got;
  uint64_t far = 0;
  for (uint64_t t = kQ; t < 120'000 * kQ; t += kQ) {
    std::vector<uint32_t> want;
    for (size_t id = 0; id < kIds; ++id)
      if (ref[id] <= t) want.push_back(static_cast<uint32_t>(id));
    got.clear();
    due.take_due(t, got);
    ASSERT_EQ(got, want) << "t " << t;
    for (const uint32_t id : got) {
      const uint64_t ahead = r.percent(70) ? 16'000 + r.below(40'000)
                                           : 1 + r.below(100);
      far += ahead >= 16'384;
      // On a quantum edge or between two.
      ref[id] = t + ahead * kQ - (r.percent(50) ? r.below(kQ) : 0);
      due.set(id, ref[id]);
    }
  }
  EXPECT_GT(far, 200u);
}

// --- RxNextDelivery: the whole-frame wake shortcut --------------------------

std::vector<uint8_t> random_frame(chaos::Prng& r) {
  Frame f;
  f.type = static_cast<FrameType>(r.range(1, 5));
  f.seq = static_cast<uint16_t>(r.below(0x10000));
  f.payload.resize(r.below(net::kMaxPayload + 1));
  for (uint8_t& b : f.payload) b = static_cast<uint8_t>(r.below(256));
  return net::encode_frame(f);
}

// With nothing unparsed in the deframer and no unread byte in the radio,
// the look-ahead over a next delivery that is one whole frame reaches that
// frame's last byte, so the engine may read the deadline off the packet.
TEST(RxNextDelivery, WholeFrameNextMatchesTheLookAhead) {
  uint64_t shortcuts = 0;
  for (uint64_t seed = 0; seed < 4000; ++seed) {
    chaos::Prng r(seed);
    Radio radio;
    DeviceHub& dev = radio.dev;
    uint64_t at = r.below(5'000);
    for (uint32_t i = 0, n = r.range(1, 10); i < n; ++i) {
      auto bytes = random_frame(r);
      if (r.percent(25)) bytes.resize(r.range(1, uint32_t(bytes.size())));
      if (r.percent(15)) bytes = concat(bytes, random_frame(r));
      if (r.percent(30))
        dev.schedule_rx(std::span<const uint8_t>(bytes), at);
      else
        dev.schedule_rx(std::make_shared<const net::ParsedPacket>(bytes), at);
      if (r.percent(50)) at += r.below(uint32_t(80 * kB));
    }
    net::Deframer d;
    Frame scratch;
    emu::RadioPacketRef owner;
    for (uint64_t t = 0; t < at + 200 * kB;) {
      t += r.below(uint32_t(70 * kB)) + 1;
      dev.sync(t);
      if (r.percent(70)) {
        dev.take_rx_runs([&d](emu::RadioPacketRef&& p, size_t off,
                              size_t len) { d.push(std::move(p), off, len); });
        while (d.next(scratch, owner)) owner.reset();
      }
      uint64_t begin = 0;
      const emu::RadioPacket* p = dev.rx_next_delivery(begin);
      if (!d.empty() || !p || !p->whole_frame_tag()) continue;
      const auto want = dev.rx_arrival(
          d.need([&dev](size_t i) { return dev.peek_unread(i); }));
      ASSERT_TRUE(want.has_value()) << "seed " << seed;
      ASSERT_EQ(*want, begin + p->bytes.size() * kB) << "seed " << seed;
      ++shortcuts;
    }
  }
  EXPECT_GT(shortcuts, 300u);
}

// --- RadioOnlySync: sync_radio on a device with no guest code ---------------

TEST(RadioOnlySync, MatchesFullSyncWithTimerStoppedAndAdcIdle) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    chaos::Prng r(seed);
    Radio full, radio_only;
    std::vector<std::pair<std::vector<uint8_t>, uint64_t>> sent[2];
    full.dev.set_tx_sink([&](std::span<const uint8_t> b, uint64_t done) {
      sent[0].emplace_back(std::vector<uint8_t>(b.begin(), b.end()), done);
    });
    radio_only.dev.set_tx_sink(
        [&](std::span<const uint8_t> b, uint64_t done) {
          sent[1].emplace_back(std::vector<uint8_t>(b.begin(), b.end()), done);
        });
    uint64_t t = 0;
    for (int step = 0; step < 60; ++step) {
      t += r.below(uint32_t(40 * kB)) + 1;
      if (r.percent(30)) {
        const auto p = std::make_shared<const net::ParsedPacket>(
            random_frame(r));
        const uint64_t at = t + r.below(uint32_t(20 * kB));
        EXPECT_EQ(full.dev.schedule_rx(p, at),
                  radio_only.dev.schedule_rx(p, at));
      }
      full.dev.sync(t);
      radio_only.dev.sync_radio(t);
      if (r.percent(20)) {
        const auto bytes = random_frame(r);
        full.dev.radio_send(bytes);
        radio_only.dev.radio_send(bytes);
      }
      ASSERT_EQ(full.dev.rx_buffered(), radio_only.dev.rx_buffered());
      ASSERT_EQ(full.dev.rx_delivered(), radio_only.dev.rx_delivered());
      ASSERT_EQ(full.dev.rx_overruns(), radio_only.dev.rx_overruns());
      ASSERT_EQ(full.dev.tx_done_at(), radio_only.dev.tx_done_at());
      ASSERT_EQ(full.dev.pending_irq(), radio_only.dev.pending_irq());
      if (r.percent(40)) {
        std::vector<uint8_t> a, b;
        full.dev.take_rx(a);
        radio_only.dev.take_rx(b);
        ASSERT_EQ(a, b) << "seed " << seed;
      }
    }
    EXPECT_EQ(sent[0], sent[1]) << "seed " << seed;
  }
}

// The engine syncs its nodes radio-only: none runs guest code, so Timer0
// stays stopped on every machine through a run.
TEST(RadioOnlySync, FleetMachinesKeepTimer0Stopped) {
  std::vector<uint8_t> blob(300);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = uint8_t(i * 7);
  net::NetConfig cfg;
  cfg.nodes = 4;
  cfg.link.drop_pct = 10;
  net::NetSim sim(cfg, blob);
  ASSERT_TRUE(sim.disseminate().all_acked);
  for (size_t id = 0; id <= cfg.nodes; ++id)
    EXPECT_EQ(sim.node_machine(id).mem().raw(emu::kTccr0) & 0x07, 0)
        << "node " << id;
}

}  // namespace
}  // namespace sensmart
