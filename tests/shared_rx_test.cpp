// Shared-packet receive path (DESIGN.md §7, §9): one immutable buffer per
// broadcast, per-link fates that never leak into another receiver's
// bytes, the parse-once verdict cache measured against the byte-wise
// Deframer, the engine's due set against a full scan, and the wake
// deadline at the deframer's next decision byte (the look-ahead over the
// radio's unread bytes, the wake counts it gives, and the receive buffer
// it must never overrun).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "apps/treesearch.hpp"
#include "chaos/chaos.hpp"
#include "chaos/prng.hpp"
#include "emu/machine.hpp"
#include "host/parallel.hpp"
#include "net/due_set.hpp"
#include "net/frame.hpp"
#include "net/image_codec.hpp"
#include "net/medium.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

namespace sensmart {
namespace {

using emu::DeviceHub;
using net::FaultAction;
using net::Frame;
using net::FrameType;

constexpr uint64_t kB = DeviceHub::kCyclesPerRadioByte;

std::vector<uint8_t> frame_bytes(FrameType type, uint16_t seq,
                                 std::vector<uint8_t> payload) {
  return net::encode_frame(Frame{type, 1, seq, std::move(payload)});
}

std::vector<uint8_t> take(DeviceHub& dev) {
  std::vector<uint8_t> got;
  dev.take_rx(got);
  return got;
}

std::vector<uint8_t> concat(std::vector<uint8_t> a,
                            const std::vector<uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

size_t bit_distance(const std::vector<uint8_t>& a,
                    const std::vector<uint8_t>& b) {
  size_t d = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    d += static_cast<size_t>(std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
  return d;
}

// Four radios on one star medium; node 0 broadcasts.
struct Star4 {
  emu::Machine m[4];
  net::Medium medium{net::LinkParams{}, 7};
  Star4() {
    for (auto& x : m) medium.attach(&x.dev());
  }
  void settle(uint64_t t) {
    medium.flush(t);
    for (auto& x : m) x.dev().sync(t);
  }
};

// --- MediumShared: per-link fates on a shared buffer -------------------------

TEST(MediumShared, FaultOnOneLinkNeverChangesAnotherReceiversBytes) {
  const auto pkt = frame_bytes(FrameType::Data, 9, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto original = pkt;
  for (const FaultAction fate :
       {FaultAction::Corrupt, FaultAction::Duplicate, FaultAction::Reorder}) {
    Star4 s;
    s.medium.set_fault_policy(
        [fate](size_t, size_t to, uint64_t, std::span<const uint8_t>) {
          return to == 2 ? fate : FaultAction::None;
        });
    s.medium.broadcast(0, pkt, 10'000);
    s.settle(10'000'000);
    // Receivers on both sides of the faulted link read the packet exactly.
    for (const size_t other : {1, 3}) {
      EXPECT_EQ(take(s.m[other].dev()), original)
          << "fate " << int(fate) << " leaked into receiver " << other;
    }
    const auto got = take(s.m[2].dev());
    switch (fate) {
      case FaultAction::Corrupt:
        ASSERT_EQ(got.size(), original.size());
        EXPECT_GE(bit_distance(got, original), 1u);
        EXPECT_LE(bit_distance(got, original), 3u);
        break;
      case FaultAction::Duplicate:
        EXPECT_EQ(got, concat(original, original));
        break;
      default:
        EXPECT_EQ(got, original);
        break;
    }
    EXPECT_EQ(pkt, original);  // the sender's bytes are never touched
  }
}

TEST(MediumShared, CorruptCopyIsPrivateAndFailsItsCrcAlone) {
  Star4 s;
  s.medium.set_fault_policy(
      [](size_t, size_t to, uint64_t, std::span<const uint8_t>) {
        return to == 1 ? FaultAction::Corrupt : FaultAction::None;
      });
  const auto pkt =
      frame_bytes(FrameType::Summary, 0, std::vector<uint8_t>(11, 4));
  s.medium.broadcast(0, pkt, 5'000);
  s.settle(10'000'000);
  size_t frames[4] = {};
  uint64_t crc_errors[4] = {};
  for (size_t to = 1; to < 4; ++to) {
    net::Deframer d;
    s.m[to].dev().take_rx_runs(
        [&d](emu::RadioPacketRef&& p, size_t off, size_t len) {
          d.push(std::move(p), off, len);
        });
    Frame scratch;
    emu::RadioPacketRef owner;
    while (d.next(scratch, owner)) ++frames[to];
    crc_errors[to] = d.crc_errors() + d.skipped_bytes();
  }
  EXPECT_EQ(frames[1], 0u);
  EXPECT_GT(crc_errors[1], 0u);
  for (const size_t to : {2, 3}) {
    EXPECT_EQ(frames[to], 1u);
    EXPECT_EQ(crc_errors[to], 0u);
  }
}

TEST(MediumShared, DuplicateCopiesReadIdentically) {
  Star4 s;
  s.medium.set_fault_policy(
      [](size_t, size_t to, uint64_t, std::span<const uint8_t>) {
        return to == 3 ? FaultAction::Duplicate : FaultAction::None;
      });
  const auto pkt = frame_bytes(FrameType::Data, 2, {7, 7, 7});
  s.medium.broadcast(0, pkt, 5'000);
  s.settle(10'000'000);
  net::Deframer d;
  s.m[3].dev().take_rx_runs(
      [&d](emu::RadioPacketRef&& p, size_t off, size_t len) {
        d.push(std::move(p), off, len);
      });
  std::vector<Frame> got;
  Frame scratch;
  emu::RadioPacketRef owner;
  while (const Frame* f = d.next(scratch, owner)) got.push_back(*f);
  ASSERT_EQ(got.size(), 2u);
  for (const Frame& f : got) {
    EXPECT_EQ(f.seq, 2u);
    EXPECT_EQ(f.payload, (std::vector<uint8_t>{7, 7, 7}));
  }
  EXPECT_EQ(d.crc_errors(), 0u);
  EXPECT_EQ(d.skipped_bytes(), 0u);
}

TEST(MediumShared, FlushOrRebootOfOneReceiverKeepsOthersQueuedBytes) {
  Star4 s;
  const auto p1 = frame_bytes(FrameType::Data, 1, std::vector<uint8_t>(20, 1));
  // 28 + 24 bytes: both fit the receive buffer without a drain between.
  const auto p2 = frame_bytes(FrameType::Data, 2, std::vector<uint8_t>(16, 2));
  s.medium.broadcast(0, p1, 5'000);
  s.medium.broadcast(0, p2, 6'000);  // queues behind p1 at every radio
  // Mid-p1 everywhere: a few bytes buffered, the rest in flight.
  s.settle(5'000 + 6 * kB);
  ASSERT_GT(s.m[3].dev().rx_buffered(), 0u);
  uint8_t first = 0;
  s.m[3].dev().io_access(emu::kRadioRxData, first, false);  // guest read
  EXPECT_EQ(first, p1[0]);
  s.m[1].dev().flush_rx();
  s.m[2].dev().reboot();
  s.settle(10'000'000);
  EXPECT_TRUE(take(s.m[1].dev()).empty());
  EXPECT_TRUE(take(s.m[2].dev()).empty());
  const auto rest = take(s.m[3].dev());
  EXPECT_EQ(concat({first}, rest), concat(p1, p2));
  EXPECT_EQ(s.m[3].dev().rx_overruns(), 0u);
}

// --- DeframerVerdict: parse-once cache vs the byte-wise Deframer -------------

TEST(DeframerVerdict, WholeFrameOnlyForExactlyOneValidFrame) {
  const auto good = frame_bytes(FrameType::Nack, 3, {1, 4, 0});
  EXPECT_TRUE(net::ParsedPacket(good).whole_frame);
  EXPECT_EQ(net::ParsedPacket(good).frame.seq, 3u);
  EXPECT_TRUE(
      net::ParsedPacket(frame_bytes(FrameType::Ack, 1, {})).whole_frame);

  auto trailing = good;
  trailing.push_back(0);
  auto truncated = good;
  truncated.pop_back();
  auto bad_crc = good;
  bad_crc.back() ^= 1;
  auto unknown = net::encode_frame(Frame{FrameType::Data, 1, 3, {5}});
  unknown[1] = 9;  // CRC-valid once recomputed, but no such type
  const uint16_t crc = net::crc16_ccitt({unknown.data() + 1, 6});
  unknown[7] = static_cast<uint8_t>(crc & 0xFF);
  unknown[8] = static_cast<uint8_t>(crc >> 8);
  const auto two = concat(good, good);
  const auto garbage_first = concat({0x00, 0x11}, good);
  for (const auto& bad :
       {trailing, truncated, bad_crc, unknown, two, garbage_first})
    EXPECT_FALSE(net::ParsedPacket(bad).whole_frame);
}

std::vector<uint8_t> honest_frame(chaos::Prng& r) {
  Frame f;
  f.type = static_cast<FrameType>(r.range(1, 5));
  f.version = static_cast<uint8_t>(r.below(4));
  f.seq = static_cast<uint16_t>(r.below(0x10000));
  f.payload.resize(r.below(net::kMaxPayload + 1));
  for (uint8_t& b : f.payload) b = static_cast<uint8_t>(r.below(256));
  return net::encode_frame(f);
}

std::vector<uint8_t> garbage(chaos::Prng& r, size_t n) {
  std::vector<uint8_t> g(n);
  for (uint8_t& b : g)
    b = r.percent(10) ? net::kFrameSync : static_cast<uint8_t>(r.below(256));
  return g;
}

// One packet of a hostile stream: every way a packet can fail to be one
// clean frame, plus clean frames in between.
std::vector<uint8_t> hostile_packet(chaos::Prng& r) {
  auto f = honest_frame(r);
  switch (r.below(8)) {
    case 0:
      return f;
    case 1:  // garbage before the sync byte
      return concat(garbage(r, r.range(1, 20)), f);
    case 2:  // truncated
      f.resize(r.range(1, static_cast<uint32_t>(f.size() - 1)));
      return f;
    case 3:  // length lie
      f[5] = static_cast<uint8_t>(r.below(256));
      return f;
    case 4: {  // bad CRC (or any other flipped bit)
      const uint32_t bit = r.below(static_cast<uint32_t>(f.size() * 8));
      f[bit >> 3] ^= static_cast<uint8_t>(1u << (bit & 7));
      return f;
    }
    case 5: {  // unknown type with a valid CRC
      f[1] = r.percent(50) ? 0 : static_cast<uint8_t>(r.range(6, 255));
      const uint16_t crc = net::crc16_ccitt({f.data() + 1, f.size() - 3});
      f[f.size() - 2] = static_cast<uint8_t>(crc & 0xFF);
      f[f.size() - 1] = static_cast<uint8_t>(crc >> 8);
      return f;
    }
    case 6:  // two frames in one packet
      return concat(f, honest_frame(r));
    default:
      return garbage(r, r.range(1, 96));
  }
}

using FrameKey = std::tuple<uint8_t, uint8_t, uint16_t, std::vector<uint8_t>>;
FrameKey key(const Frame& f) {
  return {uint8_t(f.type), f.version, f.seq, f.payload};
}

struct VerdictRun {
  uint64_t shared_frames = 0;  // frames the fast path handed out
  uint64_t overruns = 0;
  uint64_t crc_errors = 0;
};

// The engine's path (shared ParsedPackets, take_rx_runs, the packet push,
// next(scratch, owner)) and the byte-wise reference (private byte copies,
// take_rx, push(span), next(Frame&)) receive the same packets at the same
// times and are drained at the same random points.
VerdictRun run_verdict_case(uint64_t seed, bool hostile, bool overrun) {
  chaos::Prng r(seed);
  emu::Machine fast_m, ref_m;
  DeviceHub& fast = fast_m.dev();
  DeviceHub& ref = ref_m.dev();
  uint64_t at = r.below(5000);
  uint64_t end = at;
  const uint32_t packets = r.range(1, 12);
  std::shared_ptr<const net::ParsedPacket> last;
  for (uint32_t i = 0; i < packets; ++i) {
    std::shared_ptr<const net::ParsedPacket> p;
    if (last && r.percent(15)) {
      p = last;  // the same shared packet delivered again (a duplicate)
    } else {
      p = std::make_shared<const net::ParsedPacket>(
          hostile ? hostile_packet(r) : honest_frame(r));
    }
    last = p;
    const uint64_t begin = fast.schedule_rx(p, at);
    EXPECT_EQ(ref.schedule_rx(std::span<const uint8_t>(p->bytes), at), begin);
    end = begin + p->bytes.size() * kB;
    if (r.percent(50)) at += r.below(static_cast<uint32_t>(120 * kB));
  }

  net::Deframer fast_d, ref_d;
  std::vector<FrameKey> fast_frames, ref_frames;
  VerdictRun out;
  Frame scratch, ref_frame;
  std::vector<uint8_t> bytes;
  for (uint64_t t = 0; t < end + 2 * kB;) {
    t += r.below(static_cast<uint32_t>((overrun ? 150 : 56) * kB)) + 1;
    fast.sync(t);
    ref.sync(t);
    fast.take_rx_runs([&fast_d](emu::RadioPacketRef&& p, size_t off,
                                size_t len) {
      fast_d.push(std::move(p), off, len);
    });
    emu::RadioPacketRef owner;
    while (const Frame* f = fast_d.next(scratch, owner)) {
      fast_frames.push_back(key(*f));
      if (owner) ++out.shared_frames;
      owner.reset();
    }
    bytes.clear();
    ref.take_rx(bytes);
    ref_d.push(bytes);
    while (ref_d.next(ref_frame)) ref_frames.push_back(key(ref_frame));

    EXPECT_EQ(fast_frames, ref_frames) << "seed " << seed << " t " << t;
    EXPECT_EQ(fast_d.crc_errors(), ref_d.crc_errors()) << "seed " << seed;
    EXPECT_EQ(fast_d.skipped_bytes(), ref_d.skipped_bytes()) << "seed " << seed;
    EXPECT_EQ(fast_d.need(), ref_d.need()) << "seed " << seed << " t " << t;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(fast.rx_delivered(), ref.rx_delivered()) << "seed " << seed;
  EXPECT_EQ(fast.rx_overruns(), ref.rx_overruns()) << "seed " << seed;
  if (!overrun) {
    EXPECT_EQ(fast.rx_overruns(), 0u) << "seed " << seed;
  }
  out.overruns = fast.rx_overruns();
  out.crc_errors = fast_d.crc_errors();
  return out;
}

TEST(DeframerVerdict, FastPathMatchesByteWiseOnHonestAndHostileStreams) {
  VerdictRun total[2][2];  // [hostile][overrun]
  for (uint64_t seed = 0; seed < 300; ++seed)
    for (const bool hostile : {false, true})
      for (const bool overrun : {false, true}) {
        const VerdictRun v = run_verdict_case(seed * 4 + hostile * 2 + overrun,
                                              hostile, overrun);
        VerdictRun& t = total[hostile][overrun];
        t.shared_frames += v.shared_frames;
        t.overruns += v.overruns;
        t.crc_errors += v.crc_errors;
        if (HasFailure()) return;
      }
  // Each regime really exercises what it claims to: honest streams take the
  // fast path, hostile ones hit CRC errors, and the slow drains overrun.
  EXPECT_GT(total[0][0].shared_frames, 1000u);
  EXPECT_GT(total[1][0].shared_frames, 0u);
  EXPECT_GT(total[1][0].crc_errors, 0u);
  EXPECT_GT(total[0][1].overruns, 0u);
  EXPECT_GT(total[1][1].overruns, 0u);
}

// --- NetDueSet: the engine visits only due receivers ------------------------

TEST(NetDueSet, TakesExactlyTheDueIdsInIdOrder) {
  chaos::Prng r(0xD0E);
  constexpr size_t kIds = 40;
  constexpr uint64_t kQ = 3;  // cycles per quantum
  net::DueSet due;
  due.reset(kIds, kQ);
  std::vector<uint64_t> ref(kIds, 0);
  std::vector<uint32_t> got;
  for (uint64_t t = kQ; t < 60'000 * kQ; t += kQ) {
    // Move a few deadlines, as a flush re-arms receivers: some overdue,
    // most near, some past the calendar window, some never.
    for (int k = 0; k < 3; ++k) {
      const size_t id = r.below(kIds);
      const uint32_t pick = r.below(100);
      const uint64_t w = pick < 5    ? t - r.below(static_cast<uint32_t>(t))
                         : pick < 80 ? t + r.below(40)
                         : pick < 95 ? t + r.below(60'000) * kQ
                                     : net::DueSet::kNever;
      ref[id] = w;
      due.set(id, w);
    }
    std::vector<uint32_t> want;
    for (size_t id = 0; id < kIds; ++id)
      if (ref[id] <= t) want.push_back(static_cast<uint32_t>(id));
    got.clear();
    due.take_due(t, got);
    ASSERT_EQ(got, want) << "t " << t;
    for (const uint32_t id : got) {
      ref[id] = r.percent(3) ? net::DueSet::kNever : t + 1 + r.below(50);
      due.set(id, ref[id]);
    }
  }
}

std::vector<uint8_t> fleet_blob() {
  rw::Linker linker(rw::RewriteOptions{}, true);
  for (const auto& img : apps::fig7_mix(8, 2)) linker.add(img);
  return net::serialize_system(linker.link());
}

TEST(NetDueSet, StarExaminesOneWakeEntryPerReceiverStep) {
  net::NetConfig cfg;
  cfg.nodes = 24;
  cfg.link.drop_pct = 10;
  cfg.chaos_seed = 0xF1EE7;
  cfg.max_cycles = 64'000'000'000ULL;
  net::NetSim sim(cfg, fleet_blob());
  const auto r = sim.disseminate();
  const uint64_t quanta = r.cycles / kB;
  // A scan of every deadline in every quantum with a due receiver would
  // examine up to nodes x quanta entries; the due set examines only the
  // entries it steps.
  EXPECT_EQ(sim.wake_entries_examined(), r.receiver_steps);
  EXPECT_GT(r.receiver_steps, 0u);
  EXPECT_LT(r.receiver_steps, quanta * cfg.nodes / 10);
}

// --- DeframerNeedAhead: the look-ahead wake deadline ------------------------

// The reference: need() chained over `future` by pushing exactly the bytes
// it asks for, on a copy. The byte count at which it first reaches 0, or
// need() itself when `future` runs out first.
size_t chained_need(net::Deframer d, std::span<const uint8_t> future) {
  const size_t first = d.need();
  size_t pushed = 0;
  for (size_t k = first; k != 0; k = d.need()) {
    if (future.size() - pushed < k) return first;
    d.push(future.subspan(pushed, k));
    pushed += k;
  }
  return pushed;
}

size_t need_ahead(const net::Deframer& d, std::span<const uint8_t> future) {
  return d.need([future](size_t i) -> std::optional<uint8_t> {
    if (i < future.size()) return future[i];
    return std::nullopt;
  });
}

struct AheadTally {
  uint64_t checks = 0;
  uint64_t past_header = 0;  // answered beyond need(): the candidate's end
  uint64_t ran_out = 0;      // chained need() would pass the known bytes
};

// Compare the look-ahead with the chained reference over all the bytes
// still to come and over two random prefixes of them (the bytes scheduled
// so far).
void check_ahead(const net::Deframer& d, std::span<const uint8_t> rest,
                 chaos::Prng& r, AheadTally& t, const char* what,
                 uint64_t seed) {
  for (int k = 0; k < 3; ++k) {
    const size_t known =
        k == 0 ? rest.size() : r.below(static_cast<uint32_t>(rest.size() + 1));
    const auto future = rest.first(known);
    const size_t want = chained_need(d, future);
    ASSERT_EQ(need_ahead(d, future), want)
        << what << " seed " << seed << " known " << known;
    ++t.checks;
    if (want > d.need()) ++t.past_header;
    if (d.need() != 0 && want == d.need() &&
        chained_need(d, rest) != want)
      ++t.ran_out;
  }
}

TEST(DeframerNeedAhead, MatchesChainedNeedOnHonestAndHostileStreams) {
  AheadTally tally[2];  // [hostile]
  for (uint64_t seed = 0; seed < 1200; ++seed) {
    const bool hostile = seed % 2 == 1;
    chaos::Prng r(0xA4EAD + seed);
    std::vector<uint8_t> stream;
    for (uint32_t i = r.range(1, 8); i > 0; --i)
      stream = concat(std::move(stream),
                      hostile ? hostile_packet(r) : honest_frame(r));
    // Push the stream in random slices. After each, check the state as
    // pushed (next() may have work) and again once drained, as the engine
    // leaves it after a step.
    net::Deframer d;
    Frame f;
    for (size_t pos = 0; pos < stream.size();) {
      const size_t n = std::min<size_t>(stream.size() - pos, r.range(1, 60));
      d.push(std::span<const uint8_t>(stream).subspan(pos, n));
      pos += n;
      const auto rest = std::span<const uint8_t>(stream).subspan(pos);
      check_ahead(d, rest, r, tally[hostile], "pushed", seed);
      while (d.next(f)) {
      }
      check_ahead(d, rest, r, tally[hostile], "drained", seed);
      if (HasFatalFailure()) return;
    }
  }
  for (const AheadTally& t : tally) {
    EXPECT_GT(t.checks, 10'000u);
    EXPECT_GT(t.past_header, 1'000u);
    EXPECT_GT(t.ran_out, 100u);
  }
}

// A shared packet's partial prefix (the engine's fast path) looks ahead
// exactly as the same bytes copied into the buffer do.
TEST(DeframerNeedAhead, SharedPrefixLooksAheadLikeTheBuffer) {
  chaos::Prng r(0x5AED);
  uint64_t shared = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const auto p = std::make_shared<const net::ParsedPacket>(
        seed % 4 == 3 ? hostile_packet(r) : honest_frame(r));
    const auto next = honest_frame(r);
    const std::vector<uint8_t> stream = concat(p->bytes, next);
    for (size_t have = 1; have < p->bytes.size(); ++have) {
      net::Deframer fast, ref;
      fast.push(p, 0, have);
      ref.push(std::span<const uint8_t>(p->bytes).first(have));
      Frame f;
      while (fast.next(f)) {
      }
      while (ref.next(f)) {
      }
      const auto rest = std::span<const uint8_t>(stream).subspan(have);
      for (size_t known = 0; known <= rest.size(); ++known) {
        const auto future = rest.first(known);
        ASSERT_EQ(need_ahead(fast, future), need_ahead(ref, future))
            << "seed " << seed << " have " << have << " known " << known;
        ASSERT_EQ(need_ahead(fast, future), chained_need(fast, future));
      }
    }
    shared += p->whole_frame;
  }
  EXPECT_GT(shared, 200u);
}

// Hand-picked states: what the wake schedule waits for.
TEST(DeframerNeedAhead, WaitsForTheCandidatesLastByteOnlyWhenItsLengthIsKnown) {
  const auto frame = frame_bytes(FrameType::Data, 7, std::vector<uint8_t>(30, 1));
  const auto all = std::span<const uint8_t>(frame);
  net::Deframer d;
  // Nothing pushed: the whole frame is due once its length byte is known.
  EXPECT_EQ(need_ahead(d, all), frame.size());
  EXPECT_EQ(need_ahead(d, all.first(6)), net::kFrameOverhead);  // tail unknown
  EXPECT_EQ(need_ahead(d, all.first(5)), net::kFrameOverhead);  // length unknown
  EXPECT_EQ(need_ahead(d, {}), net::kFrameOverhead);
  // Three bytes in: the rest of the frame.
  d.push(all.first(3));
  EXPECT_EQ(need_ahead(d, all.subspan(3)), frame.size() - 3);
  EXPECT_EQ(need_ahead(d, all.subspan(3, 2)), net::kFrameOverhead - 3);
  // A length lie (past kMaxPayload) is rejected at the header.
  auto lie = frame;
  lie[5] = net::kMaxPayload + 1;
  EXPECT_EQ(need_ahead(net::Deframer{}, lie), net::kFrameOverhead);
  // Garbage first: next() skips it at the header's end.
  EXPECT_EQ(need_ahead(net::Deframer{}, concat({0x00}, frame)),
            net::kFrameOverhead);
  // Bytes next() can act on now: nothing to wait for.
  d.push(all.subspan(3));
  EXPECT_EQ(need_ahead(d, all), 0u);
}

// --- RxPeek: the radio's unread bytes, in order -----------------------------

std::vector<uint8_t> peek_all(const DeviceHub& dev) {
  std::vector<uint8_t> out;
  for (size_t i = 0;; ++i) {
    const std::optional<uint8_t> b = dev.peek_unread(i);
    if (!b) return out;
    out.push_back(*b);
  }
}

std::vector<uint8_t> seq(size_t n, uint8_t first) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(first + i);
  return v;
}

TEST(RxPeek, ReadsRunsThenThePartlyArrivedFrontThenLaterPackets) {
  emu::Machine m;
  DeviceHub& dev = m.dev();
  EXPECT_EQ(dev.peek_unread(0), std::nullopt);
  const auto a = seq(5, 10), b = seq(6, 40), c = seq(4, 90);
  dev.schedule_rx(a, 0);
  dev.schedule_rx(b, 0);  // queues behind a: 6..11 byte times
  dev.schedule_rx(c, 30 * kB);
  // Nothing arrived yet: every byte is in flight.
  EXPECT_EQ(peek_all(dev), concat(concat(a, b), c));
  // All of a and two bytes of b buffered, as two runs; the rest of b (its
  // cursor at 2) and c in flight.
  dev.sync(7 * kB);
  ASSERT_EQ(dev.rx_buffered(), 7u);
  EXPECT_EQ(peek_all(dev), concat(concat(a, b), c));
  EXPECT_EQ(dev.peek_unread(4), std::optional<uint8_t>(14));
  EXPECT_EQ(dev.peek_unread(5), std::optional<uint8_t>(40));
  EXPECT_EQ(dev.peek_unread(7), std::optional<uint8_t>(42));
  EXPECT_EQ(dev.peek_unread(11), std::optional<uint8_t>(90));
  EXPECT_EQ(dev.peek_unread(14), std::optional<uint8_t>(93));
  EXPECT_EQ(dev.peek_unread(15), std::nullopt);
  EXPECT_EQ(dev.peek_unread(1000), std::nullopt);
  // Reading through the port pops from the head run.
  for (int i = 0; i < 3; ++i) {
    uint8_t v = 0;
    dev.io_access(emu::kRadioRxData, v, false);
  }
  EXPECT_EQ(dev.peek_unread(0), std::optional<uint8_t>(13));
  EXPECT_EQ(peek_all(dev),
            concat(concat({13, 14}, b), c));
  // Draining leaves only what is in flight.
  take(dev);
  EXPECT_EQ(peek_all(dev), concat(std::vector<uint8_t>(b.begin() + 2, b.end()), c));
  dev.sync(40 * kB);
  take(dev);
  EXPECT_EQ(dev.peek_unread(0), std::nullopt);
}

// The bytes peeked at any moment are the bytes later reads return, in
// order, and byte i is peekable exactly when rx_arrival(i + 1) is known.
TEST(RxPeek, PeekedBytesAreWhatLaterReadsReturn) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    chaos::Prng r(0x9EE4 + seed);
    emu::Machine m;
    DeviceHub& dev = m.dev();
    uint64_t at = 0;
    for (uint32_t i = r.range(1, 6); i > 0; --i) {
      dev.schedule_rx(seq(r.range(1, 20), static_cast<uint8_t>(r.below(256))),
                      at);
      at += r.below(static_cast<uint32_t>(30 * kB));
    }
    std::vector<uint8_t> got;
    uint64_t t = 0;
    for (int step = 0; step < 6; ++step) {
      t += r.below(static_cast<uint32_t>(25 * kB));
      dev.sync(t);
      const std::vector<uint8_t> ahead = peek_all(dev);
      for (size_t i = 0; i <= ahead.size() + 1; ++i)
        EXPECT_EQ(dev.peek_unread(i).has_value(),
                  dev.rx_arrival(i + 1).has_value())
            << "seed " << seed << " i " << i;
      const size_t before = got.size();
      if (r.percent(50)) {
        dev.take_rx(got);
      } else {
        for (size_t k = r.below(static_cast<uint32_t>(dev.rx_buffered() + 1));
             k > 0; --k) {
          uint8_t v = 0;
          dev.io_access(emu::kRadioRxData, v, false);
          got.push_back(v);
        }
      }
      // What was read is the peeked prefix; what is left peeks as its rest.
      const std::vector<uint8_t> read(got.begin() + static_cast<ptrdiff_t>(before),
                                      got.end());
      ASSERT_LE(read.size(), ahead.size()) << "seed " << seed;
      EXPECT_TRUE(std::equal(read.begin(), read.end(), ahead.begin()))
          << "seed " << seed;
      EXPECT_EQ(peek_all(dev),
                std::vector<uint8_t>(ahead.begin() + static_cast<ptrdiff_t>(read.size()),
                                     ahead.end()))
          << "seed " << seed;
    }
    ASSERT_EQ(dev.rx_overruns(), 0u);
  }
}

// --- Wake counts of the pinned fleet cells -----------------------------------

// The fleet cells of NetDeterminism.GoldenTraceDigests: the two-search-task
// fig7 image at seed 0xF1EE7, a base that never gives up.
net::NetConfig fleet_cell(net::TopologyKind kind, size_t nodes,
                          uint32_t drop_pct) {
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = drop_pct;
  cfg.topo.kind = kind;
  cfg.chaos_seed = 0xF1EE7;
  cfg.proto.node_give_up_probes = 0;
  cfg.max_cycles = 64'000'000'000ULL;
  return cfg;
}

struct FleetCell {
  const char* name;
  net::NetConfig cfg;
};

std::vector<FleetCell> fleet_cells() {
  using net::TopologyKind;
  return {{"star 4 @ 0%", fleet_cell(TopologyKind::Star, 4, 0)},
          {"star 4 @ 10%", fleet_cell(TopologyKind::Star, 4, 10)},
          {"star 16 @ 0%", fleet_cell(TopologyKind::Star, 16, 0)},
          {"star 16 @ 10%", fleet_cell(TopologyKind::Star, 16, 10)},
          {"grid 16 @ 10%", fleet_cell(TopologyKind::Grid, 16, 10)}};
}

// Receivers wake at frame decisions (a delivery or a rejection), not at
// frame headers: exact step counts, deterministic like the digests those
// cells pin. Waking at every header, the same cells took 1060, 1470, 4432,
// 38691 and 30056 steps.
TEST(NetDeterminism, FleetCellsWakeAtFrameDecisions) {
  const uint64_t want[] = {540, 764, 2352, 19935, 20137};
  const auto blob = fleet_blob();
  const std::vector<FleetCell> cells = fleet_cells();
  ASSERT_EQ(cells.size(), std::size(want));
  for (size_t i = 0; i < cells.size(); ++i) {
    net::NetSim sim(cells[i].cfg, blob);
    const auto r = sim.disseminate();
    ASSERT_TRUE(r.all_acked) << cells[i].name;
    EXPECT_EQ(r.receiver_steps, want[i]) << cells[i].name;
    EXPECT_EQ(sim.wake_entries_examined(), want[i]) << cells[i].name;
  }
}

// The wake rule's safety argument (DESIGN.md §9): between two wakes at
// most one frame candidate reaches an honest receiver's radio, less than
// its buffer holds, so no honest receiver that is up ever loses a byte to
// an overrun — over the pinned fleet cells and seeded net-chaos runs with
// crashes, mesh relays, hostile neighbors and rollouts. (A node that is
// down is never stepped; what lands in its radio meanwhile is counted as
// overruns at power-up and then flushed, so those are not wake faults.)
TEST(NetDeterminism, HonestReceiversNeverOverrun) {
  const auto blob = fleet_blob();
  for (const FleetCell& c : fleet_cells()) {
    net::NetSim sim(c.cfg, blob);
    const auto r = sim.disseminate();
    ASSERT_TRUE(r.all_acked) << c.name;
    for (size_t id = 1; id <= c.cfg.nodes; ++id)
      EXPECT_EQ(r.nodes[id - 1].rx_overruns, 0u) << c.name << " node " << id;
  }
  constexpr size_t kSeeds = 40;
  const auto runs = host::sweep_collect<chaos::NetChaosResult>(
      kSeeds, host::effective_jobs(4, kSeeds), [](std::size_t i) {
        chaos::NetChaosOptions o;
        o.seed = i + 1;
        return chaos::run_net_chaos(o);
      });
  size_t hostile = 0, rollouts = 0;
  for (const chaos::NetChaosResult& r : runs) {
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.honest_rx_overruns, 0u) << "net-chaos seed " << r.seed;
    hostile += r.hostile;
    rollouts += r.rollout;
  }
  EXPECT_GT(hostile, 0u);
  EXPECT_GT(rollouts, 0u);
}

}  // namespace
}  // namespace sensmart
