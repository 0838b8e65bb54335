// Conformance suite for the multi-node radio network and the over-the-air
// dissemination protocol (DESIGN.md §7): frame/image codec round-trips, the
// 4-node lossy-dissemination acceptance scenario (byte-identical installs),
// golden trace digests, serial-vs-parallel replay equality, a 32-seed
// randomized-program property test, and adversarial schedules that must end
// in a verified install or a clean abort — never a partial activation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "apps/treesearch.hpp"
#include "chaos/prng.hpp"
#include "host/parallel.hpp"
#include "net/frame.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "sim/harness.hpp"
#include "testlib/random_program.hpp"

namespace sensmart {
namespace {

using assembler::Image;

std::vector<uint8_t> linked_blob(const std::vector<Image>& images) {
  rw::Linker linker(rw::RewriteOptions{}, true);
  for (const auto& img : images) linker.add(img);
  return net::serialize_system(linker.link());
}

// --- Frame codec ------------------------------------------------------------

TEST(NetFrame, EncodeDecodeRoundTrip) {
  net::Frame f;
  f.type = net::FrameType::Data;
  f.version = 7;
  f.seq = 0xBEEF;
  for (int i = 0; i < 33; ++i) f.payload.push_back(uint8_t(i * 3));

  net::Deframer d;
  for (uint8_t b : net::encode_frame(f)) d.push(b);
  const auto got = d.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, f.type);
  EXPECT_EQ(got->version, f.version);
  EXPECT_EQ(got->seq, f.seq);
  EXPECT_EQ(got->payload, f.payload);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_EQ(d.crc_errors(), 0u);
}

TEST(NetFrame, BackToBackFramesAndGarbagePrefix) {
  net::Deframer d;
  // Leading garbage, then three frames in a row.
  for (uint8_t b : {0x00, 0x13, 0xFF}) d.push(b);
  for (uint16_t seq = 0; seq < 3; ++seq) {
    net::Frame f{net::FrameType::Data, 1, seq, {uint8_t(seq), 0xAA}};
    for (uint8_t b : net::encode_frame(f)) d.push(b);
  }
  for (uint16_t seq = 0; seq < 3; ++seq) {
    const auto got = d.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->seq, seq);
  }
  EXPECT_FALSE(d.next().has_value());
  EXPECT_GE(d.skipped_bytes(), 3u);
}

TEST(NetFrame, CorruptionDetectedAndResynced) {
  net::Frame a{net::FrameType::Data, 1, 10, {1, 2, 3, 4}};
  net::Frame b{net::FrameType::Data, 1, 11, {5, 6, 7, 8}};
  auto wa = net::encode_frame(a);
  wa[7] ^= 0x40;  // flip a payload bit: CRC must catch it

  net::Deframer d;
  for (uint8_t byte : wa) d.push(byte);
  for (uint8_t byte : net::encode_frame(b)) d.push(byte);
  const auto got = d.next();
  ASSERT_TRUE(got.has_value());  // resynced onto the second frame
  EXPECT_EQ(got->seq, 11);
  EXPECT_GE(d.crc_errors(), 1u);
}

TEST(NetFrame, SummaryAndNackPayloads) {
  net::SummaryInfo info{1234, 56789u, 0xDEADBEEFu, 32};
  const auto sf = net::make_summary(3, info);
  const auto back = net::parse_summary(sf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->total_chunks, info.total_chunks);
  EXPECT_EQ(back->image_bytes, info.image_bytes);
  EXPECT_EQ(back->image_crc, info.image_crc);
  EXPECT_EQ(back->chunk_payload, info.chunk_payload);

  const std::vector<uint16_t> missing{3, 5, 900, 4093};
  const auto nf = net::make_nack(3, 2, missing);
  EXPECT_EQ(nf.seq, 2);  // node id rides in the seq field
  const auto miss = net::parse_nack(nf);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(*miss, missing);

  const auto empty = net::parse_nack(net::make_nack(3, 1, {}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

// --- Image codec ------------------------------------------------------------

TEST(NetImageCodec, RoundTripIsByteIdentical) {
  const auto blob = linked_blob(apps::fig7_mix(8, 2));
  const auto sys = net::deserialize_system(blob);
  ASSERT_TRUE(sys.has_value());
  EXPECT_EQ(net::serialize_system(*sys), blob);
  EXPECT_FALSE(sys->programs.empty());
  EXPECT_FALSE(sys->services.empty());
}

TEST(NetImageCodec, TruncationNeverParses) {
  const auto blob = linked_blob(apps::fig7_mix(8, 1));
  for (size_t len = 0; len < blob.size(); len += 97) {
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(net::deserialize_system(cut).has_value()) << "len=" << len;
  }
  // Trailing garbage is rejected too.
  auto extended = blob;
  extended.push_back(0);
  EXPECT_FALSE(net::deserialize_system(extended).has_value());
}

// --- Acceptance: 4-node dissemination at 10% loss ---------------------------

TEST(NetDissemination, FourNodesAtTenPercentLossInstallByteIdentical) {
  const auto blob = linked_blob(apps::fig7_mix(8, 2));

  net::NetConfig cfg;
  cfg.nodes = 4;
  cfg.link.drop_pct = 10;
  cfg.chaos_seed = 0x5EED;
  cfg.max_cycles = 1'000'000'000ULL;
  net::NetSim sim(cfg, blob);
  const auto res = sim.disseminate();

  EXPECT_TRUE(res.all_acked);
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(res.complete_nodes(), 4u);
  EXPECT_GT(res.medium.dropped, 0u);  // the loss actually happened
  for (size_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(sim.node_complete(id)) << "node " << id;
    EXPECT_EQ(sim.node_blob(id), blob) << "node " << id;
  }
  // Loss forces repair traffic.
  uint64_t nacks = 0;
  for (const auto& n : res.nodes) nacks += n.nacks_sent;
  EXPECT_GT(nacks, 0u);
  EXPECT_GT(res.base.retransmissions, 0u);
}

TEST(NetDissemination, EndToEndNodesRunInstalledImageIdentically) {
  sim::NetworkRunSpec spec;
  spec.kernel.initial_stack = 96;
  spec.net.nodes = 4;
  spec.net.link.drop_pct = 10;
  spec.net.chaos_seed = 0x5EED;
  spec.net.max_cycles = 1'000'000'000ULL;
  spec.run_cycles = 2'000'000'000ULL;

  const auto nr = sim::run_network(apps::fig7_mix(8, 2), spec);
  ASSERT_TRUE(nr.dissemination.all_acked);
  ASSERT_TRUE(nr.all_installed());
  ASSERT_EQ(nr.nodes.size(), 4u);

  for (size_t i = 0; i < nr.nodes.size(); ++i) {
    const auto& node = nr.nodes[i];
    // Install provenance propagated into the kernel.
    EXPECT_TRUE(node.install.over_the_air);
    EXPECT_EQ(node.install.node_id, i + 1);
    EXPECT_EQ(node.install.image_crc, nr.dissemination.image_crc);
    EXPECT_EQ(node.install.image_bytes, nr.image_blob.size());
    EXPECT_GT(node.install.frames_rx, 0u);
    // Every task of the installed image ran to completion.
    EXPECT_EQ(node.run.stop, emu::StopReason::Halted) << "node " << i + 1;
    EXPECT_EQ(node.run.completed(), node.run.tasks.size());
    EXPECT_TRUE(node.run.invariant_error.empty());
  }
  // All nodes executed the same image from the same clock: their task
  // outputs must be identical.
  for (size_t i = 1; i < nr.nodes.size(); ++i) {
    ASSERT_EQ(nr.nodes[i].run.tasks.size(), nr.nodes[0].run.tasks.size());
    for (size_t t = 0; t < nr.nodes[0].run.tasks.size(); ++t)
      EXPECT_EQ(nr.nodes[i].run.tasks[t].host_out,
                nr.nodes[0].run.tasks[t].host_out)
          << "node " << i + 1 << " task " << t;
  }
}

// --- Determinism: replay, golden digests, serial vs parallel ----------------

// Three nodes on a link that drops, duplicates, reorders and corrupts.
net::NetConfig lossy_config(uint64_t seed) {
  net::NetConfig cfg;
  cfg.nodes = 3;
  cfg.link.drop_pct = 12;
  cfg.link.dup_pct = 4;
  cfg.link.reorder_pct = 4;
  cfg.link.corrupt_pct = 4;
  cfg.chaos_seed = seed;
  cfg.max_cycles = 2'000'000'000ULL;
  return cfg;
}

net::DisseminationResult disseminate_seed(const std::vector<uint8_t>& blob,
                                          uint64_t seed) {
  net::NetSim sim(lossy_config(seed), blob);
  return sim.disseminate();
}

TEST(NetDeterminism, SameSeedReplaysByteIdentically) {
  const auto blob = linked_blob(apps::fig7_mix(8, 1));
  const auto a = disseminate_seed(blob, 42);
  const auto b = disseminate_seed(blob, 42);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.base.frames_tx, b.base.frames_tx);
  EXPECT_EQ(a.medium.dropped, b.medium.dropped);
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].frames_rx, b.nodes[i].frames_rx);
    EXPECT_EQ(a.nodes[i].completion_cycle, b.nodes[i].completion_cycle);
  }

  const auto c = disseminate_seed(blob, 43);
  EXPECT_NE(a.trace_digest, c.trace_digest);
}

TEST(NetDeterminism, SerialAndParallelSweepsAgree) {
  const auto blob = linked_blob(apps::fig7_mix(8, 1));
  constexpr size_t kSeeds = 8;
  auto digests = [&](unsigned jobs) {
    return host::sweep_collect<uint64_t>(
        kSeeds, host::effective_jobs(jobs, kSeeds), [&](std::size_t i) {
          const auto r = disseminate_seed(blob, 100 + i);
          EXPECT_TRUE(r.all_acked) << "seed " << 100 + i;
          return r.trace_digest;
        });
  };
  const auto serial = digests(1);
  const auto parallel = digests(4);
  EXPECT_EQ(serial, parallel);
}

// Golden digests: pinned observed values. A change here means the
// dissemination schedule changed — intentional protocol changes must update
// these constants (and the committed EXPERIMENTS.md baseline) explicitly.
// The fleet rows disseminate the two-search-task fig7 image at seed
// 0xF1EE7 with a base that never gives up: the engine's star and mesh
// scaling cells.
net::NetConfig fleet_config(net::TopologyKind kind, size_t nodes,
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

TEST(NetDeterminism, GoldenTraceDigests) {
  using net::TopologyKind;
  struct Golden {
    const char* name;
    net::NetConfig cfg;
    int search_tasks;
    uint64_t cycles;
    uint64_t digest;
  };
  const Golden rows[] = {
      {"seed 1", lossy_config(1), 1, 22677504, 0x7697f85e0c51bdedULL},
      {"seed 2", lossy_config(2), 1, 19734528, 0x763c4fa6f5fb1d97ULL},
      {"seed 3", lossy_config(3), 1, 24001536, 0xdfee889478227a01ULL},
      {"star 4 @ 0%", fleet_config(TopologyKind::Star, 4, 0), 2, 16121856,
       0x5456e7417a411783ULL},
      {"star 4 @ 10%", fleet_config(TopologyKind::Star, 4, 10), 2, 23851008,
       0x6e029002107b5b50ULL},
      {"star 16 @ 0%", fleet_config(TopologyKind::Star, 16, 0), 2, 16416768,
       0xee24080370dc4f47ULL},
      {"star 16 @ 10%", fleet_config(TopologyKind::Star, 16, 10), 2,
       127905792, 0xaa8e199a85e5e128ULL},
      {"grid 16 @ 10%", fleet_config(TopologyKind::Grid, 16, 10), 2,
       263193600, 0x2c5f7e1d00955083ULL},
  };
  const std::vector<uint8_t> blobs[] = {linked_blob(apps::fig7_mix(8, 1)),
                                        linked_blob(apps::fig7_mix(8, 2))};
  for (const Golden& g : rows) {
    net::NetSim sim(g.cfg, blobs[g.search_tasks - 1]);
    const auto r = sim.disseminate();
    ASSERT_TRUE(r.all_acked) << g.name;
    EXPECT_EQ(r.cycles, g.cycles) << g.name;
    EXPECT_EQ(r.trace_digest, g.digest)
        << g.name << " digest 0x" << std::hex << r.trace_digest;
  }
}

// --- Property: randomized programs survive a lossy link ---------------------

TEST(NetProperty, RandomProgramsDisseminateByteIdenticalOver32Seeds) {
  constexpr size_t kSeeds = 32;
  // uint8_t, not bool: vector<bool> bit-packs slots into shared words,
  // which races across sweep workers (sweep_collect static_asserts on it).
  const auto ok = host::sweep_collect<uint8_t>(
      kSeeds, host::effective_jobs(4, kSeeds), [&](std::size_t i) {
        const auto blob =
            linked_blob({testlib::random_program(uint32_t(i) + 1)});
        net::NetConfig cfg;
        cfg.nodes = 2;
        cfg.link.drop_pct = 15;
        cfg.link.dup_pct = 5;
        cfg.link.reorder_pct = 5;
        cfg.link.corrupt_pct = 5;
        cfg.chaos_seed = 0xABCD + i;
        cfg.max_cycles = 2'000'000'000ULL;
        net::NetSim sim(cfg, blob);
        const auto r = sim.disseminate();
        if (!r.all_acked) return false;
        for (size_t id = 1; id <= cfg.nodes; ++id) {
          if (sim.node_blob(id) != blob) return false;
          if (!net::deserialize_system(sim.node_blob(id)).has_value())
            return false;
        }
        return true;
      });
  for (size_t i = 0; i < kSeeds; ++i)
    EXPECT_TRUE(ok[i]) << "seed " << i + 1;
}

// --- Adversarial: verified install or clean abort, nothing in between ------

TEST(NetAdversarial, TotalLossAbortsCleanlyWithoutInstall) {
  const auto blob = linked_blob(apps::fig7_mix(8, 1));
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.max_cycles = 40'000'000ULL;  // bounded: this cannot converge
  net::NetSim sim(cfg, blob);
  sim.set_fault_policy([](size_t, size_t, uint64_t, std::span<const uint8_t>) {
    return net::FaultAction::Drop;
  });
  const auto r = sim.disseminate();
  EXPECT_FALSE(r.all_acked);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.complete_nodes(), 0u);
  for (size_t id = 1; id <= cfg.nodes; ++id) {
    EXPECT_FALSE(sim.node_complete(id));
    EXPECT_TRUE(sim.node_blob(id).empty());  // partials are unobservable
  }
}

TEST(NetAdversarial, TotalCorruptionAbortsCleanlyWithoutInstall) {
  const auto blob = linked_blob(apps::fig7_mix(8, 1));
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.max_cycles = 40'000'000ULL;
  net::NetSim sim(cfg, blob);
  sim.set_fault_policy([](size_t, size_t, uint64_t, std::span<const uint8_t>) {
    return net::FaultAction::Corrupt;
  });
  const auto r = sim.disseminate();
  EXPECT_FALSE(r.all_acked);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.complete_nodes(), 0u);
  uint64_t crc_drops = 0;
  for (const auto& n : r.nodes) crc_drops += n.crc_drops;
  EXPECT_GT(crc_drops, 0u);  // every corruption was detected, none delivered
  for (size_t id = 1; id <= cfg.nodes; ++id)
    EXPECT_TRUE(sim.node_blob(id).empty());
}

TEST(NetAdversarial, AbortedNodeNeverRunsAKernel) {
  sim::NetworkRunSpec spec;
  spec.net.nodes = 2;
  spec.net.max_cycles = 40'000'000ULL;
  spec.fault_policy = [](size_t, size_t, uint64_t,
                         std::span<const uint8_t>) {
    return net::FaultAction::Drop;
  };
  const auto nr = sim::run_network(apps::fig7_mix(8, 1), spec);
  EXPECT_TRUE(nr.dissemination.aborted);
  EXPECT_FALSE(nr.all_installed());
  for (const auto& node : nr.nodes) {
    EXPECT_FALSE(node.installed);
    EXPECT_EQ(node.run.tasks.size(), 0u);  // no kernel was ever constructed
  }
}


// Standard check values ("123456789"): CRC-16/CCITT-FALSE and CRC-32.
TEST(NetFrame, CrcStandardCheckValues) {
  const std::string check = "123456789";
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(check.data()), check.size());
  EXPECT_EQ(net::crc16_ccitt(bytes), 0x29B1);
  EXPECT_EQ(net::crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(net::crc16_ccitt({}), 0xFFFF);
  EXPECT_EQ(net::crc32({}), 0u);
}


// Deframer::need() is the wake schedule's frame deadline: it must count
// exactly the bytes after which next() can decide something, and no
// decision may happen earlier.
TEST(NetFrame, DeframerNeedCountsBytesToTheNextDecision) {
  net::Deframer d;
  EXPECT_EQ(d.need(), net::kFrameOverhead);
  const auto bytes =
      net::encode_frame({net::FrameType::Data, 1, 7, {1, 2, 3, 4, 5}});
  d.push(std::span<const uint8_t>(bytes).first(3));
  EXPECT_EQ(d.need(), net::kFrameOverhead - 3);
  d.push(std::span<const uint8_t>(bytes).subspan(3, 5));
  EXPECT_EQ(d.need(), bytes.size() - 8);
  d.push(std::span<const uint8_t>(bytes).subspan(8));
  EXPECT_EQ(d.need(), 0u);
  ASSERT_TRUE(d.next());
  EXPECT_EQ(d.need(), net::kFrameOverhead);
  d.push(uint8_t{0x00});  // garbage: next() can drop it at once
  EXPECT_EQ(d.need(), 0u);

  // Property over a noisy stream: between decisions, feeding fewer than
  // need() bytes never lets next() deliver or reject anything.
  chaos::Prng r(0xDEF0);
  std::vector<uint8_t> stream;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> payload(r.below(net::kMaxPayload + 1));
    for (auto& b : payload) b = static_cast<uint8_t>(r.below(256));
    auto f = net::encode_frame(
        {net::FrameType::Data, 1, static_cast<uint16_t>(i), payload});
    if (r.percent(20)) f[r.below(uint32_t(f.size()))] ^= 0x10;
    if (r.percent(20)) f.resize(r.below(uint32_t(f.size())));
    stream.insert(stream.end(), f.begin(), f.end());
    for (uint32_t g = r.below(4); g > 0; --g)
      stream.push_back(static_cast<uint8_t>(r.below(256)));
  }
  net::Deframer e;
  size_t frames = 0, owed = e.need();
  for (uint8_t b : stream) {
    e.push(b);
    const uint64_t errors = e.crc_errors();
    bool decided = false;
    while (e.next()) {
      decided = true;
      ++frames;
    }
    decided |= e.crc_errors() != errors;
    if (owed > 1) {
      EXPECT_FALSE(decided);
    }
    owed = decided || owed <= 1 ? e.need() : owed - 1;
    ASSERT_GE(owed, 1u);
    ASSERT_LE(owed, net::kFrameOverhead + net::kMaxPayload);
  }
  EXPECT_GT(frames, 100u);
  EXPECT_GT(e.crc_errors(), 0u);
}

}  // namespace
}  // namespace sensmart
