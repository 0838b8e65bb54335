// Health-gated staged rollout (DESIGN.md §12): the versioned A/B ImageStore
// codec and trial state machine, wave-by-wave fleet upgrade behind the
// health gate, automatic rollback (gate trips, interrupted trials, fleet
// halt past the failure budget), reboot-during-probation/rollback
// regressions, the pinned cells of bench/fig_dissemination --rollout with
// their outcome checks, and byte-identical replay of a full mesh rollout.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "apps/treesearch.hpp"
#include "dissemination_cells.hpp"
#include "emu/machine.hpp"
#include "net/auth.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"
#include "sim/harness.hpp"

namespace sensmart {
namespace {

using assembler::Image;
using emu::BootOutcome;
using emu::ImageStore;
using emu::SlotState;

std::vector<Image> workload(uint16_t tree_nodes, uint16_t seed) {
  apps::TreeSearchParams p;
  p.nodes_per_tree = tree_nodes;
  p.trees = 1;
  p.searches = 32;
  p.seed = seed;
  std::vector<Image> images;
  images.push_back(apps::data_feed_program(6, 64));
  images.push_back(apps::tree_search_program(p));
  return images;
}

std::vector<uint8_t> linked_blob(const std::vector<Image>& images) {
  rw::Linker linker(rw::RewriteOptions{}, true);
  for (const auto& img : images) linker.add(img);
  return net::serialize_system(linker.link());
}

// The image the fleet starts on (slot A) and the one being rolled out.
std::vector<uint8_t> old_blob() { return linked_blob(workload(6, 0x0101)); }
std::vector<uint8_t> new_blob() { return linked_blob(workload(8, 0x3131)); }

net::NetConfig rollout_config(size_t nodes, uint32_t wave_size,
                              uint32_t budget) {
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.chaos_seed = 0x5EED;
  cfg.max_cycles = 8'000'000'000ULL;
  cfg.rollout.enabled = true;
  cfg.rollout.wave_size = wave_size;
  cfg.rollout.failure_budget = budget;
  return cfg;
}

// --- ImageStoreFormat: versioned on-flash codec -----------------------------

ImageStore populated_store() {
  ImageStore st;
  st.has_summary = true;
  st.image_version = 7;
  st.chunk_payload = 32;
  st.total_chunks = 3;
  st.chunks_have = 2;
  st.have = {1, 0, 1};
  st.image = std::vector<uint8_t>(70, 0xAB);
  st.image_bytes = 70;
  st.image_crc = 0xDEADBEEF;
  st.has_mac = true;
  st.image_mac = 0x0123456789ABCDEFULL;
  st.writes = 42;
  st.slots[0] = {SlotState::Confirmed, 6, 0x1111, {1, 2, 3}};
  st.slots[1] = {SlotState::Staged, 7, 0x2222, {4, 5, 6, 7}};
  st.active_slot = 1;
  st.trial_active = true;
  st.trial_boot_pending = true;
  st.rollback_report_pending = false;
  return st;
}

void expect_stores_equal(const ImageStore& a, const ImageStore& b) {
  EXPECT_EQ(a.has_summary, b.has_summary);
  EXPECT_EQ(a.image_version, b.image_version);
  EXPECT_EQ(a.total_chunks, b.total_chunks);
  EXPECT_EQ(a.chunk_payload, b.chunk_payload);
  EXPECT_EQ(a.image_bytes, b.image_bytes);
  EXPECT_EQ(a.image_crc, b.image_crc);
  EXPECT_EQ(a.has_mac, b.has_mac);
  EXPECT_EQ(a.image_mac, b.image_mac);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.chunks_have, b.chunks_have);
  EXPECT_EQ(a.have, b.have);
  EXPECT_EQ(a.image, b.image);
  EXPECT_EQ(a.writes, b.writes);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(a.slots[s].state, b.slots[s].state) << "slot " << s;
    EXPECT_EQ(a.slots[s].version, b.slots[s].version) << "slot " << s;
    EXPECT_EQ(a.slots[s].crc, b.slots[s].crc) << "slot " << s;
    EXPECT_EQ(a.slots[s].image, b.slots[s].image) << "slot " << s;
  }
  EXPECT_EQ(a.active_slot, b.active_slot);
  EXPECT_EQ(a.trial_active, b.trial_active);
  EXPECT_EQ(a.trial_boot_pending, b.trial_boot_pending);
  EXPECT_EQ(a.rollback_report_pending, b.rollback_report_pending);
}

TEST(ImageStoreFormat, CodecRoundTrips) {
  const ImageStore st = populated_store();
  const auto page = serialize_image_store(st);
  EXPECT_EQ(page[0], emu::kImageStoreFormat);
  ImageStore back;
  ASSERT_TRUE(deserialize_image_store(page, back));
  expect_stores_equal(st, back);
}

TEST(ImageStoreFormat, StrictDecodeRejectsCorruption) {
  const auto good = serialize_image_store(populated_store());
  const ImageStore untouched;  // decode failure must leave `out` alone

  // Foreign format byte (e.g. the pre-A/B layout's first byte).
  {
    auto page = good;
    page[0] = 1;
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(page, out));
    expect_stores_equal(out, untouched);
  }
  // Truncation at every boundary class: header, mid-payload, CRC.
  for (size_t keep : {size_t(0), size_t(3), size_t(10), good.size() - 5}) {
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(
        std::span<const uint8_t>(good.data(), keep), out))
        << "kept " << keep;
  }
  // Flipped byte anywhere breaks the trailing page CRC.
  {
    auto page = good;
    page[page.size() / 2] ^= 0x40;
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(page, out));
  }
  // Trailing garbage after a valid body.
  {
    auto page = good;
    page.insert(page.end() - 4, 0x00);  // keeps length, breaks CRC
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(page, out));
  }
}

TEST(ImageStoreFormat, StrictDecodeRejectsInconsistentFields) {
  // Re-serialize stores with violated cross-field invariants and patch the
  // trailing CRC so only the semantic check can reject them.
  auto reseal = [](std::vector<uint8_t> page) {
    const auto body = std::span<const uint8_t>(page).first(page.size() - 4);
    // Recompute with the same polynomial the codec uses (== net::crc32).
    const uint32_t crc = net::crc32(body);
    for (int i = 0; i < 4; ++i)
      page[body.size() + size_t(i)] = static_cast<uint8_t>(crc >> (8 * i));
    return page;
  };

  {  // bitmap popcount disagrees with chunks_have
    ImageStore st = populated_store();
    st.have = {1, 1, 1};
    auto page = reseal(serialize_image_store(st));
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(page, out));
  }
  {  // trial flags pointing at a non-Staged slot
    ImageStore st = populated_store();
    st.slots[1].state = SlotState::Confirmed;
    auto page = reseal(serialize_image_store(st));
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(page, out));
  }
  {  // Empty slot smuggling bytes
    ImageStore st = populated_store();
    st.trial_active = st.trial_boot_pending = false;
    st.active_slot = 0;
    st.slots[1].state = SlotState::Empty;  // still holds 4 bytes
    auto page = reseal(serialize_image_store(st));
    ImageStore out;
    EXPECT_FALSE(deserialize_image_store(page, out));
  }
}

TEST(ImageStoreFormat, DeviceRejectsAndReformatsCorruptPage) {
  emu::Machine m;
  auto& dev = m.dev();
  dev.image_store() = populated_store();

  // A valid page loads and round-trips through the device.
  const auto good = serialize_image_store(populated_store());
  ASSERT_TRUE(dev.load_flash_page(good));
  EXPECT_FALSE(dev.take_store_reformatted());
  EXPECT_EQ(dev.image_store().slots[1].crc, 0x2222u);

  // A corrupt page is rejected wholesale: factory-empty store, sticky
  // reformat flag reported exactly once.
  auto bad = good;
  bad[1] ^= 0x80;  // unknown flag bit + broken page CRC
  EXPECT_FALSE(dev.load_flash_page(bad));
  EXPECT_TRUE(dev.take_store_reformatted());
  EXPECT_FALSE(dev.take_store_reformatted());  // consumed
  EXPECT_FALSE(dev.image_store().has_summary);
  EXPECT_EQ(dev.image_store().slots[0].state, SlotState::Empty);
  EXPECT_EQ(dev.image_store().slots[1].state, SlotState::Empty);
}

// --- ImageStoreFormat: trial state machine ----------------------------------

// A store that passed strict decode: factory image in slot 0 plus a fully
// received, verified transfer area (consistent geometry — the codec's
// cross-field checks must accept it after every reboot round-trip).
ImageStore verified_transfer_store() {
  ImageStore st;
  st.slots[0] = {SlotState::Confirmed, 1, 0xAAAA, {9}};
  st.active_slot = 0;
  st.has_summary = true;
  st.chunk_payload = 16;
  st.total_chunks = 1;
  st.chunks_have = 1;
  st.have = {1};
  st.image = std::vector<uint8_t>(16, 0x5A);
  st.image_bytes = 16;
  st.image_crc = 0xBBBB;
  st.verified = true;
  return st;
}

TEST(ImageStoreFormat, TrialLifecycleConfirm) {
  ImageStore st = verified_transfer_store();

  const int slot = st.stage_inactive(2);
  ASSERT_EQ(slot, 1);
  EXPECT_EQ(st.slots[1].state, SlotState::Staged);
  EXPECT_EQ(st.slots[1].crc, 0xBBBBu);
  EXPECT_EQ(st.slots[1].image, st.image);

  st.activate_trial(1);
  EXPECT_TRUE(st.trial_active);
  EXPECT_EQ(st.on_power_up(), BootOutcome::TrialBoot);  // the sanctioned boot
  st.confirm_trial();
  EXPECT_FALSE(st.trial_active);
  EXPECT_EQ(st.slots[1].state, SlotState::Confirmed);
  EXPECT_EQ(st.on_power_up(), BootOutcome::Normal);
}

TEST(ImageStoreFormat, UnconfirmedRebootRollsBack) {
  ImageStore st = verified_transfer_store();
  st.activate_trial(static_cast<uint8_t>(st.stage_inactive(2)));

  EXPECT_EQ(st.on_power_up(), BootOutcome::TrialBoot);
  // Second power-up before confirm: automatic rollback to slot 0, with the
  // failure remembered for the base.
  EXPECT_EQ(st.on_power_up(), BootOutcome::TrialRollback);
  EXPECT_EQ(st.active_slot, 0);
  EXPECT_EQ(st.slots[1].state, SlotState::Rejected);
  EXPECT_FALSE(st.trial_active);
  EXPECT_TRUE(st.rollback_report_pending);
  EXPECT_EQ(st.on_power_up(), BootOutcome::Normal);  // stable afterwards
}

TEST(ImageStoreFormat, RebootDuringRollbackKeepsOldSlot) {
  // Regression: a power cycle landing between rollback_trial() and the
  // failure report must come back on the old confirmed slot — never on the
  // half-rejected trial — and must keep the pending report.
  emu::Machine m;
  auto& dev = m.dev();
  ImageStore& st = dev.image_store();
  st = verified_transfer_store();
  st.activate_trial(static_cast<uint8_t>(st.stage_inactive(2)));
  dev.reboot();  // sanctioned trial boot
  EXPECT_EQ(dev.last_boot(), BootOutcome::TrialBoot);

  st.rollback_trial();
  st.rollback_report_pending = true;
  for (int cycle = 0; cycle < 3; ++cycle) {
    dev.reboot();  // codec round-trip + bootloader each time
    EXPECT_EQ(dev.last_boot(), BootOutcome::Normal) << "cycle " << cycle;
    EXPECT_EQ(st.active_slot, 0) << "cycle " << cycle;
    EXPECT_EQ(st.slots[0].state, SlotState::Confirmed) << "cycle " << cycle;
    EXPECT_EQ(st.slots[1].state, SlotState::Rejected) << "cycle " << cycle;
    EXPECT_FALSE(st.trial_active) << "cycle " << cycle;
    EXPECT_TRUE(st.rollback_report_pending) << "cycle " << cycle;
  }
}

TEST(ImageStoreFormat, RebootDuringProbationNeverBootsHalfConfirmedTrial) {
  // Regression: the persisted trial flags survive DeviceHub::reboot()'s
  // codec round-trip, so an unconfirmed trial gets exactly one boot no
  // matter how the flags hit flash.
  emu::Machine m;
  auto& dev = m.dev();
  ImageStore& st = dev.image_store();
  st = verified_transfer_store();
  st.activate_trial(static_cast<uint8_t>(st.stage_inactive(2)));

  dev.reboot();
  EXPECT_EQ(dev.last_boot(), BootOutcome::TrialBoot);
  EXPECT_FALSE(dev.take_store_reformatted());
  EXPECT_EQ(st.active_slot, 1);

  dev.reboot();  // crash mid-probation
  EXPECT_EQ(dev.last_boot(), BootOutcome::TrialRollback);
  EXPECT_EQ(st.active_slot, 0);
  EXPECT_EQ(st.slots[1].state, SlotState::Rejected);
  EXPECT_TRUE(st.rollback_report_pending);
}

// --- NetRollout: wave upgrades, gate, rollback ------------------------------

void expect_on_image(const net::NetSim& sim, size_t id,
                     const std::vector<uint8_t>& blob, SlotState state) {
  const ImageStore& st = sim.node_store(id);
  const emu::ImageSlot& act = st.slots[st.active_slot];
  EXPECT_EQ(act.state, state) << "node " << id;
  EXPECT_EQ(act.crc, net::crc32(blob)) << "node " << id;
  EXPECT_EQ(act.image, blob) << "node " << id;  // byte-exact, not just CRC
  EXPECT_FALSE(st.trial_active) << "node " << id;
  EXPECT_FALSE(st.trial_boot_pending) << "node " << id;
}

TEST(NetRollout, HappyPathStarUpgradesInWaves) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetSim sim(rollout_config(4, 2, 1), nb);
  sim.set_initial_image(ob, 0);
  const auto r = sim.rollout();

  ASSERT_TRUE(r.dissem.all_acked);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.halted);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_EQ(r.waves, 2u);  // 4 members / wave_size 2
  EXPECT_EQ(r.waves_promoted, 2u);
  EXPECT_EQ(r.confirmed, 4u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.rolled_back, 0u);
  EXPECT_EQ(r.health_rejected, 0u);
  for (size_t id = 1; id <= 4; ++id) {
    const net::NodeRolloutStats& ns = r.nodes[id];
    EXPECT_TRUE(ns.member) << id;
    EXPECT_TRUE(ns.activated) << id;
    EXPECT_TRUE(ns.confirmed) << id;
    EXPECT_FALSE(ns.trial_left_active) << id;
    expect_on_image(sim, id, nb, SlotState::Confirmed);
    // The previous image stays in the other slot as the fallback.
    const ImageStore& st = sim.node_store(id);
    EXPECT_EQ(st.slots[st.active_slot ^ 1].crc, net::crc32(ob)) << id;
  }
  // Waves show up in order in the event trace, interleaved with activations
  // and confirmations.
  size_t waves = 0, activated = 0, confirmed = 0, done = 0;
  for (const auto& e : sim.trace()) {
    waves += e.kind == net::NetEventKind::RolloutWave;
    activated += e.kind == net::NetEventKind::TrialActivated;
    confirmed += e.kind == net::NetEventKind::NodeConfirmed;
    done += e.kind == net::NetEventKind::RolloutDone;
  }
  EXPECT_EQ(waves, 2u);
  EXPECT_EQ(activated, 4u);
  EXPECT_EQ(confirmed, 4u);
  EXPECT_EQ(done, 1u);
}

TEST(NetRollout, RunawayLemonRollsBackWithinBudget) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetSim sim(rollout_config(4, 2, 1), nb);
  sim.set_initial_image(ob, 0);
  net::TrialBehavior lemon;
  lemon.kind = net::TrialBehavior::Kind::Runaway;
  lemon.quarantines = 2;
  sim.set_trial_behavior(3, lemon);
  const auto r = sim.rollout();

  // One failure == the budget: the fleet keeps going, only node 3 ends on
  // the old image with the lemon kept as Rejected evidence.
  EXPECT_FALSE(r.halted);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_FALSE(r.complete);  // not everyone confirmed
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.confirmed, 3u);
  for (size_t id : {1u, 2u, 4u}) expect_on_image(sim, id, nb, SlotState::Confirmed);
  expect_on_image(sim, 3, ob, SlotState::Confirmed);
  const ImageStore& st3 = sim.node_store(3);
  EXPECT_EQ(st3.slots[st3.active_slot ^ 1].state, SlotState::Rejected);
  EXPECT_EQ(st3.slots[st3.active_slot ^ 1].crc, net::crc32(nb));
  EXPECT_TRUE(r.nodes[3].rolled_back);
  EXPECT_FALSE(r.nodes[3].confirmed);

  // The on-node gate fired: a TrialRolledBack(GateFailed) event exists.
  bool gate_failed = false;
  for (const auto& e : sim.trace())
    if (e.kind == net::NetEventKind::TrialRolledBack &&
        e.b == uint32_t(net::RollbackWhy::GateFailed))
      gate_failed = true;
  EXPECT_TRUE(gate_failed);
}

TEST(NetRollout, RebootDuringProbationReportsAndRollsBack) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetSim sim(rollout_config(4, 4, 2), nb);
  sim.set_initial_image(ob, 0);
  net::TrialBehavior lemon;
  lemon.kind = net::TrialBehavior::Kind::CrashBoot;
  sim.set_trial_behavior(2, lemon);
  const auto r = sim.rollout();

  // The crash interrupts the one sanctioned trial boot; the bootloader
  // rolls back on comeback and the node reports the interrupted trial.
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.failures, 1u);
  expect_on_image(sim, 2, ob, SlotState::Confirmed);
  const ImageStore& st2 = sim.node_store(2);
  EXPECT_EQ(st2.slots[st2.active_slot ^ 1].state, SlotState::Rejected);
  EXPECT_FALSE(st2.rollback_report_pending);  // report reached the base
  bool interrupted = false;
  for (const auto& e : sim.trace())
    if (e.kind == net::NetEventKind::TrialRolledBack &&
        e.b == uint32_t(net::RollbackWhy::BootInterrupted))
      interrupted = true;
  EXPECT_TRUE(interrupted);
  for (size_t id : {1u, 3u, 4u}) expect_on_image(sim, id, nb, SlotState::Confirmed);
}

TEST(NetRollout, BudgetExceededHaltsAndRollsFleetBack) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetSim sim(rollout_config(6, 2, 1), nb);
  sim.set_initial_image(ob, 0);
  net::TrialBehavior runaway;
  runaway.kind = net::TrialBehavior::Kind::Runaway;
  runaway.watchdog_fires = 1;
  sim.set_trial_behavior(3, runaway);
  net::TrialBehavior crash;
  crash.kind = net::TrialBehavior::Kind::CrashBoot;
  sim.set_trial_behavior(5, crash);
  const auto r = sim.rollout();

  // Two failures over a budget of one: the rollout halts and every node —
  // including the already-promoted first wave — ends byte-exact on the old
  // image, with no trial left active anywhere.
  EXPECT_TRUE(r.halted);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_EQ(r.failures, 2u);
  for (size_t id = 1; id <= 6; ++id) {
    expect_on_image(sim, id, ob, SlotState::Confirmed);
    EXPECT_FALSE(r.nodes[id].trial_left_active) << id;
  }
  bool halted_event = false, done_event = false;
  for (const auto& e : sim.trace()) {
    halted_event |= e.kind == net::NetEventKind::RolloutHalted;
    done_event |= e.kind == net::NetEventKind::RolloutDone;
  }
  EXPECT_TRUE(halted_event);
  EXPECT_TRUE(done_event);
}

TEST(NetRollout, WedgedTrialGetsGivenUpThenRolledBack) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetConfig cfg = rollout_config(4, 2, 2);
  cfg.rollout.give_up_tries = 4;  // bound the wait for the dark node
  net::NetSim sim(cfg, nb);
  sim.set_initial_image(ob, 0);
  net::TrialBehavior wedge;
  wedge.kind = net::TrialBehavior::Kind::Wedge;
  wedge.wedge_bytes = 60000;  // dark well past the give-up horizon
  sim.set_trial_behavior(1, wedge);
  const auto r = sim.rollout();

  // The wedged node never answers; the base gives up on it (one failure)
  // and its own bootloader rolls the trial back when it finally comes up.
  EXPECT_EQ(r.gave_up, 1u);
  EXPECT_GE(r.failures, 1u);
  EXPECT_TRUE(r.nodes[1].given_up);
  EXPECT_FALSE(r.nodes[1].trial_left_active);
  const ImageStore& st1 = sim.node_store(1);
  EXPECT_FALSE(st1.trial_active);
  EXPECT_EQ(st1.slots[st1.active_slot].crc, net::crc32(ob));
}

TEST(NetRollout, LossyStarStillConverges) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetConfig cfg = rollout_config(4, 2, 1);
  cfg.link.drop_pct = 10;
  net::NetSim sim(cfg, nb);
  sim.set_initial_image(ob, 0);
  const auto r = sim.rollout();

  ASSERT_TRUE(r.dissem.all_acked);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmed, 4u);
  for (size_t id = 1; id <= 4; ++id)
    expect_on_image(sim, id, nb, SlotState::Confirmed);
}

TEST(NetRollout, AuthenticatedRunRejectsNothingHonest) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetConfig cfg = rollout_config(4, 2, 1);
  cfg.proto.auth = true;
  net::NetSim sim(cfg, nb);
  sim.set_initial_image(ob, 0);
  const auto r = sim.rollout();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.health_rejected, 0u);
}

TEST(NetRollout, ControlAndHealthTagsBindEveryField) {
  const net::AuthKey k = net::kDefaultAuthKey;
  const uint64_t c = net::control_tag(k, 1, 2, 3, 4, 5);
  EXPECT_NE(c, net::control_tag(k, 9, 2, 3, 4, 5));  // version
  EXPECT_NE(c, net::control_tag(k, 1, 9, 3, 4, 5));  // command
  EXPECT_NE(c, net::control_tag(k, 1, 2, 9, 4, 5));  // target
  EXPECT_NE(c, net::control_tag(k, 1, 2, 3, 9, 5));  // ctl_seq (anti-replay)
  EXPECT_NE(c, net::control_tag(k, 1, 2, 3, 4, 9));  // image crc
  EXPECT_NE(c, net::control_tag(net::AuthKey{1, 2}, 1, 2, 3, 4, 5));

  net::HealthReport hr;
  hr.flags = net::kHealthTrialClean;
  hr.quarantines = 0;
  const auto core = net::health_core(hr);
  const uint64_t h = net::health_tag(k, 1, 7, core);
  EXPECT_NE(h, net::health_tag(k, 1, 8, core));  // origin
  hr.quarantines = 1;  // a forged "clean" counter changes the tag
  EXPECT_NE(h, net::health_tag(k, 1, 7, net::health_core(hr)));
}

TEST(NetRollout, MeshGridConverges) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetConfig cfg = rollout_config(8, 4, 1);
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.link.drop_pct = 5;
  cfg.proto.node_give_up_probes = 0;
  const auto run = [&](net::NetSim& sim) {
    sim.set_initial_image(ob, 0);
    return sim.rollout();
  };
  net::NetSim sim(cfg, nb);
  const auto r = run(sim);

  ASSERT_TRUE(r.dissem.all_acked);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.confirmed, 8u);
  for (size_t id = 1; id <= 8; ++id)
    expect_on_image(sim, id, nb, SlotState::Confirmed);
  // Multi-hop machinery was actually exercised: some control or health
  // frames were relayed.
  size_t relayed = 0;
  for (const auto& e : sim.trace())
    relayed += e.kind == net::NetEventKind::ControlRelayed ||
               e.kind == net::NetEventKind::HealthRelayed;
  EXPECT_GT(relayed, 0u);

  // Deterministic replay: an identical sim reproduces the exact trace.
  net::NetSim sim2(cfg, nb);
  const auto r2 = run(sim2);
  EXPECT_EQ(r.trace_digest, r2.trace_digest);
  EXPECT_EQ(r.trace_events, r2.trace_events);
  EXPECT_EQ(r.cycles, r2.cycles);
}

TEST(NetRollout, MeshLemonRollsBackAcrossHops) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetConfig cfg = rollout_config(8, 4, 2);
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.proto.node_give_up_probes = 0;
  cfg.proto.auth = true;
  net::NetSim sim(cfg, nb);
  sim.set_initial_image(ob, 0);
  net::TrialBehavior lemon;
  lemon.kind = net::TrialBehavior::Kind::Runaway;
  lemon.quarantines = 1;
  sim.set_trial_behavior(7, lemon);  // far corner: reports need relaying
  const auto r = sim.rollout();

  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.confirmed, 7u);
  EXPECT_EQ(r.health_rejected, 0u);
  expect_on_image(sim, 7, ob, SlotState::Confirmed);
  for (size_t id : {1u, 2u, 3u, 4u, 5u, 6u, 8u})
    expect_on_image(sim, id, nb, SlotState::Confirmed);
}

// --- Harness: behavior measured by running the image ------------------------

TEST(NetRollout, HarnessProbesHealthyImageAndUpgrades) {
  sim::RolloutRunSpec spec;
  spec.old_images = workload(6, 0x0101);
  spec.net = rollout_config(4, 2, 1);
  const sim::RolloutRun run = sim::run_rollout(workload(8, 0x3131), spec);

  // The new image genuinely ran on a supervised scratch kernel and came
  // out clean, so the whole fleet trials it as Healthy and confirms.
  EXPECT_EQ(run.probed.kind, net::TrialBehavior::Kind::Healthy);
  EXPECT_EQ(run.probed.quarantines, 0u);
  EXPECT_EQ(run.probed.watchdog_fires, 0u);
  EXPECT_TRUE(run.result.complete);
  EXPECT_EQ(run.result.confirmed, 4u);
  EXPECT_EQ(run.old_blob, old_blob());
  EXPECT_EQ(run.new_blob, new_blob());
}

TEST(NetRollout, HarnessLemonOverridesProbedBehavior) {
  sim::RolloutRunSpec spec;
  spec.old_images = workload(6, 0x0101);
  spec.net = rollout_config(4, 2, 1);
  net::TrialBehavior lemon;
  lemon.kind = net::TrialBehavior::Kind::Runaway;
  lemon.watchdog_fires = 3;
  spec.lemons = {{2, lemon}};
  const sim::RolloutRun run = sim::run_rollout(workload(8, 0x3131), spec);

  EXPECT_FALSE(run.result.halted);
  EXPECT_EQ(run.result.failures, 1u);
  EXPECT_TRUE(run.result.nodes[2].rolled_back);
  EXPECT_EQ(run.result.nodes[2].final_crc, net::crc32(run.old_blob));
}

// --- bench/fig_dissemination --rollout: the staged-upgrade matrix ----------
// dissem::rollout_matrix(): a fleet on a small treesearch image is upgraded
// to the fig7 image under MAC, failure budget 1, crossed with wave size,
// loss and 0-2 seeded lemon trials: the first lemon trips the supervision
// gate mid-probation, the second crash-loops. Every cell is pinned, no
// cell leaves a trial active or rejects an honest health report, a
// lemon-free cell promotes the whole fleet, one lemon is rolled back
// alone, and two halt the rollout with the whole fleet back on the old
// image.
TEST(NetRollout, StagedMatrixPinned) {
  struct Pin {
    const char* name;  // dissem::cell_name plus the lemon count
    uint64_t cycles;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"star 8 @ 0% mac wave 2 lemons 0", 57400320, 0x210c23f789c73884ULL},
      {"star 8 @ 0% mac wave 2 lemons 1", 57394176, 0x9a4ffe98b7f1cfd5ULL},
      {"star 8 @ 0% mac wave 2 lemons 2", 45431808, 0xc9df36630f8138a8ULL},
      {"star 8 @ 10% mac wave 2 lemons 0", 76197888, 0x94c36f279b24f359ULL},
      {"star 8 @ 10% mac wave 2 lemons 1", 78084096, 0x139343a6081a507dULL},
      {"star 8 @ 10% mac wave 2 lemons 2", 61802496, 0x4ca72d8d33d362a4ULL},
      {"star 8 @ 0% mac wave 4 lemons 0", 37933056, 0xf067948e5e2c2f90ULL},
      {"star 8 @ 0% mac wave 4 lemons 1", 37592064, 0x79e7816f718fd982ULL},
      {"star 8 @ 0% mac wave 4 lemons 2", 36019200, 0x8412b2ed8ee256deULL},
      {"star 8 @ 10% mac wave 4 lemons 0", 55867392, 0x097680e085188f7dULL},
      {"star 8 @ 10% mac wave 4 lemons 1", 61350912, 0x1109128c0a77631eULL},
      {"star 8 @ 10% mac wave 4 lemons 2", 59283456, 0xe0bccb72167ac7b3ULL},
      {"grid 16 @ 0% mac wave 4 lemons 0", 314775552, 0xbdf1ea816c86c4bcULL},
      {"grid 16 @ 0% mac wave 4 lemons 2", 308290560, 0xd86eb56e3a37edd5ULL},
      {"grid 16 @ 10% mac wave 4 lemons 0", 345572352, 0x96ba135caea4c8f9ULL},
      {"grid 16 @ 10% mac wave 4 lemons 2", 343262208, 0xde933049b3dc2872ULL},
  };
  const auto specs = dissem::rollout_matrix();
  ASSERT_EQ(specs.size(), std::size(pins));
  const auto ob = dissem::old_image_blob();
  const auto nb = dissem::fig7_image_blob();
  for (size_t i = 0; i < specs.size(); ++i) {
    const dissem::RolloutSpec& spec = specs[i];
    const size_t lemons = spec.lemons.size();
    const std::string name = dissem::cell_name(spec.cfg) + " lemons " +
                             std::to_string(lemons);
    SCOPED_TRACE(name);
    EXPECT_EQ(name, pins[i].name);
    net::NetSim sim(spec.cfg, nb);
    dissem::prepare_rollout(sim, spec, ob);
    const auto r = sim.rollout();
    EXPECT_EQ(r.cycles, pins[i].cycles);
    EXPECT_EQ(r.trace_digest, pins[i].digest)
        << "digest 0x" << std::hex << r.trace_digest;
    if (!r.dissem.all_acked) {
      ADD_FAILURE() << "dissemination did not converge";
      continue;
    }
    EXPECT_EQ(r.health_rejected, 0u);
    const size_t nodes = spec.cfg.nodes;
    for (size_t id = 1; id <= nodes; ++id)
      EXPECT_FALSE(r.nodes[id].trial_left_active) << "node " << id;
    if (lemons == 0) {
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.confirmed, nodes);
    } else {
      EXPECT_EQ(r.halted, lemons == 2);
    }
    for (size_t id = 1; id <= nodes; ++id) {
      const bool old = lemons == 2 || (lemons == 1 && id == spec.lemons[0]);
      expect_on_image(sim, id, old ? ob : nb, SlotState::Confirmed);
    }
  }
}

// --- A mesh rollout replays byte-identically --------------------------------

struct RolloutFingerprint {
  uint64_t digest = 0;
  size_t events = 0;
  uint64_t cycles = 0;
  bool complete = false;
  bool halted = false;
  uint32_t waves = 0;
  uint32_t confirmed = 0;
  uint32_t failures = 0;
  uint32_t rolled_back = 0;
  std::vector<uint8_t> final_slots;
  std::vector<uint32_t> final_crcs;
  std::vector<std::vector<uint8_t>> store_pages;  // full persisted stores

  bool operator==(const RolloutFingerprint&) const = default;
};

RolloutFingerprint rollout_fingerprint(const net::NetConfig& cfg,
                                       const std::vector<uint8_t>& ob,
                                       const std::vector<uint8_t>& nb) {
  net::NetSim sim(cfg, nb);
  sim.set_initial_image(ob, 0);
  net::TrialBehavior lemon;
  lemon.kind = net::TrialBehavior::Kind::CrashBoot;
  sim.set_trial_behavior(6, lemon);
  const auto r = sim.rollout();
  RolloutFingerprint fp;
  fp.digest = r.trace_digest;
  fp.events = r.trace_events;
  fp.cycles = r.cycles;
  fp.complete = r.complete;
  fp.halted = r.halted;
  fp.waves = r.waves;
  fp.confirmed = r.confirmed;
  fp.failures = r.failures;
  fp.rolled_back = r.rolled_back;
  for (size_t id = 1; id <= cfg.nodes; ++id) {
    fp.final_slots.push_back(r.nodes[id].final_slot);
    fp.final_crcs.push_back(r.nodes[id].final_crc);
    // Byte-identical persistent state, not just summary stats: the whole
    // serialized store page must agree between runs.
    fp.store_pages.push_back(serialize_image_store(sim.node_store(id)));
  }
  return fp;
}

TEST(NetRollout, GridRolloutReplaysByteIdentically) {
  const auto ob = old_blob();
  const auto nb = new_blob();
  net::NetConfig cfg = rollout_config(16, 4, 2);
  cfg.topo.kind = net::TopologyKind::Grid;
  cfg.link.drop_pct = 5;
  cfg.proto.node_give_up_probes = 0;
  cfg.max_cycles = 20'000'000'000ULL;

  const RolloutFingerprint golden = rollout_fingerprint(cfg, ob, nb);
  EXPECT_GT(golden.events, 0u);
  EXPECT_GE(golden.confirmed, 14u);  // the CrashBoot lemon fails, rest confirm
  EXPECT_EQ(rollout_fingerprint(cfg, ob, nb), golden);
}

}  // namespace
}  // namespace sensmart
