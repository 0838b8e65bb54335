// Fault-matrix conformance: sweep scripted fault kinds {drop, duplicate,
// reorder, corrupt} against scripted positions {first packet, last chunk,
// every 3rd packet} on the base station's links and assert the terminal
// state of every cell. Single scripted faults are always recoverable — the
// protocol must end in a verified, byte-identical install; total-loss
// columns must end in a clean abort with nothing activated.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "apps/treesearch.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"

namespace sensmart {
namespace {

using net::FaultAction;

std::vector<uint8_t> small_image_blob() {
  apps::TreeSearchParams p;
  p.nodes_per_tree = 8;
  p.trees = 1;
  p.searches = 8;
  p.seed = 0x3131;
  rw::Linker linker(rw::RewriteOptions{}, true);
  linker.add(apps::data_feed_program(4, 32));
  linker.add(apps::tree_search_program(p));
  return net::serialize_system(linker.link());
}

enum class Position { First, LastChunk, EveryThird };

const char* name(FaultAction a) {
  switch (a) {
    case FaultAction::Drop: return "drop";
    case FaultAction::Duplicate: return "duplicate";
    case FaultAction::Reorder: return "reorder";
    case FaultAction::Corrupt: return "corrupt";
    default: return "none";
  }
}
const char* name(Position p) {
  switch (p) {
    case Position::First: return "first";
    case Position::LastChunk: return "last-chunk";
    default: return "every-3rd";
  }
}

// Scripted policy for one matrix cell: inject `fault` at `pos` on packets
// transmitted by the base station (from == 0); receiver control traffic is
// left alone. "Last chunk" fires once per link, on the first transmission
// of the final Data chunk.
net::FaultPolicy cell_policy(FaultAction fault, Position pos,
                             uint16_t total_chunks) {
  auto fired = std::make_shared<std::map<std::pair<size_t, size_t>, bool>>();
  return [=](size_t from, size_t to, uint64_t link_tx_index,
             std::span<const uint8_t> packet) {
    if (from != 0) return FaultAction::None;
    switch (pos) {
      case Position::First:
        return link_tx_index == 0 ? fault : FaultAction::None;
      case Position::EveryThird:
        return link_tx_index % 3 == 2 ? fault : FaultAction::None;
      case Position::LastChunk: {
        // Data frame carrying the final chunk: type at [1], seq LE at [3,4].
        if (packet.size() < 5) return FaultAction::None;
        if (packet[1] != uint8_t(net::FrameType::Data)) return FaultAction::None;
        const uint16_t seq = uint16_t(packet[3] | (packet[4] << 8));
        if (seq + 1 != total_chunks) return FaultAction::None;
        bool& f = (*fired)[{from, to}];
        if (f) return FaultAction::None;
        f = true;
        return fault;
      }
    }
    return FaultAction::None;
  };
}

// gtest prints a Cell as a raw byte dump and ctest bakes that dump into the
// test names, so the bytes between `fault` and `pos` are spelled out as
// zeros: left as implicit padding they carry stack garbage and the names
// change from one build to the next.
struct Cell {
  constexpr Cell(FaultAction f, Position p) : fault(f), pos(p) {}
  FaultAction fault;
  uint8_t zero[3] = {};
  Position pos;
};
static_assert(sizeof(Cell) == 8);

class NetFaultMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(NetFaultMatrix, CellEndsInVerifiedInstall) {
  const auto blob = small_image_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.max_cycles = 2'000'000'000ULL;
  net::NetSim sim(cfg, blob);
  const uint16_t total =
      uint16_t((blob.size() + cfg.proto.chunk_payload - 1) /
               cfg.proto.chunk_payload);
  sim.set_fault_policy(cell_policy(GetParam().fault, GetParam().pos, total));

  const auto r = sim.disseminate();
  const std::string cell =
      std::string(name(GetParam().fault)) + " x " + name(GetParam().pos);
  EXPECT_TRUE(r.all_acked) << cell;
  EXPECT_FALSE(r.aborted) << cell;
  ASSERT_EQ(r.complete_nodes(), cfg.nodes) << cell;
  for (size_t id = 1; id <= cfg.nodes; ++id)
    EXPECT_EQ(sim.node_blob(id), blob) << cell << " node " << id;

  // The injected fault classes must be visible in the medium statistics.
  switch (GetParam().fault) {
    case FaultAction::Drop: EXPECT_GT(r.medium.dropped, 0u) << cell; break;
    case FaultAction::Duplicate:
      EXPECT_GT(r.medium.duplicated, 0u) << cell;
      break;
    case FaultAction::Reorder: EXPECT_GT(r.medium.reordered, 0u) << cell; break;
    case FaultAction::Corrupt:
      EXPECT_GT(r.medium.corrupted, 0u) << cell;
      break;
    default: break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, NetFaultMatrix,
    ::testing::Values(Cell{FaultAction::Drop, Position::First},
                      Cell{FaultAction::Drop, Position::LastChunk},
                      Cell{FaultAction::Drop, Position::EveryThird},
                      Cell{FaultAction::Duplicate, Position::First},
                      Cell{FaultAction::Duplicate, Position::LastChunk},
                      Cell{FaultAction::Duplicate, Position::EveryThird},
                      Cell{FaultAction::Reorder, Position::First},
                      Cell{FaultAction::Reorder, Position::LastChunk},
                      Cell{FaultAction::Reorder, Position::EveryThird},
                      Cell{FaultAction::Corrupt, Position::First},
                      Cell{FaultAction::Corrupt, Position::LastChunk},
                      Cell{FaultAction::Corrupt, Position::EveryThird}),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string n = std::string(name(info.param.fault)) + "_" +
                      name(info.param.pos);
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

// Total-loss columns: the protocol must give up cleanly — no node ever
// observes (let alone activates) a partial image.
TEST(NetFaultMatrixEdge, AllFramesDroppedEndsInCleanAbort) {
  const auto blob = small_image_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.max_cycles = 30'000'000ULL;
  net::NetSim sim(cfg, blob);
  sim.set_fault_policy([](size_t, size_t, uint64_t, std::span<const uint8_t>) {
    return FaultAction::Drop;
  });
  const auto r = sim.disseminate();
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.complete_nodes(), 0u);
  for (size_t id = 1; id <= cfg.nodes; ++id)
    EXPECT_TRUE(sim.node_blob(id).empty());
}

// Acks corrupted on the way back: every node completes and verifies, but
// the base can never confirm — a clean "completed but unacknowledged"
// abort, with the installed images still byte-identical.
TEST(NetFaultMatrixEdge, CorruptedAcksLeaveNodesCompleteButUnacked) {
  const auto blob = small_image_blob();
  net::NetConfig cfg;
  cfg.nodes = 2;
  cfg.max_cycles = 400'000'000ULL;
  net::NetSim sim(cfg, blob);
  sim.set_fault_policy([](size_t from, size_t, uint64_t,
                          std::span<const uint8_t>) {
    return from == 0 ? FaultAction::None : FaultAction::Corrupt;
  });
  const auto r = sim.disseminate();
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.all_acked);
  EXPECT_EQ(r.complete_nodes(), cfg.nodes);
  for (size_t id = 1; id <= cfg.nodes; ++id)
    EXPECT_EQ(sim.node_blob(id), blob);
}

}  // namespace
}  // namespace sensmart
