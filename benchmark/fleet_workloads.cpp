// Fleet workloads: over-the-air dissemination of fig_fleet's three-task
// image by the serial network engine at 10% loss, to a 128-receiver star
// (fleet_star) and to a 100-receiver grid mesh (fleet_grid).
//
// Each run simulates a fixed window of network time rather than running to
// termination. How long a dissemination takes to finish depends on the
// loss seed far more than any host change could move it (seeds 0-29: star
// 0.93-3.3 Gcycles, one seed stalling past 4 Gcycles; grid 0.71-4
// Gcycles, all in the Ack end-game), so a whole run is no stable unit of
// work. Every window below ends before any scanned seed finished, so each
// rep simulates the same number of cycles.
#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "apps/treesearch.hpp"
#include "bench.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

namespace sensmart::bench {

namespace {

struct FleetShape {
  const char* name;
  net::TopologyKind kind;
  size_t nodes;        // receivers
  size_t smoke_nodes;  // receivers in --smoke mode
  uint64_t window;     // simulated cycles per run (NetConfig::max_cycles)
};

std::vector<assembler::Image> fleet_images() {
  std::vector<assembler::Image> images;
  images.push_back(apps::data_feed_program(6, 64));
  for (int i = 0; i < 2; ++i) {
    apps::TreeSearchParams p;
    p.nodes_per_tree = 8;
    p.trees = 1;
    p.searches = 32;
    p.seed = static_cast<uint16_t>(0x3131 + 0x1D0B * i);
    images.push_back(apps::tree_search_program(p));
  }
  return images;
}

// Seed n draws the medium's losses from chaos seed 0xF1EE7 + n. The star
// runs the production ProtocolParams. The grid turns the base's give-up
// bound off, the documented mesh setting (ProtocolParams::
// node_give_up_probes): its base hears distant nodes only through relays.
net::NetConfig fleet_config(const FleetShape& f, size_t nodes, uint64_t seed) {
  net::NetConfig cfg;
  cfg.nodes = nodes;
  cfg.link.drop_pct = 10;
  cfg.chaos_seed = 0xF1EE7 + seed;
  cfg.topo.kind = f.kind;
  cfg.shards = 1;
  cfg.max_cycles = f.window;
  if (f.kind != net::TopologyKind::Star) cfg.proto.node_give_up_probes = 0;
  return cfg;
}

// Oracle at the end of the window: a receiver that verified the image holds
// the base's exact bytes, and one still transferring exposes no bytes at
// all (a partial image must never be observable).
void check_fleet(const net::NetSim& sim, size_t nodes,
                 const std::vector<uint8_t>& blob, const FleetShape& f,
                 Outcome& out) {
  for (size_t id = 1; id <= nodes; ++id) {
    ++out.attempted;
    const std::vector<uint8_t>& got = sim.node_blob(id);
    if (sim.node_complete(id) ? got != blob : !got.empty())
      out.fail(std::string(f.name) + ": node " + std::to_string(id) +
               (sim.node_complete(id) ? " verified bytes that differ from "
                                        "the base image"
                                      : " exposes a partial image"));
  }
}

void record_dissemination(const net::DisseminationResult& r, Outcome& out) {
  std::vector<double> verify;
  uint64_t duplicates = 0, served = 0, switches = 0, data_rx = 0;
  uint64_t abandoned_verified = 0;
  for (const net::NodeDissemStats& n : r.nodes) {
    if (n.complete) verify.push_back(double(n.completion_cycle));
    duplicates += n.duplicate_chunks;
    served += n.chunks_served;
    switches += n.parent_switches;
    data_rx += n.data_rx;
    abandoned_verified += n.abandoned && n.complete;
  }
  out.set("net.proto.verified_ratio",
          double(verify.size()) / double(r.nodes.size()));
  out.set("net.proto.verify_cycles_p50", quantile(verify, 0.5));
  out.set("net.proto.verify_cycles_p90", quantile(verify, 0.9));
  out.set("net.proto.retransmissions", double(r.base.retransmissions));
  out.set("net.proto.nacks_rx", double(r.base.nacks_rx));
  out.set("net.proto.duplicate_chunks", double(duplicates));
  out.set("net.proto.chunks_served", double(served));
  out.set("net.proto.parent_switches", double(switches));
  out.set("net.proto.useful_rx_ratio",
          data_rx ? 1.0 - double(duplicates) / double(data_rx) : 0.0);
  out.set("net.proto.abandoned_verified", double(abandoned_verified));
  out.set("net.medium.air_bytes", double(r.medium.bytes_on_air));
  out.set("net.medium.packets_offered", double(r.medium.packets_offered));
  out.set("net.medium.delivery_ratio",
          r.medium.packets_offered
              ? double(r.medium.delivered) / double(r.medium.packets_offered)
              : 0.0);
  out.set("net.medium.collisions", double(r.medium.collisions));
  out.set("net.engine.trace_events", double(r.trace_events));
}

// A fresh engine for `cfg`, its disseminate() timed under span `name`.
std::pair<net::DisseminationResult, double> time_disseminate(
    const net::NetConfig& cfg, const std::vector<uint8_t>& blob, Tracer& tr,
    const char* name) {
  net::NetSim sim(cfg, blob);
  const auto s = tr.span(name);
  const auto t0 = Clock::now();
  net::DisseminationResult r = sim.disseminate();
  return {std::move(r), seconds_since(t0)};
}

Outcome run_fleet(const FleetShape& f, const RunOptions& o, Tracer& tr) {
  Outcome out;
  const net::NetConfig cfg =
      fleet_config(f, o.smoke ? f.smoke_nodes : f.nodes, o.seed);

  // Set-up: generate the images, rewrite + link, serialize the system for
  // the air, and construct the network engine.
  std::vector<uint8_t> blob;
  rw::LinkedSystem sys;
  auto setup = [&] {
    std::vector<assembler::Image> images;
    {
      const auto s = tr.span("apps.build");
      images = fleet_images();
    }
    {
      const auto s = tr.span("rewriter.link");
      rw::Linker linker;
      for (const auto& img : images) linker.add(img);
      sys = linker.link();
    }
    {
      const auto s = tr.span("net.codec.serialize");
      blob = net::serialize_system(sys);
    }
    const auto s = tr.span("net.engine.construct");
    const net::NetSim sim(cfg, blob);
  };
  setup();
  record_link(sys, out);
  out.set("net.codec.image_bytes", double(blob.size()));

  const RepWalls w = run_reps(o, tr, out, setup, [&](int rep) {
    const double rss_before = current_rss_mb();
    std::optional<net::NetSim> sim;
    {
      const auto s = tr.span("net.engine.construct");
      sim.emplace(cfg, blob);
    }
    const double rss_built = current_rss_mb();
    net::DisseminationResult res;
    const auto t0 = Clock::now();
    {
      const auto s = tr.span("net.engine.disseminate");
      res = sim->disseminate();
    }
    const double wall = seconds_since(t0);
    check_fleet(*sim, cfg.nodes, blob, f, out);
    out.check_digest(rep, res.trace_digest);
    if (rep == 0) {
      // The first rep follows only set-up, so these deltas are its own.
      out.set("net.engine.rss_construct_mb", rss_built - rss_before);
      out.set("net.engine.rss_disseminate_mb", peak_rss_mb() - rss_built);
      record_dissemination(res, out);
      out.set("guest_cycles", double(res.cycles));
    }
    out.sample("host_s_per_gcycle", wall / (double(res.cycles) / 1e9));
    return wall;
  });
  record_walls(w, out);
  const double gcycles = out.samples["guest_cycles"][0] / 1e9;
  out.samples["rewriter.link_s"] = tr.durations("rewriter.link");
  out.samples["net.codec.serialize_s"] = tr.durations("net.codec.serialize");
  out.samples["net.engine.construct_s"] = tr.durations("net.engine.construct");
  out.samples["net.engine.disseminate_s"] =
      tr.durations("net.engine.disseminate");
  for (double s : out.samples["net.engine.disseminate_s"])
    out.sample("net.engine.host_s_per_gcycle", s / gcycles);
  if (!tr.enabled()) return out;

  // Scaling: host s/Gcycle of this fleet over that of a 16-receiver fleet
  // of the same shape, seed and loss (flat = the engine scales linearly).
  std::vector<double> ref;
  const net::NetConfig small = fleet_config(f, o.smoke ? 4 : 16, o.seed);
  for (int i = 0; i < (o.smoke ? 2 : 20); ++i) {
    const auto [r, wall] =
        time_disseminate(small, blob, tr, "net.engine.disseminate_ref");
    ref.push_back(wall / (double(r.cycles) / 1e9));
  }
  out.set("net.engine.scaling_ratio",
          quantile(out.samples["host_s_per_gcycle"], 0.5) /
              quantile(ref, 0.5));

  // Sharding verdict: the same run on min(4, cores) shards must reproduce
  // the serial digest; speedup is serial wall over sharded wall.
  net::NetConfig sharded = cfg;
  sharded.shards = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const auto [r, wall] =
      time_disseminate(sharded, blob, tr, "host.sharded_disseminate");
  if (r.trace_digest != out.digest) {
    out.consistent = false;
    out.errors.push_back(std::string(f.name) + ": " +
                         std::to_string(sharded.shards) +
                         "-shard digest differs from the serial digest");
  }
  std::vector<double> serial = w.plain;
  serial.insert(serial.end(), w.traced.begin(), w.traced.end());
  out.set("host.shard_speedup", quantile(serial, 0.5) / wall);
  return out;
}

}  // namespace

Outcome run_fleet_star(const RunOptions& o, Tracer& tr) {
  return run_fleet(
      {"fleet_star", net::TopologyKind::Star, 128, 8, 800'000'000}, o, tr);
}

Outcome run_fleet_grid(const RunOptions& o, Tracer& tr) {
  return run_fleet(
      {"fleet_grid", net::TopologyKind::Grid, 100, 9, 600'000'000}, o, tr);
}

}  // namespace sensmart::bench
