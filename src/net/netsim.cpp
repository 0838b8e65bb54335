#include "net/netsim.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "emu/io_map.hpp"

namespace sensmart::net {

using emu::DeviceHub;

namespace {
constexpr uint64_t kByte = DeviceHub::kCyclesPerRadioByte;
constexpr uint64_t kNever = ~0ULL;
constexpr size_t kMaxEarlyChunks = 4096;  // pre-summary chunk stash bound
constexpr size_t kTraceCapacity = 1 << 16;  // stored events (digest: all)
// Receiver: minimum spacing between repeated Acks (base probe answers),
// the per-origin relay rate limit and the health-report retry interval.
constexpr uint64_t kAckRepeatMin = 4 * 40 * kByte;
// Ceiling on the image size a Summary may command a node to allocate for
// reassembly; an announcement above it is ignored — one forged frame
// must never be able to exhaust a node's memory.
constexpr uint32_t kMaxImageBytes = 32u << 20;
// Mesh: minimum spacing between one node's Summary re-floods (relays),
// spacing between its consecutive peer-served Data chunks, and the
// unanswered Nacks at one parent before rotating to the next-best known
// upstream neighbor (parent churn).
constexpr uint64_t kSummaryRelayMin = 8 * 40 * kByte;
constexpr uint64_t kServeGap = 2 * kByte;
constexpr uint32_t kParentChurnNacks = 3;
// Rollout: base spacing between command retries to one node (backed off
// like every retry timer), the activation reboot outage in byte-times,
// and a node's self-initiated health-report sends.
constexpr uint64_t kControlInterval = 16 * 40 * kByte;
constexpr uint64_t kRebootBytes = 64;
constexpr uint32_t kReportRetries = 12;
// Wake schedule invariant (DESIGN.md §9): a receiver is woken no later than
// the arrival of the byte that can complete its deframer's head candidate,
// so at most one whole frame's bytes land in its radio between two drains
// — never enough to overrun the receive buffer.
static_assert(kFrameOverhead + kMaxPayload < DeviceHub::kRxBufferCap);
// First quantum edge at or after cycle c (quanta end on multiples of kByte).
uint64_t quantum_at_or_after(uint64_t c) {
  return c == kNever ? kNever : (c + kByte - 1) / kByte * kByte;
}
// PRNG stream tag for seeded node faults: a distinct stream from the
// medium's, so enabling node faults never shifts the per-packet rolls.
constexpr uint64_t kNodeFaultStream = 0x4E4F44454641ULL;  // "NODEFA"
// Mesh: "no hop count known" / "no parent adopted" sentinels.
constexpr uint16_t kNoHop = 0xFFFF;
constexpr uint16_t kNoParent = 0xFFFF;
// Carrier-sense guard after a heard transmission ends (turnaround slack).
constexpr uint64_t kCsmaGuard = 2 * kByte;
// Deterministic symmetry breaker for mesh timers: a per-(node, attempt)
// phase offset in byte-times. In a fully deterministic simulation two
// nodes whose backoffs hit the same cap would otherwise collide in the
// exact same pattern forever; hashing the attempt number decorrelates the
// phases without consuming the medium's PRNG stream (star traces
// untouched).
uint64_t mesh_jitter(uint16_t id, uint64_t attempt) {
  uint64_t z =
      (uint64_t(id) << 32) ^ attempt ^ 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z >> 58) * kByte;  // 0..63 byte-times
}

// Mesh upstream relay lane for one kind of origin-keyed news (completion
// Acks, health reports): what a node heard from downstream waits here for
// a TX slot, deduped against the queue and rate-limited per origin.
// Hearing the same origin relayed by an upstream node suppresses ours
// (Trickle-style), and the limit is re-checked at send time because such
// a relay may be overheard after enqueueing.
template <typename Item>
struct RelayLane {
  std::deque<std::pair<uint16_t, Item>> queue;
  std::map<uint16_t, uint64_t> relayed_at;  // origin -> last relay cycle

  bool recent(uint16_t origin, uint64_t now) const {
    const auto it = relayed_at.find(origin);
    return it != relayed_at.end() && now - it->second < kAckRepeatMin;
  }
  void offer(uint16_t origin, const Item& item, uint64_t now) {
    if (recent(origin, now)) return;
    for (const auto& e : queue)
      if (e.first == origin) return;
    queue.push_back({origin, item});
  }
  void suppress(uint16_t origin, uint64_t now) { relayed_at[origin] = now; }
  // The next queued origin still due for a relay, marked as relayed now.
  std::optional<std::pair<uint16_t, Item>> pop(uint64_t now) {
    while (!queue.empty()) {
      const auto e = queue.front();
      queue.pop_front();
      if (recent(e.first, now)) continue;
      relayed_at[e.first] = now;
      return e;
    }
    return std::nullopt;
  }
};

// Receiver protocol state that dies when the node loses power: power-up
// resets all of it with one assignment. Everything the node resumes from
// — the chunk bitmap, the reassembly buffer, the verified flag and the
// A/B slot machine — lives in the persistent emu::ImageStore (via its
// DeviceHub) instead, so a resurrected node resumes its Nack-driven
// transfer where it left off.
struct NodeVolatile {
  Deframer deframer;
  std::map<uint16_t, std::vector<uint8_t>> early;  // pre-Summary stash
  uint64_t next_nack_at = 0;
  uint32_t nack_streak = 0;
  uint64_t last_ack_at = 0;  // 0: a completed node answers a probe at once
  // --- Mesh protocol state (DESIGN.md §10): relearned after reboot from
  // the Summary flood (kNackAnyTarget solicits Summary relays).
  uint16_t hop = kNoHop;        // distance to the base (Summary flood)
  uint16_t parent = kNoParent;  // upstream node Nacks are addressed to
  std::map<uint16_t, uint16_t> nbr_hop;  // neighbor id -> last heard hop
  uint32_t nacks_at_parent = 0;          // unanswered since last progress
  bool ack_pending = false;              // own Ack queued for the next TX slot
  uint64_t next_ack_at = 0;   // verified: next periodic re-ack cycle
  uint32_t ack_streak = 0;    // consecutive re-acks -> exponential backoff
  // Downstream Ack origins to forward, with the origin's auth tag carried
  // verbatim (0 and unused when auth is off) — a relayer forwards the tag
  // it heard rather than minting one, so relaying needs no knowledge of
  // the image the origin verified.
  RelayLane<uint64_t> ack_relay;
  std::deque<uint16_t> serve_q;     // chunk seqs queued to serve to peers
  std::vector<uint8_t> serve_mark;  // seq queued? (dedup + Trickle suppress)
  uint64_t next_serve_at = 0;       // serve pacing (kServeGap)
  bool summary_relay_pending = false;
  uint64_t summary_relay_at = 0;       // staggered send-not-before cycle
  uint64_t last_summary_relay_at = 0;  // rate limit (kSummaryRelayMin)
  // --- Staged-rollout state (DESIGN.md §12): what the trial did to the
  // flash lives in the persistent ImageStore (slot states, trial flags,
  // rollback_report_pending), and the power-up path rebuilds the report
  // from there.
  bool trial_running = false;   // probation window open
  uint64_t probation_end = 0;
  uint64_t behavior_at = 0;     // when the scripted trial behavior fires
  bool behavior_fired = false;
  uint8_t health_flags = 0;     // flags of the report being (re)sent
  bool health_pending = false;
  uint32_t health_sends_left = 0;  // remaining sends of the current report
  uint64_t next_health_at = 0;
  uint32_t health_streak = 0;      // consecutive sends -> backoff
  uint16_t last_ctl_seq = 0;       // newest command acted on (replay guard)
  uint16_t last_ctl_relayed = 0;   // mesh flood dedup
  std::deque<std::pair<uint16_t, ControlInfo>> ctl_relay_q;  // (target, cmd)
  RelayLane<HealthReport> health_relay;
};
}  // namespace

const char* to_string(NodeAbortReason r) {
  switch (r) {
    case NodeAbortReason::None: return "none";
    case NodeAbortReason::NeverHeard: return "never-heard";
    case NodeAbortReason::TimedOut: return "timed-out";
    case NodeAbortReason::ChecksumFail: return "checksum-fail";
    case NodeAbortReason::AuthFail: return "auth-fail";
  }
  return "?";
}

// Base-station protocol state: one initial streaming pass over the chunks,
// a retransmit set fed by Nacks, and an exponentially backed-off Summary
// probe while waiting for stragglers.
struct NetSim::Base {
  Deframer deframer;
  std::set<uint16_t> retransmit;
  std::vector<bool> acked;  // indexed by node id (1-based)
  size_t acked_count = 0;
  uint16_t cursor = 0;
  bool summary_pending = true;
  uint64_t next_probe_at = 0;
  uint32_t probe_streak = 0;
  // Graceful degradation: per-node liveness accounting. A node whose
  // unanswered-probe counter reaches node_give_up_probes is abandoned —
  // the base completes for the live nodes instead of probing forever. Any
  // frame later heard from an abandoned node revives it.
  std::vector<bool> heard;                // ever received a frame from id
  std::vector<bool> abandoned;            // currently given up on
  std::vector<uint32_t> probes_unanswered;  // consecutive silent probes
  size_t abandoned_count = 0;
  // Liveness-granting frames honored per claimed node id (quota gate —
  // see ProtocolParams::node_liveness_quota). Unused while the quota is 0.
  std::vector<uint32_t> liveness_used;
  BaseDissemStats stats;
};

// A receiver: its volatile protocol state plus what survives a power
// cycle besides the persistent store.
struct NetSim::Node : NodeVolatile {
  uint16_t id = 0;
  // Lifecycle (NodeFaultPolicy): pending crash events and the down window.
  std::deque<NodeCrash> crash_plan;
  bool down = false;
  uint64_t up_at = 0;
  // Anti-wedge guard (DESIGN.md §11): cycle of the last transfer progress
  // (summary accepted or chunk stored). A conflicting Summary may only
  // displace a live partial transfer after a full backed-off Nack period
  // of stall — otherwise one forged announcement erases real progress.
  uint64_t last_progress_at = 0;
  // Rejected-image blacklist: (crc, mac) pairs whose assembled bytes
  // failed MAC verification. Re-announcements of a known-bad image are
  // ignored instead of being re-downloaded forever (bounded ring).
  std::array<std::pair<uint32_t, uint64_t>, 8> reject_ring{};
  size_t reject_count = 0;
  bool trial_pending = false;  // activation reboot in progress
  // Activation reboots are deliberate (not power faults): the mesh
  // gradient is carried across them so a freshly upgraded node can still
  // report its health without waiting for a Summary re-flood.
  uint16_t saved_hop = kNoHop;
  uint16_t saved_parent = kNoParent;
  // The radio's overrun count at the last power-down, and the overruns it
  // counted for bytes that landed while the node was down (rx_overruns_up).
  uint64_t overruns_at_down = 0;
  uint64_t overruns_while_down = 0;
  NodeDissemStats stats;
};

// Base-side rollout orchestrator state (DESIGN.md §12), touched only by
// the base step.
struct NetSim::Rollout {
  // Per-member state machine. Activating -> (clean report) AwaitConfirm ->
  // (confirmed report) Confirmed; any failure report lands in Failed; a
  // silent node becomes GivenUp after bounded command retries. The
  // fleet-wide rollback phase drives upgraded members RollingBack ->
  // RolledBack.
  enum class M : uint8_t {
    Idle,
    Activating,
    AwaitConfirm,
    Confirmed,
    Failed,
    GivenUp,
    RollingBack,
    RolledBack,
  };
  enum class Phase : uint8_t { Waves, RollbackAll, Done };

  Phase phase = Phase::Waves;
  std::vector<uint16_t> members;  // dissemination-complete nodes, id order
  size_t next_member = 0;         // first member of the next wave
  size_t wave_begin = 0, wave_end = 0;
  uint32_t wave_index = 0;
  bool wave_open = false;
  std::vector<M> state;           // by node id
  std::vector<uint32_t> tries;    // command sends toward the current goal
  std::vector<uint64_t> next_cmd_at;
  std::vector<bool> ack_rollback;  // failure report awaiting its Rollback ack
  uint16_t ctl_seq = 0;            // strictly increasing per Control sent
  uint32_t failures = 0;
  uint32_t confirmed = 0;
  uint32_t rolled_back = 0;
  uint32_t gave_up = 0;
  uint32_t waves_promoted = 0;
  bool halted = false;
  uint64_t health_rejected = 0;
  std::vector<NodeRolloutStats> nstats;  // by node id
};

NetSim::NetSim(NetConfig cfg, std::vector<uint8_t> image_blob)
    : cfg_(cfg),
      blob_(std::move(image_blob)),
      medium_(cfg.link, cfg.chaos_seed) {
  if (cfg_.proto.chunk_payload == 0) cfg_.proto.chunk_payload = 1;
  if (cfg_.proto.chunk_payload > kMaxPayload)
    cfg_.proto.chunk_payload = static_cast<uint8_t>(kMaxPayload);
  const size_t cp = cfg_.proto.chunk_payload;
  total_chunks_ = static_cast<uint16_t>((blob_.size() + cp - 1) / cp);
  blob_crc_ = crc32(blob_);
  auth_ = cfg_.proto.auth;
  if (auth_) blob_mac_ = siphash24(cfg_.proto.auth_key, blob_);
  if (cfg_.hostile_node > cfg_.nodes) cfg_.hostile_node = 0;
  // With a hostile node on the air an unlimited liveness budget livelocks
  // the base (see liveness_credit); the bound is one honest traffic never
  // reaches.
  liveness_quota_ = cfg_.hostile_node ? 64u + 8u * total_chunks_ : 0u;

  // Spatial topology: node 0 (the base) plus every receiver get placed;
  // the medium then offers broadcasts to in-range neighbors only and
  // resolves capture-model collisions. Star leaves the legacy medium
  // untouched (byte-identical traces).
  mesh_ = cfg_.topo.mesh() && cfg_.nodes > 0;
  if (mesh_)
    medium_.set_topology(
        build_topology(cfg_.topo, cfg_.nodes + 1, cfg_.chaos_seed));
  air_busy_until_.assign(cfg_.nodes + 1, 0);
  due_.reset(cfg_.nodes);  // every receiver due in the first quantum

  machines_.reserve(cfg_.nodes + 1);
  for (size_t id = 0; id <= cfg_.nodes; ++id) {
    machines_.push_back(std::make_unique<emu::Machine>());
    medium_.attach(&machines_.back()->dev());
    // A completion fires from DeviceHub::sync, which the quantum loop
    // calls in machine-id order: that order is the medium's PRNG roll
    // order and the trace order of TX events.
    machines_.back()->dev().set_tx_sink(
        [this, id](std::span<const uint8_t> pkt, uint64_t done) {
          deliver_tx(id, pkt, done);
        });
  }

  medium_.set_observer(
      [this](uint64_t cycle, FaultAction act, size_t from, size_t to) {
        NetEventKind kind;
        switch (act) {
          case FaultAction::Drop: kind = NetEventKind::MediumDrop; break;
          case FaultAction::Duplicate: kind = NetEventKind::MediumDup; break;
          case FaultAction::Reorder: kind = NetEventKind::MediumReorder; break;
          case FaultAction::Corrupt: kind = NetEventKind::MediumCorrupt; break;
          case FaultAction::Outage: kind = NetEventKind::MediumOutage; break;
          case FaultAction::Collision:
            kind = NetEventKind::MediumCollision;
            break;
          case FaultAction::None: return;
        }
        record(cycle, kNodeMedium, kind, static_cast<uint32_t>(from),
               static_cast<uint32_t>(to));
      });

  base_ = std::make_unique<Base>();
  base_->acked.assign(cfg_.nodes + 1, false);
  base_->heard.assign(cfg_.nodes + 1, false);
  base_->abandoned.assign(cfg_.nodes + 1, false);
  base_->probes_unanswered.assign(cfg_.nodes + 1, 0);
  base_->liveness_used.assign(cfg_.nodes + 1, 0);

  nodes_.reserve(cfg_.nodes);
  for (size_t i = 0; i < cfg_.nodes; ++i) {
    auto n = std::make_unique<Node>();
    n->id = static_cast<uint16_t>(i + 1);
    // Stagger the first Nack deadline per node id so simultaneous timeouts
    // do not produce a synchronized Nack volley at the base.
    n->next_nack_at = cfg_.proto.nack_timeout + n->id * 3 * kByte;
    nodes_.push_back(std::move(n));
  }

  behaviors_.assign(cfg_.nodes + 1, TrialBehavior{});

  if (cfg_.node_faults.any()) plan_node_faults();
}

void NetSim::plan_node_faults() {
  const NodeFaultPolicy& pol = cfg_.node_faults;
  std::vector<std::vector<NodeCrash>> plan(cfg_.nodes + 1);
  // Seeded crashes come from their own stream: the medium's per-packet
  // rolls stay untouched, so the fault-free prefix of a faulted run is
  // byte-identical to the corresponding fault-free run.
  chaos::Prng r(cfg_.chaos_seed ^ kNodeFaultStream);
  if (pol.crash_pct > 0) {
    for (size_t id = 1; id <= cfg_.nodes; ++id) {
      for (uint32_t c = 0; c < pol.max_crashes_per_node; ++c) {
        // Draw every parameter unconditionally so one node's plan never
        // depends on whether an earlier roll fired.
        const bool fire = r.percent(pol.crash_pct);
        const uint32_t frac = r.range(15, 85);
        const uint64_t down = pol.down_max_bytes > pol.down_min_bytes
                                  ? pol.down_min_bytes +
                                        r.below(uint32_t(pol.down_max_bytes -
                                                         pol.down_min_bytes + 1))
                                  : pol.down_min_bytes;
        const bool wipe = r.percent(pol.wipe_pct);
        if (!fire) continue;
        NodeCrash ev;
        ev.node = static_cast<uint16_t>(id);
        ev.at_chunks =
            static_cast<uint16_t>(uint32_t(total_chunks_) * frac / 100);
        ev.down_bytes = down;
        ev.wipe_store = wipe;
        plan[id].push_back(ev);
      }
    }
  }
  for (const NodeCrash& ev : pol.scripted)
    if (ev.node >= 1 && ev.node <= cfg_.nodes) plan[ev.node].push_back(ev);
  for (size_t id = 1; id <= cfg_.nodes; ++id) {
    auto& v = plan[id];
    std::stable_sort(v.begin(), v.end(),
                     [](const NodeCrash& a, const NodeCrash& b) {
                       return a.at_chunks < b.at_chunks;
                     });
    nodes_[id - 1]->crash_plan.assign(v.begin(), v.end());
  }
}

NetSim::~NetSim() = default;

void NetSim::set_fault_policy(FaultPolicy p) {
  medium_.set_fault_policy(std::move(p));
}

void NetSim::record(uint64_t cycle, uint8_t node, NetEventKind kind,
                    uint32_t a, uint32_t b) {
  trace_digest_ = fnv1a_step_typed(trace_digest_, cycle);
  trace_digest_ = fnv1a_step_typed(trace_digest_, node);
  trace_digest_ = fnv1a_step_typed(
      trace_digest_, static_cast<std::underlying_type_t<NetEventKind>>(kind));
  trace_digest_ = fnv1a_step_typed(trace_digest_, a);
  trace_digest_ = fnv1a_step_typed(trace_digest_, b);
  ++trace_count_;
  if (trace_.size() < kTraceCapacity)
    trace_.push_back({cycle, node, kind, a, b});
}

void NetSim::deliver_tx(size_t id, std::span<const uint8_t> pkt,
                        uint64_t done) {
  record(done, static_cast<uint8_t>(id), NetEventKind::TxFrame,
         pkt.size() > 1 ? pkt[1] : 0, static_cast<uint32_t>(pkt.size()));
  if (id == 0)
    base_->stats.bytes_tx += pkt.size();
  else
    nodes_[id - 1]->stats.bytes_tx += pkt.size();
  medium_.broadcast(id, pkt, done);
}

bool NetSim::radio_busy(size_t id) {
  uint8_t status = 0;
  machines_[id]->dev().io_access(emu::kRadioStatus, status, false);
  return status & 1;
}

void NetSim::send_frame(size_t node_id, const Frame& f) {
  encode_frame_into(f, encode_scratch_);
  machines_[node_id]->dev().radio_send(encode_scratch_);
  if (node_id == 0)
    ++base_->stats.frames_tx;
}

// Hand the radio's received runs to the deframer without copying them.
void NetSim::drain_rx(size_t node_id, Deframer& d) {
  machines_[node_id]->dev().take_rx_runs(
      [&d](emu::RadioPacketRef&& packet, size_t offset, size_t length) {
        d.push(std::move(packet), offset, length);
      });
}

const Frame& NetSim::data_frame(uint8_t version, uint16_t seq,
                               std::span<const uint8_t> image,
                               size_t chunk_payload) {
  const size_t begin = size_t(seq) * chunk_payload;
  const size_t end = std::min(begin + chunk_payload, image.size());
  data_frame_.type = FrameType::Data;
  data_frame_.version = version;
  data_frame_.seq = seq;
  data_frame_.payload.assign(image.begin() + begin, image.begin() + end);
  return data_frame_;
}

// Every retry timer (base probe, Nack, mesh re-ack, Control retry, health
// report) doubles its interval per consecutive unanswered send, up to
// interval << backoff_cap_exp.
uint32_t NetSim::backoff_exp(uint32_t streak) const {
  return std::min(streak, cfg_.proto.backoff_cap_exp);
}

uint64_t NetSim::backoff(uint64_t interval, uint32_t streak) const {
  return interval << backoff_exp(streak);
}

// Register a just-started transmission with the collision log and the
// carrier-sense air claims: the sender holds the air until `done`, every
// in-range neighbor defers a guard interval past that. max() updates, so
// the merge order of a quantum's notes is irrelevant.
void NetSim::apply_tx_note(size_t from, uint64_t start, uint64_t done) {
  medium_.note_tx(from, start, done);
  air_busy_until_[from] = std::max(air_busy_until_[from], done);
  for (uint16_t r : medium_.topology().neighbors[from])
    air_busy_until_[r] = std::max(air_busy_until_[r], done + kCsmaGuard);
}

// Send a frame and (mesh only) note its exact airtime window. Callers
// check the radio-idle bit first, so the transmission starts at `now` and
// completes at now + length * byte-time — the device computes the same
// completion cycle. The base steps last in its quantum and applies the
// note at once; a receiver's note waits in the outbox (see Outbox).
void NetSim::mesh_send(size_t id, const Frame& f, uint64_t now) {
  send_frame(id, f);
  if (!mesh_) return;
  const uint64_t done =
      now + (kFrameOverhead + f.payload.size()) * kByte;
  if (id == 0)
    apply_tx_note(id, now, done);
  else
    out_.tx_notes.push_back({static_cast<uint16_t>(id), now, done});
}

// Carrier sense: a node transmits only when its radio is idle and (mesh)
// no heard neighbor transmission still holds the air.
bool NetSim::can_tx(size_t id, uint64_t now) {
  return now >= air_busy_until_[id] && !radio_busy(id);
}

void NetSim::note_node_alive(size_t node_id) {
  base_->heard[node_id] = true;
  base_->probes_unanswered[node_id] = 0;
  if (base_->abandoned[node_id]) {
    // The node came back (e.g. rebooted after a long outage): resume
    // serving it instead of holding the stale verdict.
    base_->abandoned[node_id] = false;
    --base_->abandoned_count;
  }
}

// Unauthenticated frames (Nacks, Summary relays) grant liveness — and thus
// reset the per-node abandon counters — only while the claimed node's
// budget lasts. A hostile flood impersonating live nodes then delays
// abandonment by a bounded amount instead of forever; authenticated Acks
// bypass this (they are checked against the keyed tag instead). Called
// only from the base step.
bool NetSim::liveness_credit(size_t node_id, uint64_t now) {
  if (liveness_quota_ == 0) return true;
  uint32_t& used = base_->liveness_used[node_id];
  if (used >= liveness_quota_) {
    ++base_->stats.frames_squelched;
    return false;
  }
  if (++used == liveness_quota_)
    record(now, 0, NetEventKind::QuotaExceeded,
           static_cast<uint32_t>(node_id), liveness_quota_);
  return true;
}

void NetSim::on_base_frame(const Frame& f, uint64_t now) {
  if (f.version != cfg_.proto.version) return;
  switch (f.type) {
    case FrameType::Nack: {
      // Mesh Nacks are addressed; a star Nack is one addressed to the base
      // (target 0). The base serves only Nacks targeting it, and answers
      // kNackAnyTarget with a Summary re-announce only, never Data. A Nack
      // overheard on its way to a peer parent still proves the sender
      // alive (liveness is "what the base actually heard").
      std::optional<MeshNack> mn;
      if (mesh_)
        mn = parse_mesh_nack(f);
      else if (auto missing = parse_nack(f))
        mn = MeshNack{std::move(*missing), 0};
      if (!mn || f.seq == 0 || f.seq > cfg_.nodes) return;
      if (!liveness_credit(f.seq, now)) return;
      ++base_->stats.nacks_rx;
      note_node_alive(f.seq);
      if (mn->target != 0 && mn->target != kNackAnyTarget) return;
      base_->probe_streak = 0;  // someone is alive and still needs data
      if (mn->target == kNackAnyTarget || mn->missing.empty())
        base_->summary_pending = true;
      else
        for (uint16_t seq : mn->missing)
          if (seq < total_chunks_) base_->retransmit.insert(seq);
      return;
    }
    case FrameType::Ack: {
      if (f.seq == 0 || f.seq > cfg_.nodes) return;
      if (rollout_phase_) {
        // Health reports ride Ack-type frames at payload sizes disjoint
        // from every legacy Ack encoding; anything that parses as one is
        // one. Outside the rollout phase they fall through to the legacy
        // path (and, authenticated, its rejection accounting) unchanged.
        if (const auto hr = parse_health(f)) {
          on_base_health(f.seq, *hr, now);
          return;
        }
      }
      if (auth_) {
        // An Ack only counts if its keyed tag binds (origin, version,
        // image CRC) under the pre-shared key: a spoofed completion for a
        // node that never verified the image is dropped here, and a
        // cross-image replay fails on the CRC binding.
        const auto tag = ack_auth_tag(f);
        if (!tag || *tag != ack_tag(cfg_.proto.auth_key, cfg_.proto.version,
                                    f.seq, blob_crc_)) {
          ++base_->stats.acks_rejected;
          record(now, 0, NetEventKind::AckRejected, f.seq, 0);
          return;
        }
      }
      ++base_->stats.acks_rx;
      // Mesh: only a NEW completion resets the probe backoff — repeated
      // re-acks of already-counted origins would otherwise keep the base
      // probing at full rate, and every probe detonates a network-wide
      // re-ack cascade.
      if (!mesh_ || !base_->acked[f.seq]) base_->probe_streak = 0;
      note_node_alive(f.seq);
      if (mesh_) {
        // A relayed Ack proves the relayer alive too (seq carries the
        // origin through the whole chain). The relayer field is outside
        // the tag, so its liveness grant is quota-gated like any other
        // unauthenticated claim.
        if (const auto ma = parse_mesh_ack(f))
          if (ma->relayer >= 1 && ma->relayer <= cfg_.nodes &&
              liveness_credit(ma->relayer, now))
            note_node_alive(ma->relayer);
      }
      if (!base_->acked[f.seq]) {
        base_->acked[f.seq] = true;
        ++base_->acked_count;
      }
      break;
    }
    case FrameType::Summary: {
      // Mesh: an overheard Summary relay names its sender — liveness.
      if (!mesh_) break;
      const auto info = parse_summary(f);
      if (info && info->has_sender && info->sender >= 1 &&
          info->sender <= cfg_.nodes && liveness_credit(info->sender, now))
        note_node_alive(info->sender);
      break;
    }
    default:
      break;  // the base ignores Data echoes from other nodes
  }
}

void NetSim::step_base(uint64_t now) {
  drain_rx(0, base_->deframer);
  emu::RadioPacketRef owner;  // keeps a shared frame alive while handled
  while (const Frame* f = base_->deframer.next(rx_frame_, owner))
    on_base_frame(*f, now);
  if (rollout_phase_) {
    step_base_rollout(now);
    return;
  }
  if (base_->acked_count + base_->abandoned_count >= cfg_.nodes) return;
  if (!can_tx(0, now)) return;  // one frame in the air at a time

  // The base's Summary: star announces bare geometry; mesh adds sender 0
  // at hop 0, seeding the hop-count flood; authenticated runs carry the
  // image MAC alongside the geometry.
  SummaryInfo geom{total_chunks_, static_cast<uint32_t>(blob_.size()),
                   blob_crc_, cfg_.proto.chunk_payload};
  if (auth_) {
    geom.has_mac = true;
    geom.image_mac = blob_mac_;
  }
  const auto summary_frame = [&] {
    return mesh_ ? make_mesh_summary(cfg_.proto.version, geom, 0, 0)
                 : make_summary(cfg_.proto.version, geom);
  };
  const auto send_chunk = [&](uint16_t seq) {
    mesh_send(0,
              data_frame(cfg_.proto.version, seq, blob_,
                         cfg_.proto.chunk_payload),
              now);
  };

  if (base_->summary_pending) {
    base_->summary_pending = false;
    ++base_->stats.summaries_tx;
    mesh_send(0, summary_frame(), now);
    return;
  }
  if (!base_->retransmit.empty()) {
    const uint16_t seq = *base_->retransmit.begin();
    base_->retransmit.erase(base_->retransmit.begin());
    ++base_->stats.retransmissions;
    record(now, 0, NetEventKind::BaseRetransmit, seq,
           static_cast<uint32_t>(base_->retransmit.size()));
    send_chunk(seq);
    return;
  }
  if (base_->cursor < total_chunks_) {
    ++base_->stats.data_tx;
    send_chunk(base_->cursor++);
    return;
  }
  // Idle with unacked nodes: re-probe with a Summary, backing off
  // exponentially until a Nack/Ack resets the streak.
  if (now >= base_->next_probe_at) {
    ++base_->stats.summaries_tx;
    record(now, 0, NetEventKind::BaseProbe, base_->probe_streak, 0);
    mesh_send(0, summary_frame(), now);
    base_->next_probe_at =
        now + backoff(cfg_.proto.probe_interval, base_->probe_streak);
    ++base_->probe_streak;
    // Bounded per-node retries: every straggler is charged one unanswered
    // probe; at the give-up bound the base abandons it (recording why)
    // and completes for the nodes that are alive.
    if (cfg_.proto.node_give_up_probes > 0) {
      for (size_t id = 1; id <= cfg_.nodes; ++id) {
        if (base_->acked[id] || base_->abandoned[id]) continue;
        if (++base_->probes_unanswered[id] < cfg_.proto.node_give_up_probes)
          continue;
        base_->abandoned[id] = true;
        ++base_->abandoned_count;
        const NodeAbortReason reason = abort_reason_of(*nodes_[id - 1]);
        record(now, 0, NetEventKind::NodeAbandoned,
               static_cast<uint32_t>(id), static_cast<uint32_t>(reason));
      }
    }
  }
}

void NetSim::node_send_nack(Node& n, uint64_t now) {
  const auto& st = machines_[n.id]->dev().image_store();
  std::vector<uint16_t>& missing = nack_scratch_;
  missing.clear();
  if (st.has_summary) {
    // Bound by the store's OWN geometry, not the sim-global chunk count:
    // a node assembling a (possibly forged) announcement with fewer chunks
    // than the base's image would otherwise index st.have past its end.
    for (uint16_t seq = 0;
         seq < st.total_chunks && missing.size() < kMaxNackList; ++seq)
      if (!st.have[seq]) missing.push_back(seq);
  }
  if (mesh_) {
    // Rotate away from a parent that stopped answering before asking
    // again; Nacks are addressed to the (possibly new) parent. A node
    // with no summary or no parent solicits with kNackAnyTarget — by
    // protocol that is only ever answered with a Summary relay, never
    // with Data, so it cannot start a duplicate-serving storm.
    if (n.parent != kNoParent && n.nacks_at_parent >= kParentChurnNacks)
      mesh_churn_parent(n, now);
    const uint16_t target =
        (st.has_summary && n.parent != kNoParent) ? n.parent : kNackAnyTarget;
    mesh_send(n.id,
              make_mesh_nack(cfg_.proto.version, n.id, missing, target, n.hop),
              now);
    if (target != kNackAnyTarget) ++n.nacks_at_parent;
    n.next_nack_at += mesh_jitter(n.id, n.stats.nacks_sent);
  } else {
    // No summary yet: an empty list asks the base to resend it.
    send_frame(n.id, make_nack(cfg_.proto.version, n.id, missing));
  }
  ++n.stats.nacks_sent;
  const uint32_t exp = backoff_exp(n.nack_streak);
  n.stats.backoff_max_exp = std::max(n.stats.backoff_max_exp, exp);
  out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::NackTx,
              static_cast<uint32_t>(missing.size()), exp);
  n.next_nack_at = now + backoff(cfg_.proto.nack_timeout, n.nack_streak) +
                   n.id * 3 * kByte;
  ++n.nack_streak;
}

// A heard Summary teaches hop counts: remember the sender's hop, adopt it
// as parent when that shortens our path to the base, and schedule our own
// rate-limited re-flood so the announcement keeps propagating outward.
void NetSim::mesh_note_summary(Node& n, uint16_t sender, uint16_t hop,
                               uint64_t now) {
  if (hop != kNoHop) n.nbr_hop[sender] = hop;
  const uint32_t cand = uint32_t(hop) + 1;
  if (cand < n.hop) {
    n.hop = static_cast<uint16_t>(cand);
    n.parent = sender;
    n.nacks_at_parent = 0;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ParentSelected,
                sender, n.hop);
    // Re-flood only on improvement: the announcement wave propagates once
    // per learned hop count and then the network goes quiet. Lost nodes
    // pull a re-announce with kNackAnyTarget instead of the base pushing
    // one forever — a perpetual relay flood would otherwise saturate the
    // channel and collide the very Acks the base is waiting for.
    mesh_schedule_summary_relay(n, now);
  }
}

void NetSim::mesh_schedule_summary_relay(Node& n, uint64_t now) {
  if (n.summary_relay_pending) return;
  if (n.last_summary_relay_at != 0 &&
      now - n.last_summary_relay_at < kSummaryRelayMin)
    return;
  n.summary_relay_pending = true;
  // Stagger by node id so one flood wave does not detonate as one
  // synchronized (and mutually colliding) volley of relays.
  n.summary_relay_at = now + (2 + 3ull * n.id) * kByte +
                       mesh_jitter(n.id, n.stats.summaries_relayed);
}

// Parent stopped answering: drop it from the neighbor table and adopt the
// best remaining known neighbor (min hop, ties to the lowest id — the map
// iterates ids in order). With no candidates the node falls back to
// kNackAnyTarget rediscovery. The node's own hop count is NOT recomputed
// here: it was learned from a real flood, and rebuilding it from stale
// neighbor entries inflates the gradient the Ack relays steer by.
void NetSim::mesh_churn_parent(Node& n, uint64_t now) {
  if (n.parent != kNoParent) n.nbr_hop.erase(n.parent);
  ++n.stats.parent_switches;
  n.nacks_at_parent = 0;
  uint16_t best = kNoParent;
  uint16_t best_hop = kNoHop;
  for (const auto& [id, h] : n.nbr_hop)
    if (h < best_hop) {
      best_hop = h;
      best = id;
    }
  n.parent = best;
  out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ParentSelected,
              best, n.hop);
}

// One mesh transmission opportunity (the caller verified carrier sense +
// radio idle). Priority: own Ack, then Ack relays (completion news keeps
// the base from probing), then peer serves, then Summary relays. Returns
// true if a frame went on the air.
bool NetSim::mesh_node_tx(Node& n, uint64_t now) {
  emu::ImageStore& st = machines_[n.id]->dev().image_store();

  if (rollout_phase_) {
    // Rollout traffic first: it is the critical path of this phase (the
    // legacy queues below are essentially drained by now).
    if (n.health_pending && now >= n.next_health_at) {
      node_send_health(n, now);
      return true;
    }
    if (!n.ctl_relay_q.empty()) {
      const auto [target, ci] = n.ctl_relay_q.front();
      n.ctl_relay_q.pop_front();
      mesh_send(n.id, make_control(cfg_.proto.version, target, ci), now);
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ControlRelayed,
                  ci.ctl_seq, static_cast<uint32_t>(ci.cmd));
      return true;
    }
    if (auto relay = n.health_relay.pop(now)) {
      auto& [origin, hr] = *relay;
      hr.has_relayer = true;
      hr.relayer = n.id;
      hr.hop = n.hop < 0xFF ? n.hop : 0xFF;
      mesh_send(n.id, make_health(cfg_.proto.version, origin, hr), now);
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::HealthRelayed,
                  origin, hr.hop);
      return true;
    }
  }

  if (n.ack_pending && st.verified) {
    n.ack_pending = false;
    mesh_send(n.id,
              auth_ ? make_mesh_ack(cfg_.proto.version, n.id, n.id, n.hop,
                                    ack_tag(cfg_.proto.auth_key,
                                            cfg_.proto.version, n.id,
                                            st.image_crc))
                    : make_mesh_ack(cfg_.proto.version, n.id, n.id, n.hop),
              now);
    ++n.stats.acks_sent;
    n.last_ack_at = now;
    // Periodic re-ack with exponential backoff: the origin is the retry
    // driver for its whole relay chain (a relayer that lost its upstream
    // slot gets another chance on the next re-ack). Overhearing our own
    // Ack being relayed confirms the chain and pushes the timer out.
    n.next_ack_at = now + backoff(kAckRepeatMin, n.ack_streak) +
                    mesh_jitter(n.id, n.ack_streak);
    ++n.ack_streak;
    return true;
  }

  if (const auto relay = n.ack_relay.pop(now)) {
    const auto [origin, tag] = *relay;
    mesh_send(n.id,
              auth_ ? make_mesh_ack(cfg_.proto.version, origin, n.id, n.hop,
                                    tag)
                    : make_mesh_ack(cfg_.proto.version, origin, n.id, n.hop),
              now);
    ++n.stats.acks_relayed;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::AckRelayed,
                origin, n.hop);
    return true;
  }

  while (!n.serve_q.empty() && now >= n.next_serve_at) {
    const uint16_t seq = n.serve_q.front();
    n.serve_q.pop_front();
    // Only chunks still marked are served: a Data frame for `seq` heard
    // since the request unmarks it (another holder already answered), and
    // only frame-CRC-verified chunks ever enter the store (st.have), so a
    // peer can never propagate bytes it did not verify. Whole-image
    // activation stays gated on the CRC-32 exactly as with base serving.
    if (seq >= st.total_chunks || !st.have[seq] ||
        seq >= n.serve_mark.size() || !n.serve_mark[seq])
      continue;
    n.serve_mark[seq] = 0;
    const Frame& data =
        data_frame(st.image_version, seq, st.image, st.chunk_payload);
    mesh_send(n.id, data, now);
    ++n.stats.chunks_served;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ChunkServed, seq,
                static_cast<uint32_t>(n.serve_q.size()));
    n.next_serve_at =
        now + (kFrameOverhead + data.payload.size()) * kByte + kServeGap;
    return true;
  }

  if (n.summary_relay_pending && now >= n.summary_relay_at) {
    if (!st.has_summary || n.hop == kNoHop) {
      n.summary_relay_pending = false;  // nothing credible to announce
      return false;
    }
    n.summary_relay_pending = false;
    n.last_summary_relay_at = now;
    // Relays carry the announced MAC along with the geometry, so the
    // authenticated Summary propagates hop by hop unmodified.
    SummaryInfo rs{st.total_chunks, st.image_bytes, st.image_crc,
                   st.chunk_payload};
    rs.has_mac = st.has_mac;
    rs.image_mac = st.image_mac;
    mesh_send(n.id, make_mesh_summary(cfg_.proto.version, rs, n.id, n.hop),
              now);
    ++n.stats.summaries_relayed;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::SummaryRelayed,
                n.hop, 0);
    return true;
  }
  return false;
}

void NetSim::on_node_frame(Node& n, const Frame& f, uint64_t now) {
  emu::ImageStore& st = machines_[n.id]->dev().image_store();
  ++n.stats.frames_rx;
  if (f.version != cfg_.proto.version) return;

  auto progress = [&] {
    // Useful traffic: reset the Nack backoff so the next timeout is short.
    n.nack_streak = 0;
    n.nacks_at_parent = 0;  // mesh: the current parent is delivering
    n.next_nack_at = now + cfg_.proto.nack_timeout + n.id * 3 * kByte;
    n.last_progress_at = now;
  };

  // Mesh transmissions are carrier-sensed: the Ack waits for the node's
  // next clear TX slot instead of going out blind. A star Ack goes at once;
  // authenticated runs replace its empty legacy payload with the keyed tag
  // the base verifies.
  auto ack = [&] {
    if (mesh_) {
      n.ack_pending = true;
      return;
    }
    send_frame(n.id,
               auth_ ? make_auth_ack(cfg_.proto.version, n.id,
                                     ack_tag(cfg_.proto.auth_key,
                                             cfg_.proto.version, n.id,
                                             st.image_crc))
                     : Frame{FrameType::Ack, cfg_.proto.version, n.id, {}});
    ++n.stats.acks_sent;
    n.last_ack_at = now;
  };

  auto store_chunk = [&](uint16_t seq, std::span<const uint8_t> payload) {
    const size_t cp = st.chunk_payload;
    if (seq >= st.total_chunks) return;
    const size_t expect = (seq + 1 == st.total_chunks)
                              ? st.image_bytes - size_t(seq) * cp
                              : cp;
    if (payload.size() != expect) return;
    if (st.have[seq]) {
      ++n.stats.duplicate_chunks;
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::DuplicateChunk,
                  seq, 0);
      return;
    }
    std::copy(payload.begin(), payload.end(), st.image.begin() + seq * cp);
    st.have[seq] = 1;
    ++st.chunks_have;
    ++st.writes;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ChunkStored, seq,
                st.chunks_have);
    progress();
    if (st.chunks_have != st.total_chunks) return;

    // Whole image assembled: activate only on a verified checksum (and, in
    // authenticated runs, a verified MAC — the CRC gates transfer
    // integrity, the keyed tag gates authenticity).
    if (crc32(st.image) == st.image_crc) {
      if (auth_ && (!st.has_mac || siphash24(cfg_.proto.auth_key, st.image) !=
                                       st.image_mac)) {
        // The bytes arrived intact but the announced MAC does not bind
        // them under the pre-shared key: a forged image. Never activate;
        // blacklist the (crc, mac) pair so its re-announcements are
        // ignored instead of re-downloaded forever, erase, re-solicit.
        ++n.stats.auth_rejects;
        out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::AuthReject,
                    n.id, st.image_crc & 0xFFFF);
        n.reject_ring[n.reject_count % n.reject_ring.size()] = {st.image_crc,
                                                                st.image_mac};
        ++n.reject_count;
        st.erase();
        n.serve_q.clear();
        n.serve_mark.clear();
        n.nack_streak = 0;
        n.next_nack_at = now + n.id * 3 * kByte;
        return;
      }
      st.verified = true;
      ++complete_count_;
      n.stats.complete = true;
      n.stats.completion_cycle = now;
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::Complete, n.id,
                  st.image_crc & 0xFFFF);
      ack();
    } else {
      // Frame CRCs all passed yet the image does not verify (16-bit CRC
      // collision): discard everything and re-request; never activate.
      ++n.stats.checksum_failures;
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ChecksumFail,
                  n.id, 0);
      std::fill(st.have.begin(), st.have.end(), 0);
      st.chunks_have = 0;
      n.nack_streak = 0;
      n.next_nack_at = now + n.id * 3 * kByte;
    }
  };

  switch (f.type) {
    case FrameType::Summary: {
      ++n.stats.summaries_rx;
      const auto info = parse_summary(f);
      if (!info) return;
      if (mesh_ && info->has_sender) {
        // The sender id is attacker-controlled: range-check it before it
        // keys the neighbor-hop table.
        if (info->sender > cfg_.nodes) return;
        mesh_note_summary(n, info->sender, f.seq, now);
      }
      if (auth_) {
        // Authenticated runs ignore announcements without a MAC (they
        // could never pass the install gate, so downloading is pure
        // waste) and any (crc, mac) pair already rejected by it.
        if (!info->has_mac) return;
        const size_t seen = std::min(n.reject_count, n.reject_ring.size());
        for (size_t i = 0; i < seen; ++i)
          if (n.reject_ring[i] ==
              std::make_pair(info->image_crc, info->image_mac))
            return;
      }
      if (st.verified) {
        // Base is probing for a lost Ack — repeat it, rate-limited. Mesh:
        // only a probe arriving from upstream (closer to the base) earns a
        // re-ack; lateral/downstream relays would only amplify traffic.
        const bool upstream =
            !mesh_ || !info->has_sender || f.seq < n.hop;
        if (upstream && now - n.last_ack_at >= kAckRepeatMin) ack();
        return;
      }
      if (st.has_summary &&
          (info->image_crc != st.image_crc ||
           info->total_chunks != st.total_chunks ||
           info->image_bytes != st.image_bytes ||
           info->chunk_payload != st.chunk_payload ||
           (auth_ && info->image_mac != st.image_mac))) {
        // A different image than the one the store holds progress for
        // (e.g. a new version after a long outage): the stale partial
        // transfer is useless — erase and start over. Anti-wedge guard:
        // only displace the current transfer once it has made no progress
        // for a full backed-off Nack period — a live transfer must not be
        // erasable by a single conflicting (possibly forged) announcement.
        const uint64_t stall = cfg_.proto.nack_timeout
                               << (cfg_.proto.backoff_cap_exp + 1);
        if (now - n.last_progress_at < stall) return;
        st.erase();
        n.serve_q.clear();
        n.serve_mark.clear();
      }
      if (!st.has_summary) {
        // Sanity-check the announced geometry before allocating: every
        // field is attacker-controlled, and a single frame must never
        // command an allocation beyond kMaxImageBytes.
        const size_t cp = info->chunk_payload;
        if (cp == 0 || cp > kMaxPayload || info->total_chunks == 0 ||
            info->image_bytes == 0 || info->image_bytes > kMaxImageBytes ||
            (info->image_bytes + cp - 1) / cp != info->total_chunks)
          return;
        st.image_version = f.version;
        st.total_chunks = info->total_chunks;
        st.image_bytes = info->image_bytes;
        st.image_crc = info->image_crc;
        st.has_mac = info->has_mac;
        st.image_mac = info->image_mac;
        st.chunk_payload = info->chunk_payload;
        st.image.assign(info->image_bytes, 0);
        st.have.assign(info->total_chunks, 0);
        st.chunks_have = 0;
        ++st.writes;
        out_.record(now, static_cast<uint8_t>(n.id),
                    NetEventKind::SummaryStored, info->total_chunks,
                    info->image_crc & 0xFFFF);
        st.has_summary = true;
        auto early = std::move(n.early);
        n.early.clear();
        for (auto& [seq, payload] : early) store_chunk(seq, payload);
        if (!st.verified) progress();
      } else {
        // A probe while we are mid-transfer: answer promptly (staggered by
        // node id) with what is still missing instead of waiting out the
        // current backoff.
        n.nack_streak = 0;
        n.next_nack_at = std::min<uint64_t>(n.next_nack_at,
                                            now + (2 + 4ull * n.id) * kByte);
      }
      break;
    }
    case FrameType::Data: {
      ++n.stats.data_rx;
      // Trickle suppression: a chunk just heard on the air is a chunk the
      // neighborhood no longer needs from us — unmark any queued serve.
      if (mesh_ && f.seq < n.serve_mark.size()) n.serve_mark[f.seq] = 0;
      if (st.verified) return;
      if (!st.has_summary) {
        // Stash pre-Summary chunks so a lost Summary doesn't waste the
        // whole first pass; integrated once the geometry is known.
        if (f.payload.size() <= kMaxPayload && n.early.size() < kMaxEarlyChunks)
          n.early.emplace(f.seq, f.payload);
        progress();
        return;
      }
      store_chunk(f.seq, f.payload);
      break;
    }
    case FrameType::Nack: {
      if (!mesh_) break;  // star receivers ignore overheard Nacks
      const auto mn = parse_mesh_nack(f);
      if (!mn) break;
      if (mn->target == n.id && st.has_summary) {
        // A child asked us to serve: queue every requested chunk we hold
        // (CRC-verified by construction — only deframed, CRC-valid Data
        // ever enters the store). serve_mark dedups requests from
        // multiple children and implements Trickle suppression.
        if (n.serve_mark.size() != st.total_chunks)
          n.serve_mark.assign(st.total_chunks, 0);
        bool lacking = false;
        for (uint16_t seq : mn->missing) {
          if (seq >= st.total_chunks) continue;
          if (!st.have[seq]) {
            lacking = true;
            continue;
          }
          if (!n.serve_mark[seq]) {
            n.serve_mark[seq] = 1;
            n.serve_q.push_back(seq);
          }
        }
        if (mn->missing.empty()) mesh_schedule_summary_relay(n, now);
        if (lacking && !st.verified) {
          // Demand-driven pull: a child wants chunks we do not hold yet —
          // shorten our own next Nack so the pipeline keeps moving.
          n.next_nack_at =
              std::min<uint64_t>(n.next_nack_at, now + (2 + 4ull * n.id) * kByte);
        }
      } else if (mn->target == kNackAnyTarget) {
        // A lost node (fresh boot, rebooted, or churned out of parents)
        // wants the Summary re-announced. Only Summary relays answer —
        // never Data — so the response is one rate-limited frame per
        // neighbor, not a storm.
        mesh_schedule_summary_relay(n, now);
      }
      break;
    }
    case FrameType::Ack: {
      if (rollout_phase_) {
        // Mesh: health reports are relayed upstream exactly like mesh
        // Acks — the origin's payload core and tag are carried verbatim,
        // only the relayer/hop fields (outside the tag) are rewritten.
        if (const auto hr = parse_health(f)) {
          const uint16_t origin = f.seq;
          if (!mesh_ || origin == 0 || origin > cfg_.nodes) break;
          if (origin == n.id) break;  // our own report echoing back
          if (auth_ &&
              (!hr->has_tag ||
               hr->tag != health_tag(cfg_.proto.auth_key, cfg_.proto.version,
                                     origin, health_core(*hr))))
            break;
          if (!hr->has_relayer) break;
          // Heard from downstream (or from a node that lost its hop —
          // relayed hops are clamped to 255 < kNoHop): carry it toward the
          // base. Otherwise an upstream node already carries it.
          if (hr->hop > n.hop)
            n.health_relay.offer(origin, *hr, now);
          else
            n.health_relay.suppress(origin, now);
          break;
        }
      }
      if (!mesh_) break;  // star receivers ignore overheard Acks
      const auto ma = parse_mesh_ack(f);
      if (!ma) break;
      const uint16_t origin = f.seq;
      // Origin and relayer are attacker-controlled: range-check them
      // before they key the neighbor or relay tables.
      if (origin == 0 || origin > cfg_.nodes || ma->relayer > cfg_.nodes)
        break;
      if (auth_) {
        // Verify the origin's tag before learning anything from the
        // frame: a forged Ack must not poison the hop gradient or earn a
        // relay slot. Verification needs the announced image CRC, so a
        // node that holds no Summary yet ignores overheard Acks.
        if (!st.has_summary || !ma->has_tag ||
            ma->tag != ack_tag(cfg_.proto.auth_key, cfg_.proto.version,
                               origin, st.image_crc))
          break;
      }
      if (origin == n.id) {
        // Someone is relaying our own Ack: the chain is carrying it —
        // drop any pending repeat and fall back to the slow lane.
        n.ack_pending = false;
        n.next_ack_at =
            std::max(n.next_ack_at,
                     now + backoff(kAckRepeatMin, cfg_.proto.backoff_cap_exp));
        break;
      }
      if (n.hop == kNoHop) break;
      // Relays double as gradient maintenance: in the end-game no
      // Summaries flow, so overheard relayer hops are the only thing
      // keeping the hop counts (and thus the relay direction) fresh.
      if (ma->hop < 0xFF) {
        n.nbr_hop[ma->relayer] = ma->hop;
        if (uint16_t(ma->hop) + 1 < n.hop)
          n.hop = static_cast<uint16_t>(ma->hop + 1);
        if (n.parent == kNoParent) n.parent = ma->relayer;
      }
      // Heard from downstream: forward the origin's completion toward the
      // base. Otherwise an upstream node is already carrying it, or a
      // sibling relayed it first toward the same parents — ours would be
      // redundant.
      if (ma->hop > n.hop)
        n.ack_relay.offer(origin, ma->has_tag ? ma->tag : 0, now);
      else
        n.ack_relay.suppress(origin, now);
      break;
    }
    case FrameType::Control: {
      if (!rollout_phase_) break;  // ignored outside a rollout
      const auto ci = parse_control(f);
      if (!ci) break;
      const uint16_t target = f.seq;
      if (auth_) {
        // Verify before acting OR relaying: a forged/bitflipped Control
        // must neither reboot a node nor earn a flood slot.
        if (!ci->has_tag ||
            ci->tag != control_tag(cfg_.proto.auth_key, cfg_.proto.version,
                                   static_cast<uint8_t>(ci->cmd), target,
                                   ci->ctl_seq, ci->image_crc))
          break;
      }
      if (mesh_ && target != n.id && ci->ctl_seq > n.last_ctl_relayed) {
        // Flood relay (verbatim, tag included), once per ctl_seq.
        n.last_ctl_relayed = ci->ctl_seq;
        n.ctl_relay_q.push_back({target, *ci});
      }
      if (target != n.id) break;
      if (ci->ctl_seq <= n.last_ctl_seq) break;  // stale replay
      n.last_ctl_seq = ci->ctl_seq;
      on_node_control(n, *ci, now);
      break;
    }
    default:
      break;  // receivers ignore Data echoes of unknown versions etc.
  }
}

// The hostile node's quantum (DESIGN.md §11): no honest protocol runs.
// Every overheard byte feeds the attached model, which then gets one raw
// transmission opportunity — its bytes bypass the frame encoder entirely,
// so arbitrary streams (garbage, truncations, length lies, forged frames,
// replays) go on the air. In mesh mode the transmission is noted for the
// collision log exactly like an honest one (a hostile frame can be
// captured over, and collides, like any other).
void NetSim::step_hostile(Node& n, uint64_t now) {
  auto& dev = machines_[n.id]->dev();
  rx_scratch_.clear();
  dev.take_rx(rx_scratch_);
  if (!hostile_) return;
  if (!rx_scratch_.empty()) hostile_->observe(rx_scratch_);
  if (radio_busy(n.id)) return;  // even the attacker's radio serializes frames
  const bool air_clear = now >= air_busy_until_[n.id];
  hostile_tx_.clear();
  if (!hostile_->emit(now, air_clear, hostile_tx_) || hostile_tx_.empty())
    return;
  if (hostile_tx_.size() > kMaxHostilePacket)
    hostile_tx_.resize(kMaxHostilePacket);
  machines_[n.id]->dev().radio_send(hostile_tx_);
  if (mesh_)
    out_.tx_notes.push_back({n.id, now, now + hostile_tx_.size() * kByte});
}

void NetSim::step_node(Node& n, uint64_t now) {
  if (cfg_.hostile_node == n.id) {
    step_hostile(n, now);
    return;
  }
  drain_rx(n.id, n.deframer);
  // `owner` keeps a shared frame alive while it is handled: the handler
  // may power the node down, which resets its deframer.
  emu::RadioPacketRef owner;
  while (const Frame* f = n.deframer.next(rx_frame_, owner))
    on_node_frame(n, *f, now);
  if (n.down) return;  // a Control-commanded activation reboot fired
  if (rollout_phase_) {
    step_node_rollout(n, now);
    if (n.down) return;  // a scripted trial behavior took the node down
  }
  const bool verified = machines_[n.id]->dev().image_store().verified;
  if (mesh_) {
    // Mesh: one carrier-sensed transmission opportunity per quantum.
    // Verified nodes stay on the air as servers and relays — that is what
    // flattens the per-node cost: the base serves hop-1 once, and every
    // completed layer feeds the next.
    if (!rollout_phase_ && verified && now >= n.next_ack_at)
      n.ack_pending = true;
    if (!can_tx(n.id, now) || mesh_node_tx(n, now)) return;
  }
  // During the rollout phase the transfer machinery quiesces: health
  // reports and Controls own the air.
  if (rollout_phase_ || verified) return;
  if (now >= n.next_nack_at) node_send_nack(n, now);
}

void NetSim::power_down(Node& n, uint64_t now, uint64_t down_bytes) {
  n.deframer = Deframer{};
  n.early.clear();
  n.down = true;
  n.up_at = now + down_bytes * kByte;
  n.overruns_at_down = machines_[n.id]->dev().rx_overruns();
  // While down the node neither hears nor is heard: both link directions
  // are forced into an outage window (consumes no medium randomness).
  out_.outages.push_back({kAnyNode, n.id, now, n.up_at});
  out_.outages.push_back({n.id, kAnyNode, now, n.up_at});
}

void NetSim::node_lifecycle(Node& n, uint64_t now) {
  auto& dev = machines_[n.id]->dev();
  emu::ImageStore& st = dev.image_store();

  if (n.down) {
    if (now < n.up_at) return;
    // Power-up: anything that landed while the radio was off is gone, the
    // volatile protocol state starts fresh (the mesh node rejoins the
    // flood from scratch), and the transfer resumes from the persisted
    // chunk bitmap (empty after a cold, store-wiping crash) against
    // whichever neighbor answers first. The radio is not synced while the
    // node is down, so this quantum's sync counted every overrun of the
    // outage.
    n.overruns_while_down += dev.rx_overruns() - n.overruns_at_down;
    dev.flush_rx();
    static_cast<NodeVolatile&>(n) = NodeVolatile{};
    n.down = false;
    ++n.stats.reboots;
    n.stats.resumed_chunks = st.chunks_have;
    n.next_nack_at = now + cfg_.proto.nack_timeout / 2 + n.id * 3 * kByte;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::NodeRebooted,
                st.chunks_have, st.verified);
    if (rollout_phase_) {
      // The persisted slot machine (trial flags, rollback_report_pending)
      // decides what this boot means.
      if (n.trial_pending && st.trial_active) {
        // The sanctioned trial boot: probation opens now.
        n.trial_pending = false;
        n.trial_running = true;
        n.probation_end = now + cfg_.rollout.probation_bytes * kByte;
        const TrialBehavior& b = behaviors_[n.id];
        n.behavior_at =
            now + cfg_.rollout.probation_bytes * b.at_pct / 100 * kByte;
        if (mesh_) {
          // Deliberate fast reboot, not a power fault: the mesh gradient
          // is carried across it so the health report can flow at once.
          n.hop = n.saved_hop;
          n.parent = n.saved_parent;
        }
      } else {
        n.trial_pending = false;
        if (st.rollback_report_pending) {
          // The store auto-rolled-back at power-up (trial interrupted by
          // a reboot); the volatile failure report died with it — rebuild
          // and resend until the base acks with a Rollback command.
          node_queue_health(n, kHealthRolledBack | kHealthBootInterrupted,
                            kReportRetries, now);
        }
      }
    }
    return;
  }

  if (!n.crash_plan.empty() &&
      st.chunks_have >= n.crash_plan.front().at_chunks) {
    const NodeCrash ev = n.crash_plan.front();
    n.crash_plan.pop_front();
    ++n.stats.crashes;
    out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::NodeCrashed,
                st.chunks_have, ev.wipe_store);
    dev.reboot();  // power fails: every volatile device state dies now
    if (rollout_phase_) {
      if (dev.take_store_reformatted())
        out_.record(now, static_cast<uint8_t>(n.id),
                    NetEventKind::StoreReformatted, n.id, 0);
      if (dev.last_boot() == emu::BootOutcome::TrialRollback)
        out_.record(now, static_cast<uint8_t>(n.id),
                    NetEventKind::TrialRolledBack, n.id,
                    static_cast<uint32_t>(RollbackWhy::BootInterrupted));
    }
    if (ev.wipe_store) {
      if (st.verified) --complete_count_;  // a cold crash wipes a completion
      st.erase();
    }
    power_down(n, now, ev.down_bytes);
  }
}

// Cycle at which received bytes can next let the deframer decide its head
// frame candidate (kNever if too few bytes are buffered or in flight). The
// deframer looks ahead over the bytes already scheduled, so a candidate
// whose length byte is known is due at its last byte, not at its header.
uint64_t NetSim::rx_ready_at(const Node& n) const {
  const emu::DeviceHub& dev = machines_[n.id]->dev();
  // The common case after a drain: the deframer and the radio hold no
  // byte and a whole frame is next in the air. The look-ahead over it
  // reaches its last byte, read here off the packet's tag and size.
  uint64_t begin = 0;
  if (n.deframer.empty())
    if (const emu::RadioPacket* p = dev.rx_next_delivery(begin);
        p && p->whole_frame_tag())
      return begin + p->bytes.size() * kByte;
  const auto at = dev.rx_arrival(
      n.deframer.need([&dev](size_t i) { return dev.peek_unread(i); }));
  return at ? *at : kNever;
}

// An honest receiver's step changes something only at the earliest of two
// groups of times; in any other quantum it is a no-op, so the receiver
// sleeps until the first quantum edge at or after that time.
//
// Times that act whatever the carrier does: a received byte lets the
// deframer decide its head frame candidate; the radio completes a
// transmission; the node powers up or has crossed its next crash threshold
// (checked at the start of the step after the chunk that crossed it); a
// trial's scripted behavior or probation end; the mesh re-ack timer (it
// sets ack_pending ahead of carrier sense, and a later overheard relay of
// the node's own Ack may push it out); and the star Nack and health timers
// (a star sends without carrier sense).
//
// Mesh TX work that waits for a clear carrier: the earliest time some
// pending work is due, the Nack and health timers included (a non-empty
// relay or Control queue counts as due at once even if every entry in it
// is stale, because popping it later can keep an entry the time-dependent
// checks would have dropped), but no earlier than the carrier-sense claim
// and the radio's own transmission end. Claims only grow, so a wake that finds the carrier still busy is
// merely early: the step is a no-op and the deadline is taken again.
//
// The hostile node's model draws on every transmission opportunity, so it
// wakes every quantum.
uint64_t NetSim::next_wake(const Node& n, uint64_t now) const {
  const uint64_t next = now + kByte;
  if (n.id == cfg_.hostile_node) return next;
  if (n.down) return std::max(next, quantum_at_or_after(n.up_at));
  const emu::DeviceHub& dev = machines_[n.id]->dev();
  const emu::ImageStore& st = dev.image_store();
  if (!n.crash_plan.empty() && st.chunks_have >= n.crash_plan.front().at_chunks)
    return next;
  const std::optional<uint64_t> tx_done = dev.tx_done_at();
  uint64_t at = std::min(rx_ready_at(n), tx_done.value_or(kNever));
  if (n.trial_running) {
    at = std::min(at, n.probation_end);
    if (!n.behavior_fired) at = std::min(at, n.behavior_at);
  }
  // The Nack timer (dissemination) or the health timer (rollout).
  uint64_t timer = kNever;
  if (rollout_phase_) {
    if (n.health_pending) timer = n.next_health_at;
  } else if (!st.verified) {
    timer = n.next_nack_at;
  }
  if (!mesh_) return std::max(next, quantum_at_or_after(std::min(at, timer)));

  if (!rollout_phase_ && st.verified && !n.ack_pending)
    at = std::min(at, n.next_ack_at);
  uint64_t due = timer;
  if ((n.ack_pending && st.verified) || !n.ack_relay.queue.empty() ||
      (rollout_phase_ &&
       (!n.ctl_relay_q.empty() || !n.health_relay.queue.empty())))
    due = now;
  if (!n.serve_q.empty()) due = std::min(due, n.next_serve_at);
  if (n.summary_relay_pending) due = std::min(due, n.summary_relay_at);
  if (due != kNever)
    at = std::min(at, std::max({due, air_busy_until_[n.id],
                                tx_done.value_or(0)}));
  return std::max(next, quantum_at_or_after(at));
}

NodeAbortReason NetSim::abort_reason_of(const Node& n) const {
  if (!base_->heard[n.id]) return NodeAbortReason::NeverHeard;
  const bool complete = machines_[n.id]->dev().image_store().verified;
  if (n.stats.auth_rejects > 0 && !complete) return NodeAbortReason::AuthFail;
  if (n.stats.checksum_failures > 0 && !complete)
    return NodeAbortReason::ChecksumFail;
  return NodeAbortReason::TimedOut;
}

bool NetSim::loop_done() const {
  // Rollout phase: the orchestrator reached its terminal state.
  // Dissemination: every node acknowledged, or every straggler abandoned
  // after its bounded retries.
  if (rollout_phase_) return ro_->phase == Rollout::Phase::Done;
  return base_->acked_count + base_->abandoned_count >= cfg_.nodes;
}

// The quantum loop shared by disseminate() and rollout() (DESIGN.md §9).
// Returns false when max_cycles ran out before the phase terminated.
bool NetSim::run_loop() {
  while (!loop_done()) {
    t_ += kByte;
    if (t_ > cfg_.max_cycles) return false;
    // Deliver due packets first (completing transmissions hand packets to
    // the medium with latency >= one byte time, so nothing broadcast in
    // this quantum is consumable before the next — no node's step can
    // observe another's transmission of the same quantum).
    medium_.flush(t_);
    // Fresh bytes can only bring a receiver's deframer deadline forward,
    // and only if they start arriving before it: they queue behind every
    // byte already scheduled, so a decision they complete comes later.
    for (const Medium::Handoff& h : medium_.flushed_to()) {
      if (h.to == 0 || nodes_[h.to - 1]->down) continue;
      const uint64_t wake = due_.wake(h.to - 1);
      if (quantum_at_or_after(h.begin + kByte) >= wake) continue;
      const uint64_t at = quantum_at_or_after(rx_ready_at(*nodes_[h.to - 1]));
      if (at < wake) due_.set(h.to - 1, at);
    }
    // Devices advance in machine-id order, so TX completions reach the
    // medium (and the trace) base first, then due receivers by id. Each
    // due receiver runs its lifecycle and protocol step right after its
    // sync and goes back into the due set with its new deadline; what it
    // produces for others waits in the outbox. A step never moves another
    // receiver's deadline (nothing it sends is heard before the next
    // flush), so taking the due receivers out first keeps the order. No
    // node runs guest code here, so a radio-only sync advances each one.
    machines_[0]->dev().sync_radio(t_);
    due_ids_.clear();
    due_.take_due(t_, due_ids_);
    wake_entries_ += due_ids_.size();
    for (const uint32_t i : due_ids_) {
      Node& n = *nodes_[i];
      ++receiver_steps_;
      machines_[n.id]->dev().sync_radio(t_);
      node_lifecycle(n, t_);
      if (!n.down) step_node(n, t_);
      due_.set(i, next_wake(n, t_));
    }
    // Receivers' transmission starts first, so the base defers to node
    // frames already on the air; then the base steps; then the receivers'
    // trace events and outage windows (first consulted by the next
    // quantum's broadcasts) land in node-id order.
    for (const Outbox::TxNote& tn : out_.tx_notes)
      apply_tx_note(tn.from, tn.start, tn.done);
    step_base(t_);
    for (const NetTraceEvent& e : out_.events)
      record(e.cycle, e.node, e.kind, e.a, e.b);
    for (const LinkOutage& o : out_.outages) medium_.add_outage(o);
    out_.tx_notes.clear();
    out_.events.clear();
    out_.outages.clear();
  }
  return true;
}

DisseminationResult NetSim::disseminate() {
  DisseminationResult res;
  const bool within_budget = run_loop();
  finish_dissem(res, !within_budget);
  return res;
}

void NetSim::finish_dissem(DisseminationResult& res, bool budget_exhausted) {
  res.total_chunks = total_chunks_;
  res.image_crc = blob_crc_;
  res.image_bytes = static_cast<uint32_t>(blob_.size());
  res.budget_exhausted = budget_exhausted;
  res.all_acked = base_->acked_count == cfg_.nodes;
  res.aborted = !res.all_acked;
  res.cycles = t_;
  // Receivers the wake schedule left asleep have not synced their radios
  // since their last step: bring every one to the last executed quantum so
  // the received-byte counters cover it. No frame can complete in that
  // catch-up (it would have woken the node), so its deframer is current.
  const uint64_t last = budget_exhausted ? t_ - kByte : t_;
  res.medium = medium_.stats();
  res.nodes.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = *nodes_[i];
    auto& dev = machines_[n.id]->dev();
    dev.sync(last);
    const emu::ImageStore& st = dev.image_store();
    n.stats.crc_drops = n.deframer.crc_errors();
    n.stats.bytes_rx = dev.rx_delivered();
    n.stats.rx_overruns = dev.rx_overruns();
    n.stats.complete = st.verified;  // a cold crash can wipe a completion
    n.stats.store_writes = st.writes;
    if (mesh_) n.stats.hop = n.hop;
    n.stats.abandoned = base_->abandoned[n.id];
    if (res.aborted && !base_->acked[n.id]) {
      // Per-node abort reason instead of one global count: one Abort
      // event per node the base never heard a verified install from.
      n.stats.abort_reason = abort_reason_of(n);
      record(t_, static_cast<uint8_t>(n.id), NetEventKind::Abort,
             n.id, static_cast<uint32_t>(n.stats.abort_reason));
    }
    res.nodes[i] = n.stats;
  }
  base_->stats.nodes_abandoned =
      static_cast<uint32_t>(base_->abandoned_count);
  res.base = base_->stats;
  res.complete_count = complete_count_;
  res.abandoned_count = base_->abandoned_count;
  res.trace_digest = trace_digest_;
  res.trace_events = trace_count_;
  res.receiver_steps = receiver_steps_;
}

// --- Staged rollout (DESIGN.md §12) -----------------------------------------

void NetSim::set_initial_image(std::vector<uint8_t> blob, uint8_t version) {
  initial_blob_ = std::move(blob);
  initial_crc_ = crc32(initial_blob_);
  initial_version_ = version;
  for (size_t id = 1; id <= cfg_.nodes; ++id) {
    emu::ImageStore& st = machines_[id]->dev().image_store();
    st.slots[0].state = emu::SlotState::Confirmed;
    st.slots[0].version = version;
    st.slots[0].crc = initial_crc_;
    st.slots[0].image = initial_blob_;
    st.active_slot = 0;
    st.trial_active = false;
    st.trial_boot_pending = false;
  }
}

void NetSim::set_trial_behavior(uint16_t node, const TrialBehavior& b) {
  if (node >= 1 && node <= cfg_.nodes) behaviors_[node] = b;
}

const emu::ImageStore& NetSim::node_store(size_t node) const {
  return machines_.at(node)->dev().image_store();
}

RolloutResult NetSim::rollout() {
  RolloutResult rr;
  const bool dissem_ok = run_loop();
  finish_dissem(rr.dissem, !dissem_ok);
  if (dissem_ok) {
    // The deadlines carry over: at the switch no trial runs and no health
    // report or Control is queued, so the rollout rule has no term the
    // dissemination deadline missed (it only loses the Nack and re-ack
    // timers, which makes some wakes early).
    begin_rollout();
    rollout_phase_ = true;
    const bool rollout_ok = run_loop();
    rollout_phase_ = false;
    rr.budget_exhausted = !rollout_ok;
  } else {
    rr.budget_exhausted = true;
  }
  finish_rollout(rr);
  return rr;
}

void NetSim::begin_rollout() {
  ro_ = std::make_unique<Rollout>();
  ro_->state.assign(cfg_.nodes + 1, Rollout::M::Idle);
  ro_->tries.assign(cfg_.nodes + 1, 0);
  ro_->next_cmd_at.assign(cfg_.nodes + 1, 0);
  ro_->ack_rollback.assign(cfg_.nodes + 1, false);
  ro_->nstats.assign(cfg_.nodes + 1, NodeRolloutStats{});
  // Only dissemination-complete nodes are upgrade candidates (they hold a
  // verified copy of the new image); abandoned stragglers and the hostile
  // node stay on their current image.
  for (uint16_t id = 1; id <= cfg_.nodes; ++id) {
    if (cfg_.hostile_node == id) continue;
    if (!node_complete(id)) continue;
    ro_->members.push_back(id);
    ro_->nstats[id].member = true;
  }
}

void NetSim::enter_rollback_all(uint64_t now) {
  Rollout& ro = *ro_;
  ro.phase = Rollout::Phase::RollbackAll;
  ro.halted = true;
  ro.wave_open = false;
  record(now, 0, NetEventKind::RolloutHalted, ro.failures,
         cfg_.rollout.failure_budget);
  for (uint16_t id : ro.members) {
    switch (ro.state[id]) {
      case Rollout::M::Confirmed:
      case Rollout::M::Activating:
      case Rollout::M::AwaitConfirm:
      case Rollout::M::GivenUp:  // second chance: it may be back by now
        ro.state[id] = Rollout::M::RollingBack;
        ro.tries[id] = 0;
        ro.next_cmd_at[id] = now;
        break;
      default:
        break;  // Idle never upgraded; Failed is already back on old
    }
  }
}

void NetSim::base_send_control(uint16_t target, ControlCmd cmd, uint64_t now) {
  ControlInfo ci;
  ci.cmd = cmd;
  ci.ctl_seq = ++ro_->ctl_seq;
  ci.image_crc = blob_crc_;
  if (auth_) {
    ci.has_tag = true;
    ci.tag = control_tag(cfg_.proto.auth_key, cfg_.proto.version,
                         static_cast<uint8_t>(cmd), target, ci.ctl_seq,
                         ci.image_crc);
  }
  mesh_send(0, make_control(cfg_.proto.version, target, ci), now);
  record(now, 0, NetEventKind::ControlTx, static_cast<uint32_t>(cmd), target);
}

void NetSim::step_base_rollout(uint64_t now) {
  Rollout& ro = *ro_;
  if (ro.phase == Rollout::Phase::Done) return;

  if (ro.phase == Rollout::Phase::Waves) {
    if (ro.failures > cfg_.rollout.failure_budget) {
      // Budget exceeded — halt immediately (even mid-wave) and drive every
      // upgraded member back to the previous image.
      enter_rollback_all(now);
    } else {
      if (ro.wave_open) {
        bool done = true;
        bool clean = true;
        for (size_t i = ro.wave_begin; i < ro.wave_end; ++i) {
          const Rollout::M s = ro.state[ro.members[i]];
          if (s == Rollout::M::Activating || s == Rollout::M::AwaitConfirm)
            done = false;
          if (s != Rollout::M::Confirmed) clean = false;
        }
        if (done) {
          ro.wave_open = false;
          if (clean) ++ro.waves_promoted;
        }
      }
      if (!ro.wave_open) {
        if (ro.next_member >= ro.members.size()) {
          ro.phase = Rollout::Phase::Done;
          record(now, 0, NetEventKind::RolloutDone, ro.confirmed,
                 ro.rolled_back);
          return;
        }
        // The health gate is the wave promoter: the next wave only opens
        // once every member of the previous one reached a terminal state.
        ro.wave_begin = ro.next_member;
        ro.wave_end = std::min(ro.wave_begin + size_t(cfg_.rollout.wave_size),
                               ro.members.size());
        ro.next_member = ro.wave_end;
        ro.wave_open = true;
        record(now, 0, NetEventKind::RolloutWave, ro.wave_index,
               static_cast<uint32_t>(ro.wave_end - ro.wave_begin));
        ++ro.wave_index;
        for (size_t i = ro.wave_begin; i < ro.wave_end; ++i) {
          const uint16_t id = ro.members[i];
          ro.state[id] = Rollout::M::Activating;
          ro.tries[id] = 0;
          ro.next_cmd_at[id] = now;
        }
      }
    }
  }

  if (ro.phase == Rollout::Phase::RollbackAll) {
    bool settled = true;
    for (uint16_t id : ro.members) {
      if (ro.state[id] == Rollout::M::RollingBack) settled = false;
      if (ro.ack_rollback[id]) settled = false;  // pending report acks
    }
    if (settled) {
      ro.phase = Rollout::Phase::Done;
      record(now, 0, NetEventKind::RolloutDone, ro.confirmed, ro.rolled_back);
      return;
    }
  }

  if (!can_tx(0, now)) return;  // one frame in the air at a time

  // Failure-report acks first: a Rollback in reply silences the reporting
  // node's retry stream (and is idempotent at the node).
  for (uint16_t id : ro.members) {
    if (!ro.ack_rollback[id]) continue;
    ro.ack_rollback[id] = false;
    base_send_control(id, ControlCmd::Rollback, now);
    return;
  }

  // One due command per quantum. Waves address only the open wave;
  // the fleet-wide rollback addresses every member.
  if (ro.phase == Rollout::Phase::Waves && !ro.wave_open) return;
  const size_t begin = ro.phase == Rollout::Phase::Waves ? ro.wave_begin : 0;
  const size_t end =
      ro.phase == Rollout::Phase::Waves ? ro.wave_end : ro.members.size();
  size_t best = SIZE_MAX;
  for (size_t i = begin; i < end; ++i) {
    const uint16_t id = ro.members[i];
    const Rollout::M s = ro.state[id];
    const bool wants = s == Rollout::M::Activating ||
                       s == Rollout::M::AwaitConfirm ||
                       s == Rollout::M::RollingBack;
    if (!wants || now < ro.next_cmd_at[id]) continue;
    if (ro.tries[id] >= cfg_.rollout.give_up_tries) {
      // Bounded retries: a silent node must not stall its wave (or the
      // fleet rollback) forever. In the wave phase a give-up counts
      // against the failure budget — "unreachable mid-upgrade" is as bad
      // as a failed trial.
      ro.state[id] = Rollout::M::GivenUp;
      ro.nstats[id].given_up = true;
      if (ro.phase == Rollout::Phase::Waves) {
        ++ro.failures;
        ++ro.gave_up;
      }
      record(now, 0, NetEventKind::RolloutGiveUp, id, ro.tries[id]);
      continue;
    }
    if (best == SIZE_MAX ||
        ro.next_cmd_at[id] < ro.next_cmd_at[ro.members[best]])
      best = i;
  }
  if (best == SIZE_MAX) return;
  const uint16_t id = ro.members[best];
  ControlCmd cmd = ControlCmd::ActivateTrial;
  if (ro.state[id] == Rollout::M::AwaitConfirm) cmd = ControlCmd::ConfirmTrial;
  if (ro.state[id] == Rollout::M::RollingBack) cmd = ControlCmd::Rollback;
  base_send_control(id, cmd, now);
  ro.next_cmd_at[id] = now + backoff(kControlInterval, ro.tries[id]);
  ++ro.tries[id];
}

void NetSim::on_base_health(uint16_t origin, const HealthReport& hr,
                            uint64_t now) {
  Rollout& ro = *ro_;
  if (auth_) {
    // The tag covers the 12 core bytes under (version, origin): a forged
    // "trial clean" for a lemon, or a spoofed failure meant to burn the
    // budget, dies here. Relayer/hop are outside the tag, like mesh Acks.
    if (!hr.has_tag ||
        hr.tag != health_tag(cfg_.proto.auth_key, cfg_.proto.version, origin,
                             health_core(hr))) {
      ++ro.health_rejected;
      record(now, 0, NetEventKind::AckRejected, origin, 1);
      return;
    }
  }
  note_node_alive(origin);
  record(now, 0, NetEventKind::HealthRx, origin, hr.flags);
  Rollout::M& s = ro.state[origin];
  NodeRolloutStats& ns = ro.nstats[origin];
  ++ns.reports_rx;
  // A failed trial: the node is back on its old image, and a Rollback
  // command acks the report. A node already given up on was charged
  // against the budget when it went silent — don't double-charge.
  const auto fail = [&] {
    if (s != Rollout::M::GivenUp) ++ro.failures;
    s = Rollout::M::Failed;
    ns.rolled_back = true;
    ro.ack_rollback[origin] = true;
  };

  if (hr.flags & kHealthConfirmed) {
    if (s == Rollout::M::Activating || s == Rollout::M::AwaitConfirm) {
      s = Rollout::M::Confirmed;
      ++ro.confirmed;
      ns.confirmed = true;
      record(now, 0, NetEventKind::NodeConfirmed, origin,
             ro.wave_index == 0 ? 0 : ro.wave_index - 1);
    }
    return;
  }
  if (hr.flags & kHealthRolledBack) {
    switch (s) {
      case Rollout::M::Activating:
      case Rollout::M::AwaitConfirm:
      case Rollout::M::GivenUp:  // came back with the bad news
        fail();
        break;
      case Rollout::M::RollingBack:
        s = Rollout::M::RolledBack;
        ++ro.rolled_back;
        ns.rolled_back = true;
        break;
      default:
        // Duplicates in terminal states get no re-ack: re-acking every
        // repeat would ping-pong Rollback/report forever.
        break;
    }
    return;
  }
  if (hr.flags & kHealthTrialClean) {
    if (s == Rollout::M::Activating) {
      // The health gate: restarts are reported (and visible in the trace)
      // but only supervision quarantines and watchdog kills fail a trial.
      if (hr.quarantines == 0 && hr.watchdog_fires == 0) {
        s = Rollout::M::AwaitConfirm;
        ro.tries[origin] = 0;
        ro.next_cmd_at[origin] = now;
      } else {
        fail();
      }
    } else if (s == Rollout::M::GivenUp) {
      // A clean report from a node we already gave up on: too late to
      // promote — roll it back so no trial outlives the run.
      fail();
    }
    return;
  }
}

void NetSim::on_node_control(Node& n, const ControlInfo& ci, uint64_t now) {
  auto& dev = machines_[n.id]->dev();
  emu::ImageStore& st = dev.image_store();
  switch (ci.cmd) {
    case ControlCmd::ActivateTrial: {
      if (n.trial_pending || st.trial_active) break;  // already trialing
      const emu::ImageSlot& act = st.slots[st.active_slot];
      const emu::ImageSlot& other = st.slots[st.active_slot ^ 1];
      if (act.state == emu::SlotState::Confirmed && act.crc == ci.image_crc) {
        // Already upgraded and confirmed — the base lost our report.
        node_queue_health(n, kHealthConfirmed, 2, now);
        break;
      }
      if ((act.crc == ci.image_crc && act.state == emu::SlotState::Rejected) ||
          (other.crc == ci.image_crc &&
           other.state == emu::SlotState::Rejected)) {
        // A slot already holds this image marked Rejected: never boot a
        // known-bad image again; restate the rollback instead.
        node_queue_health(n, kHealthRolledBack, 2, now);
        break;
      }
      if (!st.verified || st.image_crc != ci.image_crc) break;  // not held
      const int slot = st.stage_inactive(cfg_.proto.version);
      if (slot < 0) break;
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::ImageStaged,
                  static_cast<uint32_t>(slot), st.image_crc & 0xFFFF);
      st.activate_trial(static_cast<uint8_t>(slot));
      out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::TrialActivated,
                  static_cast<uint32_t>(slot), ci.image_crc & 0xFFFF);
      // Deliberate reboot into the trial slot: on_power_up consumes the
      // one sanctioned trial boot; any later reboot before ConfirmTrial
      // auto-rolls-back.
      n.saved_hop = n.hop;
      n.saved_parent = n.parent;
      n.trial_pending = true;
      dev.reboot();
      power_down(n, now, kRebootBytes);
      break;
    }
    case ControlCmd::ConfirmTrial: {
      if (st.trial_active && !n.trial_running && !n.trial_pending &&
          (n.health_flags & kHealthTrialClean)) {
        // Probation passed and the base agreed: promote the trial slot.
        st.confirm_trial();
        node_queue_health(n, kHealthConfirmed, 2, now);
      } else if (!st.trial_active &&
                 st.slots[st.active_slot].state == emu::SlotState::Confirmed &&
                 st.slots[st.active_slot].crc == ci.image_crc) {
        node_queue_health(n, kHealthConfirmed, 2, now);  // duplicate confirm
      }
      break;
    }
    case ControlCmd::Rollback: {
      bool did = false;
      if (st.trial_active) {
        st.rollback_trial();
        did = true;
      } else {
        did = st.revert_active(ci.image_crc);
      }
      if (did)
        out_.record(now, static_cast<uint8_t>(n.id),
                    NetEventKind::TrialRolledBack, n.id,
                    static_cast<uint32_t>(RollbackWhy::Commanded));
      n.trial_running = false;
      st.rollback_report_pending = false;  // doubles as the failure ack
      node_queue_health(n, kHealthRolledBack, 2, now);
      break;
    }
  }
}

void NetSim::step_node_rollout(Node& n, uint64_t now) {
  auto& dev = machines_[n.id]->dev();
  emu::ImageStore& st = dev.image_store();
  if (n.trial_running) {
    const TrialBehavior& b = behaviors_[n.id];
    if (!n.behavior_fired && now >= n.behavior_at) {
      n.behavior_fired = true;
      // The scripted trial "runs": its kernel recovery stats land in the
      // device health counters exactly where the supervisor mirrors the
      // real ones (DeviceHub::health_add).
      dev.health_add(b.restarts, b.quarantines, b.watchdog_fires);
      switch (b.kind) {
        case TrialBehavior::Kind::Runaway:
          if (b.quarantines > 0 || b.watchdog_fires > 0) {
            // On-node gate: the node needs no base round-trip to know its
            // trial is toxic — roll back at once and report the failure.
            st.rollback_trial();
            out_.record(now, static_cast<uint8_t>(n.id),
                        NetEventKind::TrialRolledBack, n.id,
                        static_cast<uint32_t>(RollbackWhy::GateFailed));
            n.trial_running = false;
            node_queue_health(n, kHealthRolledBack | kHealthGateFailed,
                              kReportRetries, now);
          }
          break;
        case TrialBehavior::Kind::CrashBoot:
        case TrialBehavior::Kind::Wedge: {
          // The trial takes the node down mid-probation; on_power_up (in
          // dev.reboot) detects the interrupted trial and auto-rolls-back,
          // leaving rollback_report_pending for the comeback report.
          const uint64_t down_bytes = b.kind == TrialBehavior::Kind::Wedge
                                          ? b.wedge_bytes
                                          : b.down_bytes;
          ++n.stats.crashes;
          out_.record(now, static_cast<uint8_t>(n.id),
                      NetEventKind::NodeCrashed, st.chunks_have, 0);
          dev.reboot();
          if (dev.last_boot() == emu::BootOutcome::TrialRollback)
            out_.record(now, static_cast<uint8_t>(n.id),
                        NetEventKind::TrialRolledBack, n.id,
                        static_cast<uint32_t>(RollbackWhy::BootInterrupted));
          n.trial_running = false;
          power_down(n, now, down_bytes);
          return;
        }
        default:
          break;  // Healthy: counters recorded, nothing else fires
      }
    }
    if (n.trial_running && now >= n.probation_end) {
      // Probation survived. Report the gate inputs; the slot stays a
      // Staged trial until the base's ConfirmTrial promotes it.
      n.trial_running = false;
      node_queue_health(n, kHealthTrialClean, kReportRetries, now);
    }
  }
  // Star mode transmits directly (mirroring Nacks — no carrier sense);
  // mesh reports ride mesh_node_tx's prioritized TX slot instead.
  if (!mesh_ && n.health_pending && now >= n.next_health_at)
    node_send_health(n, now);
}

void NetSim::node_queue_health(Node& n, uint8_t flags, uint32_t sends,
                               uint64_t now) {
  n.health_flags = flags;
  n.health_pending = sends > 0;
  n.health_sends_left = sends;
  n.health_streak = 0;
  // Stagger by node id (like first Nacks) so wave members answering the
  // same command don't collide in one synchronized volley.
  n.next_health_at = now + n.id * 3 * kByte;
}

void NetSim::node_send_health(Node& n, uint64_t now) {
  auto& dev = machines_[n.id]->dev();
  const emu::ImageStore& st = dev.image_store();
  const emu::HealthCounters& h = dev.health();
  const auto clamp16 = [](uint32_t v) {
    return static_cast<uint16_t>(v > 0xFFFF ? 0xFFFF : v);
  };
  HealthReport hr;
  hr.flags = n.health_flags;
  hr.restarts = clamp16(h.restarts);
  hr.quarantines = clamp16(h.quarantines);
  hr.watchdog_fires = clamp16(h.watchdog_fires);
  hr.image_crc = st.slots[st.active_slot].crc;
  hr.active_slot = st.active_slot;
  if (auth_) {
    hr.has_tag = true;
    hr.tag = health_tag(cfg_.proto.auth_key, cfg_.proto.version, n.id,
                        health_core(hr));
  }
  if (mesh_) {
    hr.has_relayer = true;
    hr.relayer = n.id;
    // A node that lost its gradient reports hop 255 (< kNoHop): neighbors
    // that kept theirs treat it as downstream and relay it toward the
    // base, so even a gradient-less node's report gets through.
    hr.hop = n.hop < 0xFF ? n.hop : 0xFF;
  }
  mesh_send(n.id, make_health(cfg_.proto.version, n.id, hr), now);
  out_.record(now, static_cast<uint8_t>(n.id), NetEventKind::HealthTx, hr.flags,
              n.health_streak);
  n.next_health_at = now + backoff(kAckRepeatMin, n.health_streak) +
                     (mesh_ ? mesh_jitter(n.id, n.health_streak) : 0);
  ++n.health_streak;
  if (n.health_sends_left > 0) --n.health_sends_left;
  if (n.health_sends_left == 0) n.health_pending = false;
}

void NetSim::finish_rollout(RolloutResult& rr) {
  rr.cycles = t_;
  rr.trace_digest = trace_digest_;
  rr.trace_events = trace_count_;
  rr.receiver_steps = receiver_steps_;
  if (ro_) {
    rr.waves = ro_->wave_index;
    rr.waves_promoted = ro_->waves_promoted;
    rr.failures = ro_->failures;
    rr.confirmed = ro_->confirmed;
    rr.rolled_back = ro_->rolled_back;
    rr.gave_up = ro_->gave_up;
    rr.health_rejected = ro_->health_rejected;
    rr.halted = ro_->halted;
    rr.complete = ro_->phase == Rollout::Phase::Done && !ro_->halted &&
                  !rr.budget_exhausted &&
                  ro_->confirmed == ro_->members.size();
  }
  rr.nodes.assign(cfg_.nodes + 1, NodeRolloutStats{});
  for (size_t id = 1; id <= cfg_.nodes; ++id) {
    NodeRolloutStats ns = ro_ ? ro_->nstats[id] : NodeRolloutStats{};
    // Ground truth from the persistent store, not base bookkeeping.
    const emu::ImageStore& st = machines_[id]->dev().image_store();
    ns.final_slot = st.active_slot;
    ns.final_state = st.slots[st.active_slot].state;
    ns.final_crc = st.slots[st.active_slot].crc;
    ns.trial_left_active = st.trial_active;
    for (const emu::ImageSlot& s : st.slots)
      if (s.state != emu::SlotState::Empty && s.crc == blob_crc_)
        ns.activated = true;
    rr.nodes[id] = ns;
  }
}

const std::vector<uint8_t>& NetSim::node_blob(size_t node) const {
  static const std::vector<uint8_t> kEmpty;
  if (node == 0 || node > nodes_.size()) return kEmpty;
  const emu::ImageStore& st = machines_[node]->dev().image_store();
  return st.verified ? st.image : kEmpty;
}

uint64_t NetSim::rx_overruns_up(size_t node) const {
  const Node& n = *nodes_.at(node - 1);
  const uint64_t counted =
      n.down ? n.overruns_at_down : machines_[node]->dev().rx_overruns();
  return counted - n.overruns_while_down;
}

bool NetSim::node_complete(size_t node) const {
  return node >= 1 && node <= nodes_.size() &&
         machines_[node]->dev().image_store().verified;
}

emu::Machine& NetSim::node_machine(size_t node) {
  return *machines_.at(node);
}

}  // namespace sensmart::net
