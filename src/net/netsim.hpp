// Deterministic multi-node network simulator + over-the-air dissemination
// protocol (DESIGN.md §7).
//
// Topology: one base station (node 0) and N receiver nodes, each owning an
// emulated mote (emu::Machine); their radio devices are connected through a
// seeded lossy Medium. The base station holds a naturalized system image
// (rw::LinkedSystem serialized by net::serialize_system), announces it with
// a Summary frame, streams CRC-protected Data chunks, and answers receiver
// Nacks with retransmissions; receivers reassemble, verify the whole-image
// CRC-32 and Ack. A partially received or corrupted image is never handed
// out for installation.
//
// Determinism contract: one serial engine advances all nodes in lockstep
// quanta of one on-air byte time. Each quantum steps the due receivers in
// id order and then the base (a receiver sleeps through quanta in which
// its step could not change anything — the wake schedule of DESIGN.md
// §9), and every random decision comes from one seeded PRNG inside
// Medium, so a run (including its full event trace and digest) is a pure
// function of (image bytes, NetConfig). Replays are byte-identical,
// serial or under a parallel seed sweep (src/host/parallel), because one
// run never shares state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "emu/machine.hpp"
#include "net/auth.hpp"
#include "net/due_set.hpp"
#include "net/frame.hpp"
#include "net/medium.hpp"
#include "net/topology.hpp"

namespace sensmart::net {

struct ProtocolParams {
  uint8_t version = 1;       // image version announced in every frame
  uint8_t chunk_payload = 32;
  // Receiver: cycles of silence before a Nack; doubles per consecutive
  // Nack without progress, capped at timeout << backoff_cap_exp.
  uint64_t nack_timeout = 8 * 40 * emu::DeviceHub::kCyclesPerRadioByte;
  uint32_t backoff_cap_exp = 5;
  // Base: idle re-probe (Summary) interval; doubles per unanswered probe,
  // same cap as the receiver backoff.
  uint64_t probe_interval = 16 * 40 * emu::DeviceHub::kCyclesPerRadioByte;
  // Base: consecutive unanswered probes before a node is abandoned (its
  // abort reason is reported per node instead of stalling the whole run).
  // 0 = never abandon. The default is large enough that short reboot
  // outages never get a node abandoned, yet a truly dead node bounds the
  // run. A frame from an abandoned node revives it.
  //
  // On a mesh the base only hears its radio neighbors directly (plus
  // relayed Acks), so a distant node that is mid-transfer looks silent at
  // the base; large mesh runs should set this to 0 and rely on max_cycles
  // unless abandon classification is the point of the run.
  uint32_t node_give_up_probes = 12;

  // --- Authentication + adversarial hardening (DESIGN.md §11) -----------
  // MAC-authenticated dissemination: the Summary carries a SipHash-2-4 tag
  // over the image blob under the pre-shared key, verified before install
  // (CRC-32 still gates transfer integrity; the MAC gates authenticity),
  // and Acks carry a keyed tag binding (origin, version, image CRC) so a
  // spoofed completion never counts at the base. Off by default: the wire
  // encodings and every golden digest of unauthenticated runs are
  // byte-identical to the pre-auth protocol.
  bool auth = false;
  AuthKey auth_key = kDefaultAuthKey;
};

// A scheduled receiver crash: fires the first time the node holds at least
// `at_chunks` chunks (0 = immediately), powers the node down for
// `down_bytes` on-air byte times, then reboots it. Volatile state (radio
// buffers, deframer, protocol timers) is lost; the persistent image store
// survives unless `wipe_store` asks for a cold (flash-erased) reboot.
struct NodeCrash {
  uint16_t node = 1;         // receiver id (1-based); the base never crashes
  uint16_t at_chunks = 0;    // progress threshold that triggers the crash
  uint64_t down_bytes = 256; // outage duration in on-air byte times
  bool wipe_store = false;   // also erase the persistent store
};

// Node lifecycle faults (DESIGN.md §8): scripted crash events plus seeded
// random ones. Seeded crashes draw from their own PRNG stream (derived
// from chaos_seed), so enabling them never shifts the medium's fault
// rolls — a fault-free run keeps its golden trace digest.
struct NodeFaultPolicy {
  std::vector<NodeCrash> scripted;
  // Each receiver suffers up to `max_crashes_per_node` seeded crashes,
  // each with probability `crash_pct`, at a seeded progress fraction, down
  // for a seeded duration in [down_min_bytes, down_max_bytes].
  uint32_t crash_pct = 0;
  uint32_t max_crashes_per_node = 1;
  uint64_t down_min_bytes = 64;
  uint64_t down_max_bytes = 1024;
  uint32_t wipe_pct = 0;  // of seeded crashes: cold (store-wiping) reboots

  bool any() const { return !scripted.empty() || crash_pct > 0; }
};

// Staged rollout (DESIGN.md §12): after dissemination completes, the base
// upgrades the fleet wave-by-wave. Each wave's nodes stage the verified
// transfer image into their inactive A/B slot, reboot into it as a trial,
// and run a probation window; only a health report with zero supervision
// quarantines / watchdog kills earns the ConfirmTrial that promotes the
// slot. Failures (gate trips, reboots mid-probation, silent nodes) count
// against a fleet-wide budget; exceeding it halts the rollout and rolls
// every upgraded node back.
struct RolloutParams {
  bool enabled = false;
  uint32_t wave_size = 4;        // nodes upgraded per wave
  uint64_t probation_bytes = 3000;  // trial probation window (byte-times)
  uint32_t failure_budget = 1;   // trial failures tolerated fleet-wide
  uint32_t give_up_tries = 12;   // unanswered commands before giving up
};

// Scripted behavior of one node's trial image during probation (the chaos
// harness's lemon-image dimension; the sim::run_rollout harness derives it
// from genuinely executing the image on a supervised kernel).
struct TrialBehavior {
  enum class Kind : uint8_t {
    Healthy = 0,   // runs clean (counters below still reported)
    Runaway,       // trips supervision: quarantine/watchdog counters fire
    CrashBoot,     // node reboots mid-probation (power fault / crash loop)
    Wedge,         // node goes dark for a long window (hung image)
  };
  Kind kind = Kind::Healthy;
  uint32_t at_pct = 50;  // when in the probation window the event fires
  // Kernel recovery stats the trial produces (mirrored into DeviceHub).
  uint32_t restarts = 0;
  uint32_t quarantines = 0;
  uint32_t watchdog_fires = 0;
  uint64_t down_bytes = 512;     // CrashBoot outage (byte-times)
  uint64_t wedge_bytes = 20000;  // Wedge outage (byte-times)
};

struct NetConfig {
  size_t nodes = 4;  // receivers; the base station is extra (node id 0)
  LinkParams link;
  ProtocolParams proto;
  uint64_t chaos_seed = 1;
  uint64_t max_cycles = 4'000'000'000ULL;
  NodeFaultPolicy node_faults;  // receiver crash/reboot schedule
  unsigned shards = 1;  // ignored; the engine is serial (DESIGN.md §9)
  // Spatial topology (DESIGN.md §10). The default Star keeps the legacy
  // single-hop network and is byte-identical to the pre-mesh simulator;
  // any mesh kind enables multi-hop dissemination: hop-count parent
  // selection, CSMA carrier sense with deterministic capture-model
  // collisions, and peer-to-peer chunk serving.
  TopologySpec topo;
  // Adversarial dimension (DESIGN.md §11): receiver `hostile_node`
  // (1-based; 0 = none) runs no honest protocol. Attach a HostileModel via
  // NetSim::set_hostile_model to script its transmissions; with no model
  // attached it is simply dead air. Its radio is a regular medium
  // participant: range, loss, capture collisions all apply.
  uint16_t hostile_node = 0;
  // Staged rollout (DESIGN.md §12); ignored by disseminate(), used by
  // NetSim::rollout(). enabled=false keeps every legacy path byte-identical.
  RolloutParams rollout;
};

// Why a receiver ended the run without a base-acknowledged install.
enum class NodeAbortReason : uint8_t {
  None,          // node completed (or was never given up on)
  NeverHeard,    // base never received a single frame from the node
  TimedOut,      // node was heard once but stopped answering probes
  ChecksumFail,  // node kept rejecting the assembled image (CRC mismatch)
  AuthFail,      // node kept rejecting the assembled image (MAC mismatch)
};

const char* to_string(NodeAbortReason r);

// Simulation event trace: node 0 is the base station, receiver i is node i
// (1-based), kNodeMedium marks medium decisions.
inline constexpr uint8_t kNodeMedium = 0xFF;
enum class NetEventKind : uint8_t {
  TxFrame = 1,     // a = first byte, b = packet length
  RxFrame,         // a = frame type, b = seq
  SummaryStored,   // a = total chunks, b = image CRC (low 16)
  ChunkStored,     // a = seq, b = chunks held
  DuplicateChunk,  // a = seq
  NackTx,          // a = missing count, b = backoff exponent
  AckTx,           // a = node id
  Complete,        // a = node id, b = image CRC (low 16)
  ChecksumFail,    // a = node id
  MediumDrop,      // a = from, b = to
  MediumDup,
  MediumReorder,
  MediumCorrupt,
  BaseRetransmit,  // a = seq, b = outstanding retransmit count
  BaseProbe,       // a = probe ordinal
  Abort,           // one per incomplete node at termination:
                   // a = node id, b = NodeAbortReason
  NodeCrashed,     // a = chunks held at the crash, b = wipe_store
  NodeRebooted,    // a = chunks resumed from the store, b = verified flag
  NodeAbandoned,   // base gave up on a node: a = node id, b = reason
  MediumOutage,    // delivery suppressed by a link-down window:
                   // a = from, b = to
  // Mesh events (appended: star traces never contain them, so the star
  // digest stream is unchanged).
  MediumCollision, // delivery destroyed by a concurrent transmission:
                   // a = from, b = to
  ParentSelected,  // a = parent id, b = hop count adopted
  SummaryRelayed,  // a = relayer hop, b = 0
  AckRelayed,      // a = origin node id, b = relayer hop
  ChunkServed,     // peer-served Data: a = chunk seq, b = serve queue left
  // Authentication / adversarial events (appended: they never occur in
  // unauthenticated runs without a hostile node, so every pre-auth golden
  // digest stream is unchanged).
  AuthReject,      // assembled image failed its MAC: a = node id,
                   // b = announced CRC (low 16)
  AckRejected,     // base dropped an Ack with a missing/invalid tag:
                   // a = claimed origin, b = 0
  QuotaExceeded,   // base stopped honoring liveness-granting frames from
                   // a node: a = node id, b = quota
  // Staged-rollout events (appended: they only occur inside
  // NetSim::rollout(), so every dissemination golden digest is unchanged).
  StoreReformatted, // persisted store blob failed validation at boot and
                    // was reformatted: a = node id
  ImageStaged,      // transfer image copied into the inactive slot:
                    // a = slot index, b = image CRC (low 16)
  TrialActivated,   // node reboots into the staged slot as a trial:
                    // a = slot index, b = image CRC (low 16)
  ControlTx,        // base command sent: a = ControlCmd, b = target node
  ControlRelayed,   // mesh flood relay of a Control: a = ctl_seq, b = cmd
  HealthTx,         // node health report sent: a = flags, b = send streak
  HealthRx,         // base accepted a health report: a = origin, b = flags
  HealthRelayed,    // mesh relay of a health report: a = origin,
                    // b = relayer hop
  NodeConfirmed,    // base promoted a node's trial: a = node, b = wave
  TrialRolledBack,  // node fell back to its previous slot: a = node,
                    // b = RollbackWhy
  RolloutWave,      // base opened a wave: a = wave index, b = wave size
  RolloutGiveUp,    // base stopped commanding a silent node: a = node,
                    // b = tries
  RolloutHalted,    // failure budget exceeded; fleet-wide rollback begins:
                    // a = failures, b = budget
  RolloutDone,      // orchestrator reached its terminal state:
                    // a = confirmed count, b = rolled-back count
};

// Why a node's trial slot was rejected (TrialRolledBack's `b`).
enum class RollbackWhy : uint8_t {
  GateFailed = 1,       // supervision counters tripped the health gate
  BootInterrupted = 2,  // rebooted mid-probation without confirming
  Commanded = 3,        // base ordered the rollback
};

struct NetTraceEvent {
  uint64_t cycle = 0;
  uint8_t node = 0;
  NetEventKind kind = NetEventKind::TxFrame;
  uint32_t a = 0;
  uint32_t b = 0;
};

struct NodeDissemStats {
  bool complete = false;
  uint64_t completion_cycle = 0;
  uint64_t frames_rx = 0;
  uint64_t data_rx = 0;
  uint64_t duplicate_chunks = 0;
  uint64_t crc_drops = 0;      // deframer resyncs (corrupt frames)
  uint64_t nacks_sent = 0;
  uint64_t acks_sent = 0;
  uint64_t summaries_rx = 0;
  uint32_t checksum_failures = 0;  // whole-image CRC mismatches (reset+retry)
  uint32_t auth_rejects = 0;       // assembled images failing their MAC
  uint32_t backoff_max_exp = 0;
  uint64_t bytes_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t rx_overruns = 0;
  // Lifecycle-fault outcomes (NodeFaultPolicy).
  uint32_t crashes = 0;
  uint32_t reboots = 0;
  uint16_t resumed_chunks = 0;  // chunks restored from the persistent
                                // store at the most recent reboot
  uint64_t store_writes = 0;    // committed chunk writes (flash-wear proxy)
  bool abandoned = false;       // base gave up waiting for this node
  NodeAbortReason abort_reason = NodeAbortReason::None;
  // Mesh (zero in star mode).
  uint16_t hop = 0;                // final hop count (0xFFFF = never joined)
  uint32_t parent_switches = 0;    // parent churn events
  uint64_t chunks_served = 0;      // Data frames served to peers
  uint64_t acks_relayed = 0;       // downstream Acks forwarded upstream
  uint64_t summaries_relayed = 0;  // Summary floods forwarded
};

struct BaseDissemStats {
  uint64_t frames_tx = 0;
  uint64_t data_tx = 0;          // initial-pass chunks
  uint64_t retransmissions = 0;  // Nack-requested chunks
  uint64_t summaries_tx = 0;
  uint64_t nacks_rx = 0;
  uint64_t acks_rx = 0;
  uint64_t bytes_tx = 0;
  uint32_t nodes_abandoned = 0;  // still abandoned at termination
  // Adversarial accounting (always zero in honest unauthenticated runs).
  uint64_t acks_rejected = 0;    // Acks dropped for a missing/invalid tag
  uint64_t frames_squelched = 0; // liveness frames dropped over quota
};

struct DisseminationResult {
  bool all_acked = false;   // base heard a verified-install Ack from all
  bool aborted = false;     // terminated without hearing every Ack (cycle
                            // budget exhausted, or every straggler was
                            // abandoned after bounded per-node retries)
  bool budget_exhausted = false;  // of aborted runs: max_cycles hit first
  uint64_t cycles = 0;      // simulated time at termination
  uint16_t total_chunks = 0;
  uint32_t image_crc = 0;
  uint32_t image_bytes = 0;
  BaseDissemStats base;
  std::vector<NodeDissemStats> nodes;  // index 0 = receiver node 1
  MediumStats medium;
  uint64_t trace_digest = 0;  // FNV-1a over every trace event
  size_t trace_events = 0;
  // Receiver steps the wake schedule ran (DESIGN.md §9), summed over
  // quanta: engine work, not protocol outcome, so no fingerprint folds it.
  uint64_t receiver_steps = 0;

  // Maintained as counters on the underlying state transitions (image
  // verified / verified store wiped / node abandoned or revived) instead
  // of O(nodes) scans per poll.
  size_t complete_count = 0;
  size_t abandoned_count = 0;
  size_t complete_nodes() const { return complete_count; }
  size_t abandoned_nodes() const { return abandoned_count; }
};

// Per-node outcome of a staged rollout. `final_*` fields are ground truth
// read from the node's persistent ImageStore after the run; the booleans
// are the base station's bookkeeping.
struct NodeRolloutStats {
  bool member = false;      // dissemination-complete, scheduled into a wave
  bool activated = false;   // the rollout image ever occupied a slot
  bool confirmed = false;   // base promoted its trial
  bool rolled_back = false; // ended (or passed through) a rollback
  bool given_up = false;    // base stopped commanding it (silent node)
  uint32_t reports_rx = 0;  // health reports the base accepted from it
  uint8_t final_slot = 0;
  emu::SlotState final_state = emu::SlotState::Empty;
  uint32_t final_crc = 0;
  bool trial_left_active = false;  // a trial survived past termination (bug)
};

struct RolloutResult {
  DisseminationResult dissem;  // the transfer phase that preceded the waves
  bool complete = false;       // every wave promoted, no halt, within budget
  bool halted = false;         // failure budget exceeded; fleet rolled back
  bool budget_exhausted = false;
  uint32_t waves = 0;
  uint32_t waves_promoted = 0;  // waves that ended with zero failures
  uint32_t failures = 0;        // gate trips + interrupted trials + give-ups
  uint32_t confirmed = 0;
  uint32_t rolled_back = 0;
  uint32_t gave_up = 0;
  uint64_t health_rejected = 0;  // health reports dropped for a bad tag
  uint64_t cycles = 0;           // total simulated time (transfer + rollout)
  uint64_t trace_digest = 0;     // FNV-1a over the whole run's events
  size_t trace_events = 0;
  uint64_t receiver_steps = 0;   // as DisseminationResult, whole run
  std::vector<NodeRolloutStats> nodes;  // indexed by node id; [0] unused
};

// A scripted hostile transmitter occupying the NetConfig::hostile_node
// receiver slot (DESIGN.md §11): it sees every byte its radio hears and is
// offered one raw transmission per quantum — raw bytes, not frames, so it
// can put arbitrary streams on the air (garbage, truncations, length lies,
// forged frames, replays). Implementations must be deterministic functions
// of their seed and observations; the replay oracles then hold for
// adversarial runs exactly as for honest ones. The concrete seeded
// attacker lives in chaos/hostile.hpp; tests also hand-script one to
// inject exact byte sequences.
class HostileModel {
 public:
  virtual ~HostileModel() = default;
  // Bytes the hostile node's radio received since the last call.
  virtual void observe(std::span<const uint8_t> bytes) = 0;
  // One transmission opportunity at `now`. `air_clear` reports carrier
  // sense (always true in star mode); a hostile node MAY transmit over a
  // busy channel — that is what makes it collide. Fill `out` (capped at
  // kMaxHostilePacket) and return true to transmit.
  virtual bool emit(uint64_t now, bool air_clear,
                    std::vector<uint8_t>& out) = 0;
};

// Upper bound on one hostile transmission: comfortably above the longest
// legal frame (kFrameOverhead + kMaxPayload = 56) so length-lying attacks
// fit, but bounded so one emit() cannot monopolize the air for a whole run.
inline constexpr size_t kMaxHostilePacket = 96;
static_assert(kFrameOverhead + kMaxPayload <= kMaxHostilePacket);
// The medium's bounded collision scan assumes no transmission is longer.
static_assert(Medium::kMaxAirtime ==
              kMaxHostilePacket * emu::DeviceHub::kCyclesPerRadioByte);

class NetSim {
 public:
  NetSim(NetConfig cfg, std::vector<uint8_t> image_blob);
  ~NetSim();

  // Scripted faults for conformance tests; forwarded to the medium.
  void set_fault_policy(FaultPolicy p);
  // Attach the transmitter model for NetConfig::hostile_node (not owned;
  // must outlive disseminate()). No-op if no hostile node is configured.
  void set_hostile_model(HostileModel* m) { hostile_ = m; }

  // Run the dissemination protocol to termination (all nodes verified and
  // acknowledged, or the cycle budget exhausted).
  DisseminationResult disseminate();

  // --- Staged rollout (DESIGN.md §12) ----------------------------------------
  // Disseminate, then upgrade the fleet wave-by-wave with health-gated
  // trials and automatic rollback (NetConfig::rollout). One call runs both
  // phases on one timeline; the dissemination half of the result is exactly
  // what disseminate() would have produced. Same determinism contract: the
  // whole RolloutResult is a pure function of (image bytes, NetConfig,
  // initial image, trial behaviors).
  RolloutResult rollout();
  // Pre-load every receiver's slot A with the currently-deployed image
  // (Confirmed, active) — the image the fleet falls back to. Call before
  // rollout().
  void set_initial_image(std::vector<uint8_t> blob, uint8_t version);
  // Script how `node`'s trial behaves during probation (default: Healthy).
  void set_trial_behavior(uint16_t node, const TrialBehavior& b);
  // A node's persistent image store (slot state ground truth for oracles).
  const emu::ImageStore& node_store(size_t node) const;

  // --- Post-dissemination access ---------------------------------------------
  // Receiver `node` is 1-based (matching trace ids). A node's verified
  // image bytes; empty unless the node completed — a partial image is
  // never observable here.
  const std::vector<uint8_t>& node_blob(size_t node) const;
  bool node_complete(size_t node) const;
  // Received bytes receiver `node`'s radio lost to a full buffer while the
  // node was up. Deliveries already in the air when it went down still
  // land in its radio, and its first sync after power-up counts the
  // excess as overruns too (rx_overruns() of the device); those are left
  // out here.
  uint64_t rx_overruns_up(size_t node) const;
  // The node's emulated machine (for installation and execution).
  emu::Machine& node_machine(size_t node);

  const std::vector<NetTraceEvent>& trace() const { return trace_; }
  // Wake-schedule entries the quantum loop examined to find the receivers
  // it stepped, over every phase run so far. The due set hands out only
  // due receivers, so this equals the result's receiver_steps.
  uint64_t wake_entries_examined() const { return wake_entries_; }

 private:
  struct Node;
  struct Base;

  // Receiver effects deferred to the end of the quantum (DESIGN.md §9).
  // Receivers step before the base, yet the trace orders the base's events
  // first and every receiver reads the carrier-sense claims and link
  // outages as they stood when the quantum began; so what a receiver step
  // produces for the trace, the medium's outage list and the collision
  // log waits here, in node-id order, and is applied around the base step.
  struct Outbox {
    std::vector<NetTraceEvent> events;
    std::vector<LinkOutage> outages;
    // Mesh transmissions receivers started this quantum; applied to the
    // collision log and the carrier-sense claims before the base steps,
    // so the base defers to node frames already on the air.
    struct TxNote {
      uint16_t from = 0;
      uint64_t start = 0, done = 0;
    };
    std::vector<TxNote> tx_notes;
    void record(uint64_t cycle, uint8_t node, NetEventKind kind, uint32_t a,
                uint32_t b) {
      events.push_back({cycle, node, kind, a, b});
    }
  };

  void record(uint64_t cycle, uint8_t node, NetEventKind kind, uint32_t a,
              uint32_t b);
  // Radio port access shared by every sender, the hostile one included.
  bool radio_busy(size_t id);
  void send_frame(size_t node_id, const Frame& f);
  // Chunk `seq` of `image` as a Data frame (in data_frame_).
  const Frame& data_frame(uint8_t version, uint16_t seq,
                          std::span<const uint8_t> image, size_t chunk_payload);
  // Capped exponential backoff (the one retry rule of every timer).
  uint32_t backoff_exp(uint32_t streak) const;
  uint64_t backoff(uint64_t interval, uint32_t streak) const;
  void drain_rx(size_t node_id, Deframer& d);
  void plan_node_faults();
  void node_lifecycle(Node& n, uint64_t now);
  // Power a receiver off until now + down_bytes byte-times: volatile radio
  // and reassembly state dies, and both link directions go dark.
  void power_down(Node& n, uint64_t now, uint64_t down_bytes);
  void note_node_alive(size_t node_id);
  // Quota gate for unauthenticated liveness-granting frames claiming to be
  // from `node_id` (DESIGN.md §11): true while the node's budget lasts.
  bool liveness_credit(size_t node_id, uint64_t now);
  NodeAbortReason abort_reason_of(const Node& n) const;
  void step_base(uint64_t now);
  void step_node(Node& n, uint64_t now);
  void step_hostile(Node& n, uint64_t now);
  void on_base_frame(const Frame& f, uint64_t now);
  void on_node_frame(Node& n, const Frame& f, uint64_t now);
  void node_send_nack(Node& n, uint64_t now);
  // Wake schedule (DESIGN.md §9): the first quantum after `now` at which
  // receiver `n` must be stepped, and the cycle its deframer can next
  // decide something from received bytes.
  uint64_t next_wake(const Node& n, uint64_t now) const;
  uint64_t rx_ready_at(const Node& n) const;
  void deliver_tx(size_t id, std::span<const uint8_t> pkt, uint64_t done);

  // Mesh protocol (DESIGN.md §10); all no-ops / unreachable in star mode.
  void apply_tx_note(size_t from, uint64_t start, uint64_t done);
  void mesh_send(size_t id, const Frame& f, uint64_t now);
  bool can_tx(size_t id, uint64_t now);
  bool mesh_node_tx(Node& n, uint64_t now);
  void mesh_note_summary(Node& n, uint16_t sender, uint16_t hop,
                         uint64_t now);
  void mesh_schedule_summary_relay(Node& n, uint64_t now);
  void mesh_churn_parent(Node& n, uint64_t now);

  // Engine core shared by disseminate() and rollout(): the quantum loop
  // (returns false when max_cycles ran out) and dissemination result
  // assembly.
  bool run_loop();
  bool loop_done() const;
  void finish_dissem(DisseminationResult& res, bool budget_exhausted);

  // Staged rollout (DESIGN.md §12); only reachable from rollout().
  void begin_rollout();
  void enter_rollback_all(uint64_t now);
  void step_base_rollout(uint64_t now);
  void base_send_control(uint16_t target, ControlCmd cmd, uint64_t now);
  void on_base_health(uint16_t origin, const HealthReport& hr, uint64_t now);
  void on_node_control(Node& n, const ControlInfo& ci, uint64_t now);
  void step_node_rollout(Node& n, uint64_t now);
  void node_queue_health(Node& n, uint8_t flags, uint32_t sends, uint64_t now);
  void node_send_health(Node& n, uint64_t now);
  void finish_rollout(RolloutResult& rr);

  NetConfig cfg_;
  std::vector<uint8_t> blob_;
  uint16_t total_chunks_ = 0;
  uint32_t blob_crc_ = 0;
  // Authentication (DESIGN.md §11): cached ProtocolParams::auth and the
  // image MAC the base announces (computed once in the ctor).
  bool auth_ = false;
  uint64_t blob_mac_ = 0;
  // Per-node liveness quota (0 = unlimited; see liveness_credit).
  uint32_t liveness_quota_ = 0;
  // Hostile node (NetConfig::hostile_node): model + raw transmit buffer.
  HostileModel* hostile_ = nullptr;
  std::vector<uint8_t> hostile_tx_;

  Medium medium_;
  std::vector<std::unique_ptr<emu::Machine>> machines_;  // [0] = base
  std::unique_ptr<Base> base_;
  std::vector<std::unique_ptr<Node>> nodes_;  // receiver i -> id i+1

  // Scratch buffers reused by every node's step (no per-frame allocation):
  // the hostile node's received bytes, a frame decoded byte by byte, frame
  // encoding, an outgoing Data frame (base or peer serve) and a Nack's
  // missing-chunk list.
  std::vector<uint8_t> rx_scratch_;
  Frame rx_frame_;
  std::vector<uint8_t> encode_scratch_;
  Frame data_frame_;
  std::vector<uint16_t> nack_scratch_;
  Outbox out_;
  // Mesh mode (NetConfig::topo names a spatial topology). Carrier sense:
  // air_busy_until_[id] is the cycle until which node id defers its own
  // transmissions — the max over heard neighbors' transmission ends (plus
  // a short guard) and its own. Receivers' claims land at the end of the
  // quantum (Outbox::tx_notes), so every receiver reads the claims as they
  // stood when the quantum began. A star never claims air: all stay 0.
  bool mesh_ = false;
  std::vector<uint64_t> air_busy_until_;
  size_t complete_count_ = 0;  // verified stores (transition-maintained)

  // Engine state shared by disseminate()/rollout(): simulated time.
  uint64_t t_ = 0;
  // Wake schedule (DESIGN.md §9): due_ holds, per receiver index, the
  // first quantum at which it must be stepped (next_wake). Every honest
  // receiver sleeps until its deadline; only the hostile slot is due every
  // quantum. receiver_steps_ counts the steps taken, wake_entries_ the
  // due-set entries the loop took out to find them, due_ids_ is scratch.
  DueSet<emu::DeviceHub::kCyclesPerRadioByte> due_;
  std::vector<uint32_t> due_ids_;
  uint64_t wake_entries_ = 0;
  uint64_t receiver_steps_ = 0;
  // Staged rollout: orchestrator state (touched only by the base step),
  // scripted trial behaviors, and the fleet's currently-deployed image.
  struct Rollout;
  std::unique_ptr<Rollout> ro_;
  bool rollout_phase_ = false;
  std::vector<TrialBehavior> behaviors_;  // by node id; [0] unused
  std::vector<uint8_t> initial_blob_;
  uint32_t initial_crc_ = 0;
  uint8_t initial_version_ = 0;

  std::vector<NetTraceEvent> trace_;
  uint64_t trace_digest_ = 0xcbf29ce484222325ULL;  // FNV-1a running state
  size_t trace_count_ = 0;
};

// FNV-1a digest helper shared with tests.
inline uint64_t fnv1a_step(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// fnv1a_step for a value of unsigned type T, with the same result. The
// bytes above sizeof(T) are zero by type, and FNV-1a on a zero byte is a
// bare multiply by the prime, so they fold into one multiply by
// prime^(8 - sizeof(T)).
template <typename T>
inline uint64_t fnv1a_step_typed(uint64_t h, T v) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8);
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  constexpr uint64_t kZeroBytes = [] {
    uint64_t p = 1;
    for (size_t i = sizeof(T); i < 8; ++i) p *= kPrime;
    return p;
  }();
  for (size_t i = 0; i < sizeof(T); ++i) {
    h ^= (uint64_t(v) >> (8 * i)) & 0xFF;
    h *= kPrime;
  }
  return sizeof(T) < 8 ? h * kZeroBytes : h;
}

}  // namespace sensmart::net
