// Over-the-air frame format of the dissemination protocol (DESIGN.md §7).
//
// Every radio packet is one frame:
//
//   [0]      sync byte 0xA5
//   [1]      type (FrameType)
//   [2]      image version
//   [3..4]   seq, little-endian (chunk index for Data; node id for Nack/Ack)
//   [5]      payload length L (0..kMaxPayload)
//   [6..6+L) payload
//   [6+L..]  CRC-16/CCITT over bytes [1, 6+L), little-endian
//
// The receive side parses the raw RX byte stream with a resynchronizing
// Deframer: a corrupted sync byte, length byte or CRC drops bytes until the
// next parseable frame — corruption is detected, never delivered.
//
// A transmitted packet is parsed once, when it goes on the air
// (ParsedPacket). A receiver whose deframer assembles that packet from one
// clean shared copy, starting with nothing else buffered, reuses the
// verdict instead of copying, CRC-checking and decoding the bytes again
// (DESIGN.md §9).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "emu/radio_packet.hpp"

namespace sensmart::net {

inline constexpr uint8_t kFrameSync = 0xA5;
inline constexpr size_t kMaxPayload = 48;
inline constexpr size_t kFrameOverhead = 8;  // sync+type+ver+seq2+len+crc2

enum class FrameType : uint8_t {
  Summary = 1,  // image metadata: total chunks, byte size, whole-image CRC
  Data = 2,     // one chunk of the image blob
  Nack = 3,     // receiver -> base: list of missing chunk indices
  Ack = 4,      // receiver -> base: whole image received and verified
  Control = 5,  // base -> node: staged-rollout command (DESIGN.md §12)
};

struct Frame {
  FrameType type = FrameType::Data;
  uint8_t version = 0;
  uint16_t seq = 0;
  std::vector<uint8_t> payload;
};

// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) — frame integrity.
uint16_t crc16_ccitt(std::span<const uint8_t> bytes);
// CRC-32 (reflected, poly 0xEDB88320) — whole-image integrity.
uint32_t crc32(std::span<const uint8_t> bytes);

// Serialize a frame into wire bytes (one radio packet).
std::vector<uint8_t> encode_frame(const Frame& f);
// Allocation-free variant for per-packet hot paths: `out` is cleared and
// refilled, keeping its capacity, so a caller-owned scratch buffer makes
// steady-state encoding allocation-free.
void encode_frame_into(const Frame& f, std::vector<uint8_t>& out);

// A transmitted packet with the byte-wise Deframer's verdict on it: when
// `whole_frame` holds, an empty Deframer fed exactly these bytes delivers
// `frame` and consumes every byte, with no skipped byte and no CRC error.
// Any other packet (garbage, truncated, several frames, unknown type) has
// whole_frame false and is always parsed byte by byte.
struct ParsedPacket final : emu::RadioPacket {
  explicit ParsedPacket(std::span<const uint8_t> b);

  bool whole_frame = false;
  Frame frame;  // valid when whole_frame
};

// Streaming parser over the raw RX byte sequence. Its output is a function
// of the bytes pushed alone, however they are split into pushes.
class Deframer {
 public:
  void push(uint8_t byte) { push(std::span<const uint8_t>(&byte, 1)); }
  void push(std::span<const uint8_t> bytes);
  // Push packet->bytes[offset, offset + length) without copying when the
  // slice continues a whole-frame ParsedPacket started with nothing else
  // buffered; otherwise the bytes are copied as push(span) would.
  void push(emu::RadioPacketRef packet, size_t offset, size_t length);
  // Next complete, CRC-valid frame, or nullopt if more bytes are needed.
  // Invalid prefixes are skipped byte-by-byte (resync).
  std::optional<Frame> next();
  // Same, filling `out` (its payload capacity is reused); false if more
  // bytes are needed.
  bool next(Frame& out);
  // Same, without a copy when the frame is a whole shared packet: returns
  // that packet's frame and sets `owner` to the packet, which keeps the
  // frame alive; otherwise decodes into `scratch` and returns it. nullptr
  // if more bytes are needed.
  const Frame* next(Frame& scratch, emu::RadioPacketRef& owner);
  // How many more bytes must be pushed before next() can decide anything
  // (deliver a frame, or reject the head candidate on its CRC): the rest
  // of the head candidate's header or body, kFrameOverhead when the buffer
  // is empty, 0 when next() can already make progress. Never more than
  // kFrameOverhead + kMaxPayload.
  size_t need() const;
  // need() looked ahead over the bytes still to come: `peek(i)` is the
  // i-th byte after those pushed (a std::optional<uint8_t>, nullopt past
  // the last one known). Returns the byte count at which need(), chained
  // over those bytes, first reaches 0 — so a head candidate whose sync and
  // length bytes are known waits for its last byte, not for its header —
  // or need() itself when the known bytes run out first.
  template <typename Peek>
  size_t need(Peek&& peek) const;

  uint64_t crc_errors() const { return crc_errors_; }
  uint64_t skipped_bytes() const { return skipped_; }

 private:
  // Copy the partial packet's bytes into buf_ (it stops being shared).
  void unshare();
  // The unparsed bytes after the ready packets: the shared partial prefix
  // or the copied buffer's tail.
  std::span<const uint8_t> unparsed() const {
    return partial_ ? std::span<const uint8_t>(partial_->bytes.data(),
                                               partial_have_)
                    : std::span<const uint8_t>(buf_).subspan(head_);
  }

  // The unparsed stream is, in order: whole shared packets ready_[ready_head_,
  // end), then either the first partial_have_ bytes of the shared packet
  // partial_ or the copied bytes buf_[head_, end) — never both. The
  // consumed prefix of buf_ is dropped on the next push.
  std::vector<std::shared_ptr<const ParsedPacket>> ready_;
  size_t ready_head_ = 0;
  std::shared_ptr<const ParsedPacket> partial_;
  size_t partial_have_ = 0;
  std::vector<uint8_t> buf_;
  size_t head_ = 0;
  uint64_t crc_errors_ = 0;
  uint64_t skipped_ = 0;
};

template <typename Peek>
size_t Deframer::need(Peek&& peek) const {
  const size_t k = need();
  const std::span<const uint8_t> have = unparsed();
  // Past the header, need() already counts to the candidate's end.
  if (k == 0 || have.size() >= kFrameOverhead) return k;
  const auto at = [&](size_t i) -> std::optional<uint8_t> {
    return i < have.size() ? std::optional<uint8_t>(have[i])
                           : peek(i - have.size());
  };
  // After k bytes the header is complete. Unless it opens a candidate of
  // a valid length, next() can act there (skip, or resync on the length).
  const std::optional<uint8_t> sync = at(0), len = at(5);
  if (sync != kFrameSync || !len || *len > kMaxPayload) return k;
  const size_t rest = kFrameOverhead + *len - have.size();
  return peek(rest - 1) ? rest : k;
}

// --- Typed payloads ---------------------------------------------------------
//
// Mesh extensions (DESIGN.md §10) and authentication (DESIGN.md §11) reuse
// the same four frame types and the same wire layout; every variant is
// distinguished purely by payload length, so the legacy single-hop (star)
// unauthenticated encodings are byte-for-byte unchanged:
//   Summary  star: 11-byte payload, seq = 0.
//            mesh: 13-byte payload (sender id appended), seq = sender hop.
//            auth: an 8-byte SipHash-2-4 image MAC inserted after the
//            geometry (star 19, mesh 21 — the sender stays last).
//   Nack     star: [count][missing pairs...], seq = sender id.
//            mesh: star payload + [target lo][target hi][sender hop]; the
//            target is the parent the Nack asks to serve (0 = base,
//            kNackAnyTarget = "anyone: re-announce the Summary").
//   Ack      star: empty payload, seq = verified node id.
//            mesh: [relayer lo][relayer hi][relayer hop], seq = origin —
//            relayed hop-by-hop toward the base, origin preserved.
//            auth: an 8-byte keyed tag appended (star 8, mesh 11) binding
//            (origin, version, image CRC) — see net/auth.hpp.
//   Data     identical in all modes (any holder can serve a chunk).

struct SummaryInfo {
  uint16_t total_chunks = 0;
  uint32_t image_bytes = 0;
  uint32_t image_crc = 0;
  uint8_t chunk_payload = 0;  // bytes per Data chunk (last may be short)
  // Authenticated dissemination only: SipHash-2-4 MAC over the image blob.
  bool has_mac = false;
  uint64_t image_mac = 0;
  // Mesh only: the node that transmitted this Summary (relays rewrite it).
  bool has_sender = false;
  uint16_t sender = 0;
};

Frame make_summary(uint8_t version, const SummaryInfo& info);
// Mesh Summary: same geometry payload plus the sender id; the sender's
// hop count rides in the frame's seq field.
Frame make_mesh_summary(uint8_t version, const SummaryInfo& info,
                        uint16_t sender, uint16_t hop);
std::optional<SummaryInfo> parse_summary(const Frame& f);

// A Nack carries up to kMaxNackList missing chunk indices; an empty list
// means "I have no summary yet — send it".
inline constexpr size_t kMaxNackList = 16;
Frame make_nack(uint8_t version, uint16_t node_id,
                std::span<const uint16_t> missing);
std::optional<std::vector<uint16_t>> parse_nack(const Frame& f);

// Mesh Nack target asking any neighbor to re-announce the Summary (used
// when the sender knows no parent yet, e.g. right after a reboot). By
// protocol no one answers it with Data — only with a Summary relay — so
// it can never trigger a duplicate-serving storm.
inline constexpr uint16_t kNackAnyTarget = 0xFFFF;

struct MeshNack {
  std::vector<uint16_t> missing;
  uint16_t target = kNackAnyTarget;  // node asked to serve (0 = base)
  uint16_t hop = 0;                  // sender's hop count
};

Frame make_mesh_nack(uint8_t version, uint16_t node_id,
                     std::span<const uint16_t> missing, uint16_t target,
                     uint16_t hop);
std::optional<MeshNack> parse_mesh_nack(const Frame& f);

// Mesh Ack: seq carries the origin (the node whose install is being
// acknowledged, exactly as in star mode); the payload identifies the
// relayer so receivers can tell downstream acks (to relay) from upstream
// ones (to suppress).
struct MeshAck {
  uint16_t relayer = 0;
  uint16_t hop = 0;  // relayer's hop count
  // Authenticated runs only: keyed tag over (origin, version, image CRC).
  bool has_tag = false;
  uint64_t tag = 0;
};

Frame make_mesh_ack(uint8_t version, uint16_t origin, uint16_t relayer,
                    uint16_t hop);
Frame make_mesh_ack(uint8_t version, uint16_t origin, uint16_t relayer,
                    uint16_t hop, uint64_t tag);
std::optional<MeshAck> parse_mesh_ack(const Frame& f);

// Authenticated star Ack: empty legacy payload replaced by the 8-byte tag.
Frame make_auth_ack(uint8_t version, uint16_t origin, uint64_t tag);
// Extract the auth tag from either Ack variant (star 8 / mesh 11 payload);
// nullopt if the frame carries none (legacy encodings).
std::optional<uint64_t> ack_auth_tag(const Frame& f);

// --- Staged rollout (DESIGN.md §12) -----------------------------------------
//
// Two additions ride the existing wire format:
//   Control  base -> node command, its own frame type (5); seq = target id.
//            payload: [cmd][ctl_seq lo][ctl_seq hi][image_crc x4] = 7 bytes;
//            authenticated runs append an 8-byte keyed tag (15). In mesh
//            mode Controls are flood-relayed verbatim (tag included), so
//            the encoding is topology-independent.
//   Health   node -> base report, an Ack-type frame discriminated (like
//            every other variant) purely by payload length; seq = origin.
//            payload: [flags][restarts x2][quarantines x2][watchdog x2]
//            [image_crc x4][active_slot] = 12 bytes; mesh appends
//            [relayer x2][hop] (15); auth inserts the 8-byte tag after the
//            12-byte core (star 20, mesh 23). All four sizes are disjoint
//            from the legacy Ack set {0, 3, 8, 11}, so legacy parsing is
//            byte-for-byte unchanged.

enum class ControlCmd : uint8_t {
  ActivateTrial = 1,  // stage the verified transfer image and boot it
  ConfirmTrial = 2,   // probation passed: promote the trial slot
  Rollback = 3,       // fall back to the previous image (also acks failures)
};

struct ControlInfo {
  ControlCmd cmd = ControlCmd::ActivateTrial;
  uint16_t ctl_seq = 0;    // base-minted, strictly increasing per send
  uint32_t image_crc = 0;  // the rollout image this command is about
  bool has_tag = false;
  uint64_t tag = 0;
};

Frame make_control(uint8_t version, uint16_t target, const ControlInfo& info);
std::optional<ControlInfo> parse_control(const Frame& f);

// Health-report flags (bitmask).
inline constexpr uint8_t kHealthTrialClean = 0x01;     // probation passed
inline constexpr uint8_t kHealthConfirmed = 0x02;      // trial promoted
inline constexpr uint8_t kHealthRolledBack = 0x04;     // back on old image
inline constexpr uint8_t kHealthBootInterrupted = 0x08; // reboot mid-trial
inline constexpr uint8_t kHealthGateFailed = 0x10;     // quarantine/watchdog

struct HealthReport {
  uint8_t flags = 0;
  uint16_t restarts = 0;
  uint16_t quarantines = 0;
  uint16_t watchdog_fires = 0;
  uint32_t image_crc = 0;  // CRC of the active slot's image
  uint8_t active_slot = 0;
  // Mesh relaying (outside the auth tag, exactly like mesh Acks).
  bool has_relayer = false;
  uint16_t relayer = 0;
  uint16_t hop = 0;
  bool has_tag = false;
  uint64_t tag = 0;
};

Frame make_health(uint8_t version, uint16_t origin, const HealthReport& hr);
std::optional<HealthReport> parse_health(const Frame& f);
// The 12 tag-covered core bytes of a health payload (for keyed tags).
std::array<uint8_t, 12> health_core(const HealthReport& hr);

}  // namespace sensmart::net
