#include "net/frame.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace sensmart::net {

namespace {

// Byte-at-a-time lookup tables: entry i is the register after shifting
// byte i through the bit-serial loop, so one lookup replaces eight steps.
constexpr std::array<uint16_t, 256> kCrc16Table = [] {
  std::array<uint16_t, 256> t{};
  for (unsigned i = 0; i < 256; ++i) {
    uint16_t c = static_cast<uint16_t>(i << 8);
    for (int k = 0; k < 8; ++k)
      c = (c & 0x8000) ? static_cast<uint16_t>((c << 1) ^ 0x1021)
                       : static_cast<uint16_t>(c << 1);
    t[i] = c;
  }
  return t;
}();

constexpr std::array<uint32_t, 256> kCrc32Table = [] {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[i] = c;
  }
  return t;
}();

}  // namespace

uint16_t crc16_ccitt(std::span<const uint8_t> bytes) {
  uint16_t crc = 0xFFFF;
  for (uint8_t b : bytes)
    crc = static_cast<uint16_t>((crc << 8) ^
                                kCrc16Table[((crc >> 8) ^ b) & 0xFF]);
  return crc;
}

uint32_t crc32(std::span<const uint8_t> bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t b : bytes) crc = (crc >> 8) ^ kCrc32Table[(crc ^ b) & 0xFF];
  return ~crc;
}

std::vector<uint8_t> encode_frame(const Frame& f) {
  std::vector<uint8_t> out;
  encode_frame_into(f, out);
  return out;
}

void encode_frame_into(const Frame& f, std::vector<uint8_t>& out) {
  out.clear();
  out.reserve(kFrameOverhead + f.payload.size());
  out.push_back(kFrameSync);
  out.push_back(static_cast<uint8_t>(f.type));
  out.push_back(f.version);
  out.push_back(static_cast<uint8_t>(f.seq & 0xFF));
  out.push_back(static_cast<uint8_t>(f.seq >> 8));
  out.push_back(static_cast<uint8_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  const uint16_t crc =
      crc16_ccitt(std::span<const uint8_t>(out).subspan(1, 5 + f.payload.size()));
  out.push_back(static_cast<uint8_t>(crc & 0xFF));
  out.push_back(static_cast<uint8_t>(crc >> 8));
}

ParsedPacket::ParsedPacket(std::span<const uint8_t> b)
    : emu::RadioPacket(b) {
  // The verdict is the byte-wise parser's own. A first frame as long as
  // the packet must start at byte 0, with no byte skipped or rejected
  // before it.
  Deframer d;
  d.push(bytes);
  whole_frame = d.next(frame) &&
                kFrameOverhead + frame.payload.size() == bytes.size();
}

void Deframer::push(std::span<const uint8_t> bytes) {
  if (partial_) unshare();
  if (head_ != 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Deframer::push(emu::RadioPacketRef packet, size_t offset,
                    size_t length) {
  if (length == 0) return;
  if (partial_) {
    if (packet == partial_ && offset == partial_have_) {
      partial_have_ += length;
      if (partial_have_ == partial_->bytes.size())
        ready_.push_back(std::move(partial_));
      return;
    }
  } else if (offset == 0 && head_ == buf_.size()) {
    const auto* parsed = dynamic_cast<const ParsedPacket*>(packet.get());
    if (parsed && parsed->whole_frame) {
      std::shared_ptr<const ParsedPacket> p(std::move(packet), parsed);
      if (length == p->bytes.size()) {
        ready_.push_back(std::move(p));
      } else {
        partial_ = std::move(p);
        partial_have_ = length;
      }
      return;
    }
  }
  push(std::span<const uint8_t>(packet->bytes).subspan(offset, length));
}

void Deframer::unshare() {
  // No copied byte is unparsed while a packet is partial.
  buf_.assign(partial_->bytes.begin(),
              partial_->bytes.begin() + static_cast<ptrdiff_t>(partial_have_));
  head_ = 0;
  partial_.reset();
}

std::optional<Frame> Deframer::next() {
  Frame f;
  if (!next(f)) return std::nullopt;
  return f;
}

bool Deframer::next(Frame& out) {
  emu::RadioPacketRef owner;
  const Frame* f = next(out, owner);
  if (f && f != &out) out = *f;
  return f != nullptr;
}

const Frame* Deframer::next(Frame& scratch, emu::RadioPacketRef& owner) {
  if (ready_head_ < ready_.size()) {
    const ParsedPacket& p = *ready_[ready_head_];
    owner = std::move(ready_[ready_head_]);
    if (++ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return &p.frame;
  }
  while (head_ < buf_.size()) {
    const uint8_t* p = buf_.data() + head_;
    const size_t avail = buf_.size() - head_;
    if (p[0] != kFrameSync) {
      // Skip to the next sync byte (or past everything buffered).
      const auto* sync =
          static_cast<const uint8_t*>(std::memchr(p, kFrameSync, avail));
      const size_t skip = sync ? static_cast<size_t>(sync - p) : avail;
      head_ += skip;
      skipped_ += skip;
      continue;
    }
    if (avail < kFrameOverhead) return nullptr;  // need header
    const uint8_t len = p[5];
    if (len > kMaxPayload) {  // impossible length: lost sync
      ++head_;
      ++skipped_;
      continue;
    }
    const size_t total = kFrameOverhead + len;
    if (avail < total) return nullptr;  // frame still arriving
    const uint16_t want = static_cast<uint16_t>(
        p[6 + len] | (static_cast<uint16_t>(p[7 + len]) << 8));
    if (crc16_ccitt({p + 1, 5u + len}) != want) {
      ++crc_errors_;
      ++head_;  // resync from the next byte
      ++skipped_;
      continue;
    }
    const uint8_t rawtype = p[1];
    head_ += total;
    if (rawtype < uint8_t(FrameType::Summary) ||
        rawtype > uint8_t(FrameType::Control)) {
      // CRC-valid but unknown type (future protocol revision): skip it.
      ++crc_errors_;
      continue;
    }
    scratch.type = static_cast<FrameType>(rawtype);
    scratch.version = p[2];
    scratch.seq =
        static_cast<uint16_t>(p[3] | (static_cast<uint16_t>(p[4]) << 8));
    scratch.payload.assign(p + 6, p + 6 + len);
    return &scratch;
  }
  return nullptr;
}

size_t Deframer::need() const {
  if (ready_head_ < ready_.size()) return 0;
  const std::span<const uint8_t> have = unparsed();
  const uint8_t* p = have.data();
  const size_t avail = have.size();
  if (avail == 0) return kFrameOverhead;
  if (p[0] != kFrameSync) return 0;
  if (avail < kFrameOverhead) return kFrameOverhead - avail;
  const uint8_t len = p[5];
  if (len > kMaxPayload) return 0;
  const size_t total = kFrameOverhead + len;
  return avail < total ? total - avail : 0;
}

Frame make_summary(uint8_t version, const SummaryInfo& info) {
  Frame f;
  f.type = FrameType::Summary;
  f.version = version;
  f.seq = 0;
  auto& p = f.payload;
  p.push_back(static_cast<uint8_t>(info.total_chunks & 0xFF));
  p.push_back(static_cast<uint8_t>(info.total_chunks >> 8));
  for (int i = 0; i < 4; ++i)
    p.push_back(static_cast<uint8_t>(info.image_bytes >> (8 * i)));
  for (int i = 0; i < 4; ++i)
    p.push_back(static_cast<uint8_t>(info.image_crc >> (8 * i)));
  p.push_back(info.chunk_payload);
  if (info.has_mac)
    for (int i = 0; i < 8; ++i)
      p.push_back(static_cast<uint8_t>(info.image_mac >> (8 * i)));
  return f;
}

Frame make_mesh_summary(uint8_t version, const SummaryInfo& info,
                        uint16_t sender, uint16_t hop) {
  Frame f = make_summary(version, info);
  f.seq = hop;
  f.payload.push_back(static_cast<uint8_t>(sender & 0xFF));
  f.payload.push_back(static_cast<uint8_t>(sender >> 8));
  return f;
}

std::optional<SummaryInfo> parse_summary(const Frame& f) {
  // Four valid payload sizes: 11 geometry-only (star), 13 +sender (mesh),
  // 19 +MAC (authenticated star), 21 +MAC +sender (authenticated mesh).
  const size_t sz = f.payload.size();
  if (f.type != FrameType::Summary ||
      (sz != 11 && sz != 13 && sz != 19 && sz != 21))
    return std::nullopt;
  SummaryInfo s;
  s.total_chunks = static_cast<uint16_t>(
      f.payload[0] | (static_cast<uint16_t>(f.payload[1]) << 8));
  for (int i = 0; i < 4; ++i)
    s.image_bytes |= static_cast<uint32_t>(f.payload[2 + i]) << (8 * i);
  for (int i = 0; i < 4; ++i)
    s.image_crc |= static_cast<uint32_t>(f.payload[6 + i]) << (8 * i);
  s.chunk_payload = f.payload[10];
  if (s.chunk_payload == 0 || s.chunk_payload > kMaxPayload) return std::nullopt;
  size_t at = 11;
  if (sz == 19 || sz == 21) {
    s.has_mac = true;
    for (int i = 0; i < 8; ++i)
      s.image_mac |= static_cast<uint64_t>(f.payload[at + i]) << (8 * i);
    at += 8;
  }
  if (sz == 13 || sz == 21) {
    s.has_sender = true;
    s.sender = static_cast<uint16_t>(
        f.payload[at] | (static_cast<uint16_t>(f.payload[at + 1]) << 8));
  }
  return s;
}

Frame make_nack(uint8_t version, uint16_t node_id,
                std::span<const uint16_t> missing) {
  Frame f;
  f.type = FrameType::Nack;
  f.version = version;
  f.seq = node_id;
  const size_t n = std::min(missing.size(), kMaxNackList);
  f.payload.push_back(static_cast<uint8_t>(n));
  for (size_t i = 0; i < n; ++i) {
    f.payload.push_back(static_cast<uint8_t>(missing[i] & 0xFF));
    f.payload.push_back(static_cast<uint8_t>(missing[i] >> 8));
  }
  return f;
}

std::optional<std::vector<uint16_t>> parse_nack(const Frame& f) {
  if (f.type != FrameType::Nack || f.payload.empty()) return std::nullopt;
  const size_t n = f.payload[0];
  if (n > kMaxNackList || f.payload.size() != 1 + 2 * n) return std::nullopt;
  std::vector<uint16_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.push_back(static_cast<uint16_t>(
        f.payload[1 + 2 * i] |
        (static_cast<uint16_t>(f.payload[2 + 2 * i]) << 8)));
  return out;
}

Frame make_mesh_nack(uint8_t version, uint16_t node_id,
                     std::span<const uint16_t> missing, uint16_t target,
                     uint16_t hop) {
  Frame f = make_nack(version, node_id, missing);
  f.payload.push_back(static_cast<uint8_t>(target & 0xFF));
  f.payload.push_back(static_cast<uint8_t>(target >> 8));
  f.payload.push_back(static_cast<uint8_t>(std::min<uint16_t>(hop, 0xFF)));
  return f;
}

std::optional<MeshNack> parse_mesh_nack(const Frame& f) {
  if (f.type != FrameType::Nack || f.payload.empty()) return std::nullopt;
  const size_t n = f.payload[0];
  if (n > kMaxNackList || f.payload.size() != 1 + 2 * n + 3)
    return std::nullopt;
  MeshNack out;
  out.missing.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.missing.push_back(static_cast<uint16_t>(
        f.payload[1 + 2 * i] |
        (static_cast<uint16_t>(f.payload[2 + 2 * i]) << 8)));
  const size_t at = 1 + 2 * n;
  out.target = static_cast<uint16_t>(
      f.payload[at] | (static_cast<uint16_t>(f.payload[at + 1]) << 8));
  out.hop = f.payload[at + 2];
  return out;
}

Frame make_mesh_ack(uint8_t version, uint16_t origin, uint16_t relayer,
                    uint16_t hop) {
  Frame f;
  f.type = FrameType::Ack;
  f.version = version;
  f.seq = origin;
  f.payload.push_back(static_cast<uint8_t>(relayer & 0xFF));
  f.payload.push_back(static_cast<uint8_t>(relayer >> 8));
  f.payload.push_back(static_cast<uint8_t>(std::min<uint16_t>(hop, 0xFF)));
  return f;
}

Frame make_mesh_ack(uint8_t version, uint16_t origin, uint16_t relayer,
                    uint16_t hop, uint64_t tag) {
  Frame f = make_mesh_ack(version, origin, relayer, hop);
  for (int i = 0; i < 8; ++i)
    f.payload.push_back(static_cast<uint8_t>(tag >> (8 * i)));
  return f;
}

std::optional<MeshAck> parse_mesh_ack(const Frame& f) {
  const size_t sz = f.payload.size();
  if (f.type != FrameType::Ack || (sz != 3 && sz != 11)) return std::nullopt;
  MeshAck out;
  out.relayer = static_cast<uint16_t>(
      f.payload[0] | (static_cast<uint16_t>(f.payload[1]) << 8));
  out.hop = f.payload[2];
  if (sz == 11) {
    out.has_tag = true;
    for (int i = 0; i < 8; ++i)
      out.tag |= static_cast<uint64_t>(f.payload[3 + i]) << (8 * i);
  }
  return out;
}

Frame make_auth_ack(uint8_t version, uint16_t origin, uint64_t tag) {
  Frame f;
  f.type = FrameType::Ack;
  f.version = version;
  f.seq = origin;
  for (int i = 0; i < 8; ++i)
    f.payload.push_back(static_cast<uint8_t>(tag >> (8 * i)));
  return f;
}

std::optional<uint64_t> ack_auth_tag(const Frame& f) {
  const size_t sz = f.payload.size();
  if (f.type != FrameType::Ack || (sz != 8 && sz != 11)) return std::nullopt;
  const size_t at = sz == 8 ? 0 : 3;  // star: tag only; mesh: after relayer+hop
  uint64_t tag = 0;
  for (int i = 0; i < 8; ++i)
    tag |= static_cast<uint64_t>(f.payload[at + i]) << (8 * i);
  return tag;
}

Frame make_control(uint8_t version, uint16_t target, const ControlInfo& info) {
  Frame f;
  f.type = FrameType::Control;
  f.version = version;
  f.seq = target;
  auto& p = f.payload;
  p.push_back(static_cast<uint8_t>(info.cmd));
  p.push_back(static_cast<uint8_t>(info.ctl_seq & 0xFF));
  p.push_back(static_cast<uint8_t>(info.ctl_seq >> 8));
  for (int i = 0; i < 4; ++i)
    p.push_back(static_cast<uint8_t>(info.image_crc >> (8 * i)));
  if (info.has_tag)
    for (int i = 0; i < 8; ++i)
      p.push_back(static_cast<uint8_t>(info.tag >> (8 * i)));
  return f;
}

std::optional<ControlInfo> parse_control(const Frame& f) {
  const size_t sz = f.payload.size();
  if (f.type != FrameType::Control || (sz != 7 && sz != 15))
    return std::nullopt;
  ControlInfo c;
  const uint8_t cmd = f.payload[0];
  if (cmd < uint8_t(ControlCmd::ActivateTrial) ||
      cmd > uint8_t(ControlCmd::Rollback))
    return std::nullopt;
  c.cmd = static_cast<ControlCmd>(cmd);
  c.ctl_seq = static_cast<uint16_t>(
      f.payload[1] | (static_cast<uint16_t>(f.payload[2]) << 8));
  for (int i = 0; i < 4; ++i)
    c.image_crc |= static_cast<uint32_t>(f.payload[3 + i]) << (8 * i);
  if (sz == 15) {
    c.has_tag = true;
    for (int i = 0; i < 8; ++i)
      c.tag |= static_cast<uint64_t>(f.payload[7 + i]) << (8 * i);
  }
  return c;
}

std::array<uint8_t, 12> health_core(const HealthReport& hr) {
  std::array<uint8_t, 12> core{};
  core[0] = hr.flags;
  core[1] = static_cast<uint8_t>(hr.restarts & 0xFF);
  core[2] = static_cast<uint8_t>(hr.restarts >> 8);
  core[3] = static_cast<uint8_t>(hr.quarantines & 0xFF);
  core[4] = static_cast<uint8_t>(hr.quarantines >> 8);
  core[5] = static_cast<uint8_t>(hr.watchdog_fires & 0xFF);
  core[6] = static_cast<uint8_t>(hr.watchdog_fires >> 8);
  for (int i = 0; i < 4; ++i)
    core[7 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(hr.image_crc >> (8 * i));
  core[11] = hr.active_slot;
  return core;
}

Frame make_health(uint8_t version, uint16_t origin, const HealthReport& hr) {
  Frame f;
  f.type = FrameType::Ack;
  f.version = version;
  f.seq = origin;
  const auto core = health_core(hr);
  f.payload.assign(core.begin(), core.end());
  if (hr.has_tag)
    for (int i = 0; i < 8; ++i)
      f.payload.push_back(static_cast<uint8_t>(hr.tag >> (8 * i)));
  if (hr.has_relayer) {
    f.payload.push_back(static_cast<uint8_t>(hr.relayer & 0xFF));
    f.payload.push_back(static_cast<uint8_t>(hr.relayer >> 8));
    f.payload.push_back(static_cast<uint8_t>(std::min<uint16_t>(hr.hop, 0xFF)));
  }
  return f;
}

std::optional<HealthReport> parse_health(const Frame& f) {
  // Four valid sizes: 12 core (star), 15 +relayer (mesh), 20 +tag
  // (authenticated star), 23 +tag +relayer (authenticated mesh).
  const size_t sz = f.payload.size();
  if (f.type != FrameType::Ack ||
      (sz != 12 && sz != 15 && sz != 20 && sz != 23))
    return std::nullopt;
  HealthReport hr;
  hr.flags = f.payload[0];
  const uint8_t known = kHealthTrialClean | kHealthConfirmed |
                        kHealthRolledBack | kHealthBootInterrupted |
                        kHealthGateFailed;
  if ((hr.flags & ~known) != 0) return std::nullopt;
  hr.restarts = static_cast<uint16_t>(
      f.payload[1] | (static_cast<uint16_t>(f.payload[2]) << 8));
  hr.quarantines = static_cast<uint16_t>(
      f.payload[3] | (static_cast<uint16_t>(f.payload[4]) << 8));
  hr.watchdog_fires = static_cast<uint16_t>(
      f.payload[5] | (static_cast<uint16_t>(f.payload[6]) << 8));
  for (int i = 0; i < 4; ++i)
    hr.image_crc |= static_cast<uint32_t>(f.payload[7 + i]) << (8 * i);
  hr.active_slot = f.payload[11];
  if (hr.active_slot > 1) return std::nullopt;
  size_t at = 12;
  if (sz == 20 || sz == 23) {
    hr.has_tag = true;
    for (int i = 0; i < 8; ++i)
      hr.tag |= static_cast<uint64_t>(f.payload[at + i]) << (8 * i);
    at += 8;
  }
  if (sz == 15 || sz == 23) {
    hr.has_relayer = true;
    hr.relayer = static_cast<uint16_t>(
        f.payload[at] | (static_cast<uint16_t>(f.payload[at + 1]) << 8));
    hr.hop = f.payload[at + 2];
  }
  return hr;
}

}  // namespace sensmart::net
