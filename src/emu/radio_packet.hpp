// One received radio packet as DeviceHub's receive queue holds it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace sensmart::emu {

// Immutable once built and shared by reference: every delivery of one
// transmission points at the same bytes, so a broadcast costs one buffer
// however many radios hear it (DESIGN.md §7). A simulator may derive from
// it to keep host-side facts about the bytes next to them; the receive
// path itself only reads `bytes`.
struct RadioPacket {
  explicit RadioPacket(std::span<const uint8_t> b)
      : bytes(b.begin(), b.end()) {}
  explicit RadioPacket(std::vector<uint8_t>&& b) : bytes(std::move(b)) {}
  RadioPacket(const RadioPacket&) = delete;
  RadioPacket& operator=(const RadioPacket&) = delete;
  virtual ~RadioPacket() = default;

  // The derived type's tag: true only on a net::ParsedPacket whose bytes
  // are exactly one whole frame, so a deframer may take its parsed frame
  // without a type query. Always false on a plain RadioPacket.
  bool whole_frame_tag() const { return whole_frame_tag_; }

  std::vector<uint8_t> bytes;

 protected:
  bool whole_frame_tag_ = false;
};

using RadioPacketRef = std::shared_ptr<const RadioPacket>;

}  // namespace sensmart::emu
