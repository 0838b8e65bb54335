// Seeded hostile-node model for the adversarial dimension of the chaos
// harness (DESIGN.md §11). Plugged into NetSim::set_hostile_model, it
// occupies one receiver slot, overhears traffic, and spends its TX
// opportunities on a seeded mix of attacks against the dissemination
// protocol:
//
//   garbage      random byte spew (deframer resync pressure)
//   truncation   length-lying headers and cut-off frames (desync attacks)
//   replay       overheard frames re-sent verbatim (stale chunks, duplicate
//                Nacks) or bit-flipped — before or after the CRC bytes, so
//                both the CRC gate and the layers behind it get hit
//   forge_summary forged Summaries: a self-consistent announcement of the
//                attacker's own precomputed image (valid geometry + true
//                CRC-32 of the forged bytes, random MAC), plus bogus
//                variants (wrong version, inconsistent geometry, huge
//                image_bytes)
//   forge_data   Data chunks of the forged image — with forge_summary this
//                is a complete, CRC-consistent forged install attempt that
//                only the MAC gate can stop
//   nack_flood   Nack floods under its own and spoofed node ids (liveness
//                poisoning, retransmit-queue pressure)
//   ack_spoof    forged Acks claiming honest nodes' completions (with
//                random or absent tags)
//   collide      transmit over a busy channel (mesh capture collisions)
//
// Everything is a pure function of (profile, overheard bytes): adversarial
// runs replay byte-identically by seed, exactly like honest ones.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/prng.hpp"
#include "net/frame.hpp"
#include "net/netsim.hpp"

namespace sensmart::chaos {

struct HostileProfile {
  uint64_t seed = 1;
  uint16_t node = 1;         // id the attacker transmits under when spoofing
  uint8_t version = 1;       // protocol version to imitate
  uint16_t nodes = 4;        // fleet size (spoofed ids are drawn from it)
  uint8_t chunk_payload = 32;  // geometry imitated by the forged image
  uint32_t forged_bytes = 192;  // size of the precomputed forged image
  uint32_t intensity_pct = 60;  // share of TX opportunities used
  // Attack mix toggles (all on by default); tests narrow the mix to
  // demonstrate a single vector.
  bool garbage = true;
  bool truncation = true;
  bool replay = true;
  bool forge_summary = true;
  bool forge_data = true;
  bool nack_flood = true;
  bool ack_spoof = true;
  bool collide = true;
};

class HostileNode final : public net::HostileModel {
 public:
  explicit HostileNode(const HostileProfile& p);

  void observe(std::span<const uint8_t> bytes) override;
  bool emit(uint64_t now, bool air_clear, std::vector<uint8_t>& out) override;

  uint64_t frames_emitted() const { return emitted_; }
  // The forged image the attacker tries to install (for test assertions:
  // with auth off a victim may really complete with these bytes).
  const std::vector<uint8_t>& forged_blob() const { return forged_; }
  uint32_t forged_crc() const { return forged_crc_; }

 private:
  void emit_garbage(std::vector<uint8_t>& out);
  void emit_truncation(std::vector<uint8_t>& out);
  void emit_replay(std::vector<uint8_t>& out);
  void emit_forged_summary(std::vector<uint8_t>& out);
  void emit_forged_data(std::vector<uint8_t>& out);
  void emit_nack_flood(std::vector<uint8_t>& out);
  void emit_ack_spoof(std::vector<uint8_t>& out);
  uint16_t spoofed_id();

  HostileProfile p_;
  Prng r_;
  net::Deframer deframer_;              // parses overheard traffic
  std::vector<net::Frame> corpus_;      // replay material (bounded ring)
  size_t corpus_next_ = 0;
  std::vector<uint8_t> forged_;         // precomputed forged image
  uint32_t forged_crc_ = 0;
  uint16_t forged_chunks_ = 0;
  uint64_t forged_mac_ = 0;             // random (the attacker has no key)
  uint16_t next_forged_chunk_ = 0;      // round-robin serve cursor
  uint64_t emitted_ = 0;
};

}  // namespace sensmart::chaos
