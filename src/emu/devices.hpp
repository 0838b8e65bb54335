// Peripheral models: Timer0 (8-bit, app-visible), Timer3 (16-bit global
// clock, kernel-reserved), an ADC with fixed conversion latency, a
// byte-oriented radio with CC1000-class transmit timing, LEDs, and the host
// simulation ports (log byte stream, program exit, deterministic random,
// timed sleep).
//
// Devices are driven lazily from the machine cycle counter: counters are
// computed on read, and a small event model answers "when does the next
// interesting thing happen" so SLEEP can fast-forward the clock.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "emu/io_map.hpp"
#include "emu/memory.hpp"
#include "emu/radio_packet.hpp"

namespace sensmart::emu {

// Lifecycle of one bootable image slot (DESIGN.md §12). A slot never holds
// a partially written image: Staged/Confirmed slots always contain the full
// byte-exact image their crc describes.
enum class SlotState : uint8_t {
  Empty = 0,      // no image
  Staged = 1,     // full image present, not yet proven in service
  Confirmed = 2,  // survived a probation window (or factory-installed)
  Rejected = 3,   // trial tripped the health gate; kept only as evidence
};

// One of the two A/B bootable images.
struct ImageSlot {
  SlotState state = SlotState::Empty;
  uint8_t version = 0;
  uint32_t crc = 0;  // CRC-32 of bytes
  std::vector<uint8_t> image;
};

// What the bootloader decided at power-up (consumed by the simulator for
// trace events).
enum class BootOutcome : uint8_t {
  Normal = 0,        // booted the active slot, nothing special
  TrialBoot = 1,     // the one sanctioned boot into a freshly staged trial
  TrialRollback = 2, // rebooted mid-probation without confirming: fell back
};

// Modeled non-volatile external flash holding over-the-air dissemination
// progress: the announced image geometry, the chunk bitmap, the partially
// reassembled image, and whether the whole-image CRC has verified. It
// survives DeviceHub::reboot(), so a crashed node resumes its transfer
// from this record instead of re-requesting every chunk (DESIGN.md §8).
//
// It also carries the dual A/B bootable slots and the trial state machine
// for staged rollout (DESIGN.md §12): the transfer area above reassembles
// the candidate image; activation copies it into the inactive slot and
// boots it as a *trial*. Exactly one boot into a trial is sanctioned
// (trial_boot_pending); any further power-up before confirm_trial() rolls
// back to the other slot automatically, so a crashing trial image can
// never become the only bootable state.
struct ImageStore {
  bool has_summary = false;   // geometry fields below are valid
  uint8_t image_version = 0;
  uint16_t total_chunks = 0;
  uint8_t chunk_payload = 0;  // bytes per full chunk
  uint32_t image_bytes = 0;
  uint32_t image_crc = 0;     // announced whole-image CRC-32
  // Authenticated dissemination (DESIGN.md §11): the announced keyed image
  // MAC, persisted with the geometry so a rebooted node still verifies
  // authenticity before activating a resumed transfer.
  bool has_mac = false;
  uint64_t image_mac = 0;
  bool verified = false;      // image[] complete and CRC-checked
  uint16_t chunks_have = 0;
  std::vector<uint8_t> have;  // per-chunk received flag (bitmap)
  std::vector<uint8_t> image;
  uint64_t writes = 0;        // committed chunk writes (flash-wear proxy)

  // A/B slots + trial state machine (DESIGN.md §12).
  ImageSlot slots[2];
  uint8_t active_slot = 0;          // which slot the bootloader runs
  bool trial_active = false;        // active slot is an unconfirmed trial
  bool trial_boot_pending = false;  // the single sanctioned trial boot
  // A boot-time auto-rollback happened and has not yet been acknowledged by
  // the base; persisted so the report survives further power cycles.
  bool rollback_report_pending = false;

  void erase() { *this = ImageStore{}; }

  // Copy the verified transfer image into the inactive slot (Staged).
  // Returns the slot index, or -1 if the transfer area is not verified.
  int stage_inactive(uint8_t version);
  // Point the bootloader at `slot` as a trial: the next power-up (and only
  // that one) boots it; any later unconfirmed power-up rolls back.
  void activate_trial(uint8_t slot);
  // Probation passed: promote the trial slot to Confirmed.
  void confirm_trial();
  // Abandon the trial: mark its slot Rejected and fall back to the other
  // slot. Safe to call whether or not the trial ever booted.
  void rollback_trial();
  // Fleet-wide halt: if the active slot is Confirmed with crc `crc`, demote
  // it and fall back to the other slot (which must hold a bootable image).
  // Returns true if a revert happened.
  bool revert_active(uint32_t crc);
  // Bootloader decision at power-up; mutates the trial flags.
  BootOutcome on_power_up();
};

// Versioned on-flash codec for ImageStore (DESIGN.md §12). Format 2 is the
// A/B layout; anything else — including the implicit pre-A/B single-slot
// format 1 — is rejected by deserialize_image_store, and the caller
// reformats the page instead of misparsing it.
inline constexpr uint8_t kImageStoreFormat = 2;
// Hard ceiling applied while decoding untrusted flash bytes, matching the
// protocol-level image-size ceiling (32 MiB).
inline constexpr uint32_t kMaxStoreImageBytes = 32u << 20;

std::vector<uint8_t> serialize_image_store(const ImageStore& st);
// Strict decode: format byte, bounds, cross-field consistency and a
// trailing page CRC-32 all gate acceptance. On any failure `out` is left
// untouched and false is returned.
bool deserialize_image_store(std::span<const uint8_t> page, ImageStore& out);

// Volatile health counters mirrored from the kernel's recovery machinery
// (supervision restarts, quarantines, watchdog kills — DESIGN.md §8).
// These feed the rollout health gate (§12): they are reset by reboot(), so
// a report covers exactly the current boot.
struct HealthCounters {
  uint32_t restarts = 0;
  uint32_t quarantines = 0;
  uint32_t watchdog_fires = 0;
};

class DeviceHub {
 public:
  // Radio timing: ~3072 cycles per byte on air (19.2 kbit/s at 7.37 MHz).
  static constexpr uint32_t kCyclesPerRadioByte = 3072;
  // RX buffer depth of the modeled transceiver. Bytes arriving while the
  // buffer is full are lost (counted in rx_overruns()) — a task that polls
  // too slowly drops trailing bytes, exactly like the real part.
  static constexpr size_t kRxBufferCap = 64;

  explicit DeviceHub(DataMemory& mem) : mem_(mem) {}

  // I/O window interception (wired into DataMemory by Machine).
  void io_access(uint16_t addr, uint8_t& value, bool write);

  // Reads that mutate device state (and can therefore shift interrupt
  // timing): popping a received radio byte, advancing the host LFSR, and
  // the Timer3 16-bit latch protocol. Everything else is a pure
  // observation and need not invalidate the machine's event horizon.
  static constexpr bool read_has_side_effects(uint16_t addr) {
    return addr == kRadioRxData || addr == kHostRandL || addr == kTcnt3L;
  }

  // Advance device state to `now` (cycle count) and latch interrupt flags.
  void sync(uint64_t now);
  // sync() for a device with Timer0 stopped (TCCR0 clock select 0) and no
  // ADC conversion armed, as on a node a host simulator drives without
  // guest code: there the Timer0 and ADC steps of sync() are no-ops, and
  // this skips them (and the data-memory read of TCCR0). It advances the
  // radio, which is all such a device has running.
  void sync_radio(uint64_t now);

  // Pending-interrupt query: highest-priority enabled+flagged line, if any.
  std::optional<Irq> pending_irq() const;
  // Acknowledge (clear the flag of) a dispatched line.
  void acknowledge(Irq irq);

  // Next cycle at which a device event (interrupt flag or sleep target)
  // will occur, for SLEEP fast-forwarding. nullopt = nothing scheduled.
  std::optional<uint64_t> next_event_after(uint64_t now) const;

  // Timed sleep: armed by writing kSleepTargetH; consumed by SLEEP.
  bool sleep_armed() const { return sleep_armed_; }
  void consume_sleep() { sleep_armed_ = false; }
  uint64_t sleep_wake_cycle() const { return sleep_wake_cycle_; }

  // Host-visible outputs.
  const std::vector<uint8_t>& host_out() const { return host_out_; }
  bool halted() const { return halted_; }
  void clear_halt() { halted_ = false; }
  uint8_t halt_code() const { return halt_code_; }
  const std::vector<std::vector<uint8_t>>& radio_packets() const {
    return radio_sent_;
  }

  // TX hand-off to a transmission medium (the multi-node simulator): called
  // once per completed packet with the sent bytes and the cycle at which
  // the last byte left the air. With a sink set the packet goes only to
  // the sink; radio_packets() records sends only when no sink is set, so a
  // fleet's memory does not grow with its airtime. Per-packet, not
  // per-byte, so the std::function indirection is off the emulation hot
  // path.
  using TxSink = std::function<void(std::span<const uint8_t>, uint64_t)>;
  void set_tx_sink(TxSink sink) { tx_sink_ = std::move(sink); }

  // Schedule an incoming packet over the air: byte i becomes readable at
  // kRadioRxData after (i+1) on-air byte times from the delivery start.
  // The receive path models a serial medium: while an earlier delivery is
  // still in the air, a newly scheduled packet queues behind it instead of
  // interleaving with (or shadowing) the in-flight bytes — its delivery
  // start is pushed to the end of the busy window. Returns the cycle the
  // delivery actually starts. The RadioPacketRef overload queues a shared
  // packet by reference; the span overload copies the bytes into one.
  uint64_t schedule_rx(RadioPacketRef packet, uint64_t at_cycle);
  uint64_t schedule_rx(std::span<const uint8_t> bytes, uint64_t at_cycle);
  // Back-compat aliases (delivery at the current device time).
  void inject_rx(std::span<const uint8_t> bytes, uint64_t at_cycle) {
    schedule_rx(bytes, at_cycle);
  }
  void inject_rx(std::span<const uint8_t> bytes) { schedule_rx(bytes, now_); }
  size_t rx_buffered() const { return rx_avail_bytes_; }
  // Bytes lost to a full RX buffer / total bytes handed to the buffer.
  uint64_t rx_overruns() const { return rx_overruns_; }
  uint64_t rx_delivered() const { return rx_delivered_; }
  // Drop any buffered and in-flight RX bytes (node reboot into a freshly
  // installed image; the half-received tail of the old session must not be
  // readable by the new program).
  void flush_rx();

  // Host-side radio access for simulators driving the device without guest
  // code (so, like sync_radio, on a device with Timer0 stopped and the ADC
  // idle). take_rx appends every readable RX byte to `out` and empties the
  // buffer — exactly what a loop of kRadioRxAvail/kRadioRxData reads at the
  // current device time returns, without the per-byte port round trip.
  void take_rx(std::vector<uint8_t>& out);
  // The same bytes without copying them: each buffered run is handed over
  // as sink(RadioPacketRef&& packet, size_t offset, size_t length), in
  // arrival order. A run is a contiguous slice of one packet; consecutive
  // runs of the same packet are split exactly where bytes between them
  // were lost to an overrun or the packet was delivered again.
  template <typename Sink>
  void take_rx_runs(Sink&& sink) {
    sync_radio(now_);
    for (; rx_runs_count_ > 0; --rx_runs_count_) {
      RxRun& r = rx_runs_[rx_runs_head_];
      sink(std::move(r.packet), size_t(r.offset), size_t(r.length));
      rx_runs_head_ = (rx_runs_head_ + 1) % kRxBufferCap;
    }
    rx_avail_bytes_ = 0;
  }
  // Cycle at which the k-th (1-based) unread byte — buffered bytes first,
  // then deliveries in flight — becomes readable, assuming no overrun in
  // between. Bytes already readable report the current device time;
  // nullopt if fewer than k bytes are buffered or in flight.
  std::optional<uint64_t> rx_arrival(size_t k) const;
  // The delivery in flight whose first byte is the next unread one, if no
  // received byte is unread and none of it has arrived: its packet, with
  // `begin` set to the cycle its delivery starts; otherwise nullptr.
  const RadioPacket* rx_next_delivery(uint64_t& begin) const {
    if (rx_avail_bytes_ != 0 || rx_cursor_ != 0 || rx_pending_.empty())
      return nullptr;
    begin = rx_pending_.front().begin;
    return rx_pending_.front().packet.get();
  }
  // The i-th (0-based) unread byte in the same order: buffered runs first,
  // then deliveries in flight from the front packet's cursor on; nullopt
  // past the last byte buffered or in flight.
  std::optional<uint8_t> peek_unread(size_t i) const;
  // Stage `bytes` in the transmit buffer and start sending them: the device
  // state writing each byte to kRadioData and then 1 to kRadioCtrl leaves,
  // from one sync and one append instead of a port round trip per byte.
  void radio_send(std::span<const uint8_t> bytes);
  // Completion cycle of the packet on the air, if one is transmitting.
  std::optional<uint64_t> tx_done_at() const { return radio_done_at_; }

  uint16_t timer3_ticks(uint64_t now) const {
    return static_cast<uint16_t>(now / kTimer3Prescale);
  }

  void set_adc_seed(uint16_t seed) { lfsr_ = seed ? seed : 0xACE1; }

  // Persistent (reboot-surviving) dissemination store.
  ImageStore& image_store() { return image_store_; }
  const ImageStore& image_store() const { return image_store_; }

  // Kernel health export (DESIGN.md §12): the supervisor mirrors every
  // restart/quarantine/watchdog event here so the rollout health gate reads
  // genuine kernel recovery stats. Volatile — cleared by reboot().
  void health_add(uint32_t restarts, uint32_t quarantines,
                  uint32_t watchdog_fires) {
    health_.restarts += restarts;
    health_.quarantines += quarantines;
    health_.watchdog_fires += watchdog_fires;
  }
  const HealthCounters& health() const { return health_; }

  // Replace the flash page with raw bytes (test / fault-injection surface).
  // A page that fails the strict format-2 decode is rejected and the store
  // reformatted to factory-empty; the sticky flag below reports it.
  bool load_flash_page(std::span<const uint8_t> page);
  // True once if the last reboot()/load_flash_page() had to reformat a
  // corrupt or foreign-format page (consumed by the caller).
  bool take_store_reformatted() {
    const bool r = store_reformatted_;
    store_reformatted_ = false;
    return r;
  }
  // Bootloader decision made during the last reboot().
  BootOutcome last_boot() const { return last_boot_; }

  // Node power-cycle: clear every volatile device state — staged/in-flight
  // TX, RX buffers and in-flight deliveries, timers, ADC conversion, sleep
  // latches — while preserving image_store() and the observer-side logs
  // (host_out(), radio_packets()). The cycle clock is global simulation
  // time and is NOT reset: a reboot costs time, not history. Deliveries
  // that land during the outage must be flushed again at power-up
  // (flush_rx()) — the radio was off.
  //
  // The image store survives via the on-flash codec: it is serialized and
  // strictly re-decoded on every power cycle (modeling the real flash
  // round-trip), and the bootloader's trial decision (on_power_up) is
  // applied — see last_boot().
  void reboot();

 private:
  static constexpr uint64_t kNever = ~0ULL;

  uint16_t lfsr_next();
  uint32_t timer0_prescale() const;
  void rx_arrive(uint64_t now);
  // The kRadioCtrl start strobe: move the staged packet on the air, or
  // queue it behind the one transmitting. No-op with nothing staged.
  void radio_go();

  DataMemory& mem_;
  uint64_t now_ = 0;

  // Timer0: counts cycles/prescale from t0_epoch_, 8-bit with overflow and
  // compare flags in TIFR.
  uint64_t t0_epoch_ = 0;
  uint8_t t0_start_ = 0;

  // ADC: a conversion started at adc_start_ completes kAdcLatency later.
  static constexpr uint32_t kAdcLatency = 200;
  std::optional<uint64_t> adc_done_at_;

  // Radio transmit path: bytes written to kRadioData stage in radio_buf_;
  // a kRadioCtrl start moves the staged packet in flight (radio_done_at_)
  // or, while a transmission is already in the air, onto tx_queue_ — the
  // queued packet starts back-to-back when the current one completes.
  std::vector<uint8_t> radio_buf_;
  std::vector<uint8_t> tx_inflight_;
  std::deque<std::vector<uint8_t>> tx_queue_;
  std::optional<uint64_t> radio_done_at_;
  bool radio_irq_flag_ = false;
  std::vector<std::vector<uint8_t>> radio_sent_;
  TxSink tx_sink_;
  // Receive path. Deliveries in flight are kept one entry per packet:
  // byte i of a packet arrives at begin + (i+1) * kCyclesPerRadioByte, and
  // rx_cursor_ counts the front packet's bytes that have already arrived
  // (into the buffer, or lost to an overrun). rx_next_at_ caches the
  // arrival of the next pending byte so the hot-path sync is one compare.
  // Arrived, unread bytes (at most kRxBufferCap) wait in a fixed ring of
  // runs, each a slice of one shared packet: the bytes themselves are never
  // copied on the way in, and a ring of kRxBufferCap runs always suffices
  // because every run holds at least one byte.
  struct RxPacket {
    uint64_t begin = 0;
    RadioPacketRef packet;
  };
  struct RxRun {
    RadioPacketRef packet;
    uint32_t offset = 0;
    uint32_t length = 0;
  };
  uint8_t rx_pop();
  std::deque<RxPacket> rx_pending_;
  size_t rx_cursor_ = 0;
  uint64_t rx_next_at_ = kNever;
  std::array<RxRun, kRxBufferCap> rx_runs_;
  size_t rx_runs_head_ = 0;
  size_t rx_runs_count_ = 0;
  size_t rx_avail_bytes_ = 0;
  uint64_t rx_busy_until_ = 0;  // serial-medium cursor for schedule_rx
  uint64_t rx_overruns_ = 0;
  uint64_t rx_delivered_ = 0;

  // Host ports.
  std::vector<uint8_t> host_out_;
  bool halted_ = false;
  uint8_t halt_code_ = 0;
  uint16_t lfsr_ = 0xACE1;
  uint8_t sleep_target_l_ = 0;
  bool sleep_armed_ = false;
  uint64_t sleep_wake_cycle_ = 0;

  // Timer3 latch for the 16-bit read protocol (read L latches H).
  uint8_t tcnt3_latched_h_ = 0;

  // Non-volatile image store (survives reboot()).
  ImageStore image_store_;
  bool store_reformatted_ = false;
  BootOutcome last_boot_ = BootOutcome::Normal;

  // Volatile kernel health mirror (cleared by reboot()).
  HealthCounters health_;
};

}  // namespace sensmart::emu
