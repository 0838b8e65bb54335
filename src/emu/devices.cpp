#include "emu/devices.hpp"

#include <algorithm>

namespace sensmart::emu {

namespace {
// TIFR/TIMSK bit assignment.
constexpr uint8_t kT0OvfBit = 0x01;
constexpr uint8_t kT0CompBit = 0x02;
// ADCSRA bits.
constexpr uint8_t kAdcStartBit = 0x80;
constexpr uint8_t kAdcDoneBit = 0x10;
constexpr uint8_t kAdcIeBit = 0x08;
}  // namespace

uint32_t DeviceHub::timer0_prescale() const {
  switch (mem_.raw(kTccr0) & 0x07) {
    case 1: return 1;
    case 2: return 8;
    case 3: return 64;
    case 4: return 256;
    case 5: return 1024;
    default: return 0;  // stopped
  }
}

uint16_t DeviceHub::lfsr_next() {
  // 16-bit Fibonacci LFSR, taps 16,14,13,11 — deterministic "sensor noise".
  const uint16_t bit =
      ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^ (lfsr_ >> 3) ^ (lfsr_ >> 5)) & 1u;
  lfsr_ = static_cast<uint16_t>((lfsr_ >> 1) | (bit << 15));
  return lfsr_;
}

void DeviceHub::sync(uint64_t now) {
  now_ = now;

  // Timer0 flags. The counter position is normalized into [0,255] after
  // each sync so an overflow or compare match raises its flag exactly once
  // per crossing (not continuously).
  const uint32_t ps = timer0_prescale();
  if (ps != 0) {
    const uint64_t ticks = (now - t0_epoch_) / ps;
    const uint64_t count = t0_start_ + ticks;
    uint8_t tifr = mem_.raw(kTifr);
    if (count > 0xFF) tifr |= kT0OvfBit;
    const uint8_t ocr = mem_.raw(kOcr0);
    if (count >= ocr && t0_start_ < ocr) tifr |= kT0CompBit;
    mem_.set_raw(kTifr, tifr);
    mem_.set_raw(kTcnt0, static_cast<uint8_t>(count & 0xFF));
    // Re-anchor the epoch at the current (sub-tick-aligned) position.
    t0_epoch_ = now - ((now - t0_epoch_) % ps);
    t0_start_ = static_cast<uint8_t>(count & 0xFF);
  }

  // ADC completion.
  if (adc_done_at_ && now >= *adc_done_at_) {
    adc_done_at_.reset();
    const uint16_t sample = lfsr_next() & 0x03FF;  // 10-bit ADC
    mem_.set_raw(kAdcL, static_cast<uint8_t>(sample & 0xFF));
    mem_.set_raw(kAdcH, static_cast<uint8_t>(sample >> 8));
    uint8_t sra = mem_.raw(kAdcsra);
    sra = static_cast<uint8_t>((sra & ~kAdcStartBit) | kAdcDoneBit);
    mem_.set_raw(kAdcsra, sra);
  }

  if (now >= rx_next_at_) rx_arrive(now);

  // Radio transmit completion(s): hand the finished packet over (record +
  // medium sink) and start the next queued send back-to-back — its bytes
  // go on air at kCyclesPerRadioByte spacing from the completion cycle.
  while (radio_done_at_ && now >= *radio_done_at_) {
    const uint64_t done = *radio_done_at_;
    radio_done_at_.reset();
    radio_sent_.push_back(std::move(tx_inflight_));
    tx_inflight_.clear();
    radio_irq_flag_ = true;
    if (tx_sink_) tx_sink_(radio_sent_.back(), done);
    if (!tx_queue_.empty()) {
      tx_inflight_ = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      radio_done_at_ = done + uint64_t(kCyclesPerRadioByte) *
                                  tx_inflight_.size();
    } else {
      mem_.set_raw(kRadioStatus, 0);
    }
  }
}

// Radio receive: move bytes whose on-air time has elapsed into the
// readable buffer. Arrivals beyond the buffer depth are lost (RX overrun),
// like on the real transceiver when the task polls too slowly. Nothing is
// read in between, so a packet's arrived span splits into a kept prefix
// (up to the free room) and an overrun tail. A kept prefix that continues
// the newest run (same packet, next offset) extends it.
void DeviceHub::rx_arrive(uint64_t now) {
  while (!rx_pending_.empty()) {
    RxPacket& p = rx_pending_.front();
    const size_t size = p.packet->bytes.size();
    if (now < p.begin + (rx_cursor_ + 1) * uint64_t(kCyclesPerRadioByte))
      break;
    const size_t arrived = static_cast<size_t>(std::min<uint64_t>(
        size, (now - p.begin) / kCyclesPerRadioByte));
    const size_t n = arrived - rx_cursor_;
    const size_t keep = std::min(n, kRxBufferCap - rx_avail_bytes_);
    const bool done = arrived == size;
    if (keep > 0) {
      RxRun* back =
          rx_runs_count_ > 0
              ? &rx_runs_[(rx_runs_head_ + rx_runs_count_ - 1) % kRxBufferCap]
              : nullptr;
      if (back && back->packet == p.packet &&
          back->offset + back->length == rx_cursor_) {
        back->length += static_cast<uint32_t>(keep);
      } else {
        RxRun& r = rx_runs_[(rx_runs_head_ + rx_runs_count_) % kRxBufferCap];
        r.packet = done ? std::move(p.packet) : p.packet;
        r.offset = static_cast<uint32_t>(rx_cursor_);
        r.length = static_cast<uint32_t>(keep);
        ++rx_runs_count_;
      }
      rx_avail_bytes_ += keep;
    }
    rx_delivered_ += keep;
    rx_overruns_ += n - keep;
    radio_irq_flag_ = true;
    if (!done) {
      rx_cursor_ = arrived;
      break;
    }
    rx_pending_.pop_front();
    rx_cursor_ = 0;
  }
  rx_next_at_ = rx_pending_.empty()
                    ? kNever
                    : rx_pending_.front().begin +
                          (rx_cursor_ + 1) * uint64_t(kCyclesPerRadioByte);
}

uint8_t DeviceHub::rx_pop() {
  if (rx_runs_count_ == 0) return 0;
  RxRun& r = rx_runs_[rx_runs_head_];
  const uint8_t value = r.packet->bytes[r.offset];
  ++r.offset;
  --rx_avail_bytes_;
  if (--r.length == 0) {
    r.packet.reset();
    rx_runs_head_ = (rx_runs_head_ + 1) % kRxBufferCap;
    --rx_runs_count_;
  }
  return value;
}

void DeviceHub::take_rx(std::vector<uint8_t>& out) {
  take_rx_runs([&out](RadioPacketRef&& packet, size_t offset, size_t length) {
    const auto from = packet->bytes.begin() + static_cast<ptrdiff_t>(offset);
    out.insert(out.end(), from, from + static_cast<ptrdiff_t>(length));
  });
}

void DeviceHub::flush_rx() {
  rx_pending_.clear();
  rx_cursor_ = 0;
  rx_next_at_ = kNever;
  for (RxRun& r : rx_runs_) r.packet.reset();
  rx_runs_head_ = rx_runs_count_ = rx_avail_bytes_ = 0;
  rx_busy_until_ = 0;
}

std::optional<uint64_t> DeviceHub::rx_arrival(size_t k) const {
  if (k <= rx_avail_bytes_) return now_;
  k -= rx_avail_bytes_;
  size_t cursor = rx_cursor_;
  for (const RxPacket& p : rx_pending_) {
    const size_t left = p.packet->bytes.size() - cursor;
    if (k <= left)
      return p.begin + (cursor + k) * uint64_t(kCyclesPerRadioByte);
    k -= left;
    cursor = 0;
  }
  return std::nullopt;
}

std::optional<uint8_t> DeviceHub::peek_unread(size_t i) const {
  if (i < rx_avail_bytes_) {
    for (size_t k = 0;; ++k) {
      const RxRun& r = rx_runs_[(rx_runs_head_ + k) % kRxBufferCap];
      if (i < r.length) return r.packet->bytes[r.offset + i];
      i -= r.length;
    }
  }
  i -= rx_avail_bytes_;
  size_t cursor = rx_cursor_;
  for (const RxPacket& p : rx_pending_) {
    const size_t left = p.packet->bytes.size() - cursor;
    if (i < left) return p.packet->bytes[cursor + i];
    i -= left;
    cursor = 0;
  }
  return std::nullopt;
}

void DeviceHub::io_access(uint16_t addr, uint8_t& value, bool write) {
  sync(now_);
  // Reads observe the device-maintained register contents after the sync;
  // special ports override below.
  if (!write) value = mem_.raw(addr);
  switch (addr) {
    case kTcnt0:
      if (write) {
        t0_epoch_ = now_;
        t0_start_ = value;
      }
      break;
    case kTccr0:
      if (write) {
        t0_epoch_ = now_;
        t0_start_ = mem_.raw(kTcnt0);
      }
      break;
    case kTifr:
      // Writing 1 to a flag clears it (AVR convention).
      if (write) value = static_cast<uint8_t>(mem_.raw(kTifr) & ~value);
      break;
    case kAdcsra:
      if (write && (value & kAdcStartBit)) {
        adc_done_at_ = now_ + kAdcLatency;
        value = static_cast<uint8_t>(value & ~kAdcDoneBit);
      }
      break;
    case kRadioData:
      if (write) radio_buf_.push_back(value);
      break;
    case kRadioRxData:
      if (!write) value = rx_pop();
      break;
    case kRadioRxAvail:
      if (!write)
        value = static_cast<uint8_t>(std::min<size_t>(rx_avail_bytes_, 255));
      break;
    case kRadioCtrl:
      if (write && value == 1 && !radio_buf_.empty()) {
        if (!radio_done_at_) {
          tx_inflight_ = std::move(radio_buf_);
          radio_done_at_ =
              now_ + uint64_t(kCyclesPerRadioByte) * tx_inflight_.size();
        } else {
          // Transmitter busy: queue the staged packet instead of silently
          // dropping the send. It starts when the in-flight one completes.
          tx_queue_.push_back(std::move(radio_buf_));
        }
        radio_buf_.clear();
        mem_.set_raw(kRadioStatus, 1);
      }
      break;
    case kHostOut:
      if (write) host_out_.push_back(value);
      break;
    case kHostHalt:
      if (write) {
        halted_ = true;
        halt_code_ = value;
      }
      break;
    case kHostRandL:
      if (!write) value = static_cast<uint8_t>(lfsr_next() & 0xFF);
      break;
    case kHostRandH:
      if (!write) value = static_cast<uint8_t>(lfsr_ >> 8);
      break;
    case kSleepTargetL:
      if (write) sleep_target_l_ = value;
      break;
    case kSleepTargetH:
      if (write) {
        // Arm a timed sleep: wake when Timer3 reaches the 16-bit target,
        // interpreted modulo 2^16 relative to the current tick. The wake
        // cycle is anchored to the *absolute* tick count so it stays
        // correct after the 16-bit counter wraps.
        const uint16_t target =
            static_cast<uint16_t>(sleep_target_l_ | (value << 8));
        const uint64_t abs_ticks = now_ / kTimer3Prescale;
        const uint16_t delta =
            static_cast<uint16_t>(target - static_cast<uint16_t>(abs_ticks));
        sleep_wake_cycle_ =
            (abs_ticks + delta) * kTimer3Prescale + kTimer3Prescale - 1;
        if (sleep_wake_cycle_ < now_) sleep_wake_cycle_ = now_;
        sleep_armed_ = true;
      }
      break;
    case kTcnt3L:
      if (!write) {
        const uint16_t t = timer3_ticks(now_);
        tcnt3_latched_h_ = static_cast<uint8_t>(t >> 8);
        value = static_cast<uint8_t>(t & 0xFF);
      }
      break;
    case kTcnt3H:
      if (!write) value = tcnt3_latched_h_;
      break;
    default:
      break;
  }
}

void DeviceHub::reboot() {
  // Volatile transmit state: staged bytes, the packet on the air, and the
  // back-to-back queue all die with the power rail.
  radio_buf_.clear();
  tx_inflight_.clear();
  tx_queue_.clear();
  radio_done_at_.reset();
  radio_irq_flag_ = false;
  mem_.set_raw(kRadioStatus, 0);
  // Volatile receive state (the radio is off until power-up).
  flush_rx();
  // Conversion, sleep, and timer latches.
  adc_done_at_.reset();
  sleep_armed_ = false;
  sleep_wake_cycle_ = 0;
  sleep_target_l_ = 0;
  tcnt3_latched_h_ = 0;
  t0_epoch_ = now_;
  t0_start_ = 0;
  halted_ = false;
  halt_code_ = 0;
  // The kernel health mirror dies with the power rail — a rollout health
  // report covers exactly one boot (DESIGN.md §12).
  health_ = HealthCounters{};
  // image_store_, host_out_, radio_sent_, and the counters survive: the
  // store is non-volatile, the rest are observer-side logs. The store is
  // round-tripped through the on-flash codec every power cycle so the
  // format is exercised on the exact path a real bootloader reads it, then
  // the bootloader's trial decision runs.
  std::vector<uint8_t> page = serialize_image_store(image_store_);
  ImageStore fresh;
  if (deserialize_image_store(page, fresh)) {
    image_store_ = std::move(fresh);
  } else {
    image_store_.erase();
    store_reformatted_ = true;
  }
  last_boot_ = image_store_.on_power_up();
}

bool DeviceHub::load_flash_page(std::span<const uint8_t> page) {
  ImageStore fresh;
  if (deserialize_image_store(page, fresh)) {
    image_store_ = std::move(fresh);
    return true;
  }
  image_store_.erase();
  store_reformatted_ = true;
  return false;
}

uint64_t DeviceHub::schedule_rx(std::span<const uint8_t> bytes,
                                uint64_t at_cycle) {
  return schedule_rx(std::make_shared<const RadioPacket>(bytes), at_cycle);
}

uint64_t DeviceHub::schedule_rx(RadioPacketRef packet, uint64_t at_cycle) {
  // Serial medium: a delivery that overlaps the in-flight one queues
  // behind it (arrival times across rx_pending_ stay monotone, so sync()
  // drains strictly in arrival order).
  const size_t size = packet->bytes.size();
  const uint64_t begin = std::max(at_cycle, rx_busy_until_);
  rx_busy_until_ = begin + size * uint64_t(kCyclesPerRadioByte);
  if (size == 0) return begin;
  if (rx_pending_.empty()) rx_next_at_ = begin + kCyclesPerRadioByte;
  rx_pending_.push_back({begin, std::move(packet)});
  return begin;
}

std::optional<Irq> DeviceHub::pending_irq() const {
  const uint8_t timsk = mem_.raw(kTimsk);
  const uint8_t tifr = mem_.raw(kTifr);
  if ((timsk & tifr & kT0OvfBit) != 0) return Irq::Timer0Ovf;
  if ((timsk & tifr & kT0CompBit) != 0) return Irq::Timer0Comp;
  const uint8_t sra = mem_.raw(kAdcsra);
  if ((sra & kAdcIeBit) && (sra & kAdcDoneBit)) return Irq::Adc;
  if (radio_irq_flag_) return Irq::Radio;
  return std::nullopt;
}

void DeviceHub::acknowledge(Irq irq) {
  switch (irq) {
    case Irq::Timer0Ovf:
      mem_.set_raw(kTifr, mem_.raw(kTifr) & ~kT0OvfBit);
      break;
    case Irq::Timer0Comp:
      mem_.set_raw(kTifr, mem_.raw(kTifr) & ~kT0CompBit);
      break;
    case Irq::Adc:
      mem_.set_raw(kAdcsra, mem_.raw(kAdcsra) & ~kAdcDoneBit);
      break;
    case Irq::Radio:
      radio_irq_flag_ = false;
      break;
  }
}

std::optional<uint64_t> DeviceHub::next_event_after(uint64_t now) const {
  std::optional<uint64_t> next;
  auto consider = [&next, now](uint64_t t) {
    if (t < now) t = now;
    if (!next || t < *next) next = t;
  };

  if (adc_done_at_) consider(*adc_done_at_);
  if (radio_done_at_) consider(*radio_done_at_);
  if (!rx_pending_.empty()) consider(rx_next_at_);
  if (sleep_armed_) consider(sleep_wake_cycle_);

  // Timer0 overflow/compare, only when the interrupt is unmasked (a masked
  // timer cannot wake SLEEP).
  const uint32_t ps = timer0_prescale();
  const uint8_t timsk = mem_.raw(kTimsk);
  if (ps != 0 && (timsk & (kT0OvfBit | kT0CompBit)) != 0) {
    const uint64_t ticks = (now - t0_epoch_) / ps;
    const uint64_t count = t0_start_ + ticks;
    if (timsk & kT0OvfBit) {
      const uint64_t to_ovf = 0x100 > count ? 0x100 - count : 0;
      consider(t0_epoch_ + (ticks + to_ovf + (to_ovf ? 0 : 1)) * ps);
    }
    if (timsk & kT0CompBit) {
      const uint8_t ocr = mem_.raw(kOcr0);
      if (count < ocr) consider(t0_epoch_ + (ocr - t0_start_) * uint64_t(ps));
    }
  }
  return next;
}

}  // namespace sensmart::emu
