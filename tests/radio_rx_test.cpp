// Radio receive path: on-air timing, byte ordering, and operation under
// SenSmart (the RX ports are shared device state, reached both by direct
// native loads and by translated indirect loads).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "kernel/kernel.hpp"
#include "rewriter/linker.hpp"

namespace sensmart::emu {
namespace {

using assembler::Assembler;

// Wait for `n` RX bytes, read them, emit them and an additive checksum.
assembler::Image rx_reader(uint8_t n) {
  Assembler a("rx");
  a.var("pad", 4);
  a.ldi(20, n);  // remaining
  a.ldi(21, 0);  // checksum
  a.label("next");
  a.label("wait");
  a.lds(16, kRadioRxAvail);
  a.cpi(16, 1);
  a.brcs("wait");  // < 1: nothing buffered yet
  a.lds(17, kRadioRxData);
  a.add(21, 17);
  a.sts(kHostOut, 17);
  a.dec(20);
  a.brne("next");
  a.sts(kHostOut, 21);
  a.halt(0);
  return a.finish();
}

TEST(RadioRx, BytesArriveInOrderWithOnAirDelay) {
  const auto img = rx_reader(3);
  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  const std::vector<uint8_t> pkt = {0x10, 0x20, 0x33};
  m.dev().inject_rx(pkt, 0);
  ASSERT_EQ(m.run(1'000'000), StopReason::Halted);
  EXPECT_EQ(m.dev().host_out(),
            (std::vector<uint8_t>{0x10, 0x20, 0x33, 0x63}));
  // The third byte could not be read before 3 on-air byte times.
  EXPECT_GE(m.cycles(), 3u * 3072u);
}

TEST(RadioRx, EmptyBufferReadsZero) {
  Assembler a("empty");
  a.lds(16, kRadioRxData);
  a.sts(kHostOut, 16);
  a.lds(16, kRadioRxAvail);
  a.sts(kHostOut, 16);
  a.halt(0);
  const auto img = a.finish();
  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  ASSERT_EQ(m.run(10000), StopReason::Halted);
  EXPECT_EQ(m.dev().host_out(), (std::vector<uint8_t>{0, 0}));
}

TEST(RadioRx, WorksUnderSenSmartWithDirectAndIndirectReads) {
  // Under the kernel, direct LDS reads stay native while an indirect read
  // through X goes via the translated I/O path; both must see the device.
  Assembler a("rxk");
  a.var("pad", 4);
  a.label("wait");
  a.lds(16, kRadioRxAvail);
  a.cpi(16, 2);
  a.brcs("wait");
  a.lds(17, kRadioRxData);       // direct
  a.ldi16(26, kRadioRxData);     // indirect
  a.ld_x(18);
  a.sts(kHostOut, 17);
  a.sts(kHostOut, 18);
  a.halt(0);

  rw::Linker linker;
  linker.add(a.finish());
  const auto sys = linker.link();
  Machine m;
  kern::Kernel k(m, sys);
  k.admit(0);
  ASSERT_TRUE(k.start());
  const std::vector<uint8_t> pkt = {0xAB, 0xCD};
  m.dev().inject_rx(pkt, 0);
  ASSERT_EQ(k.run(5'000'000), StopReason::Halted);
  EXPECT_EQ(k.tasks()[0].host_out, (std::vector<uint8_t>{0xAB, 0xCD}));
}

TEST(RadioRx, LoopbackRoundtrip) {
  // Transmit a packet, then inject the transmitted bytes back (as a
  // neighbouring node would) and re-receive them.
  Assembler a("loopback");
  a.var("pad", 2);
  for (uint8_t b : {7, 11, 13}) {
    a.ldi(16, b);
    a.sts(kRadioData, 16);
  }
  a.ldi(16, 1);
  a.sts(kRadioCtrl, 16);
  a.label("txwait");
  a.lds(16, kRadioStatus);
  a.andi(16, 1);
  a.brne("txwait");
  a.sts(kHostOut, 16);  // marker 0: TX done
  a.label("rxwait");
  a.lds(16, kRadioRxAvail);
  a.cpi(16, 3);
  a.brcs("rxwait");
  for (int i = 0; i < 3; ++i) {
    a.lds(17, kRadioRxData);
    a.sts(kHostOut, 17);
  }
  a.halt(0);
  const auto img = a.finish();

  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  // Run until TX completes, then loop the packet back.
  while (m.dev().radio_packets().empty() &&
         m.step() == StopReason::Running) {
  }
  ASSERT_EQ(m.dev().radio_packets().size(), 1u);
  m.dev().inject_rx(m.dev().radio_packets()[0]);
  ASSERT_EQ(m.run(1'000'000), StopReason::Halted);
  EXPECT_EQ(m.dev().host_out(), (std::vector<uint8_t>{0, 7, 11, 13}));
}

// --- Transmit-side coverage -------------------------------------------------

TEST(RadioTx, SentPacketFramingAndTiming) {
  // Bytes staged at kRadioData become one packet on the ctrl strobe; the
  // packet completes after exactly size * kCyclesPerRadioByte cycles.
  Assembler a("tx");
  a.var("pad", 2);
  for (uint8_t b : {0xA5, 0x02, 0x01, 0x7F}) {
    a.ldi(16, b);
    a.sts(kRadioData, 16);
  }
  a.ldi(16, 1);
  a.sts(kRadioCtrl, 16);
  a.lds(17, kRadioStatus);  // immediately after the strobe: busy
  a.sts(kHostOut, 17);
  a.label("txwait");
  a.lds(16, kRadioStatus);
  a.andi(16, 1);
  a.brne("txwait");
  a.halt(0);
  const auto img = a.finish();

  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  uint64_t done_cycle = 0;
  std::vector<std::vector<uint8_t>> sunk;
  m.dev().set_tx_sink([&](std::span<const uint8_t> pkt, uint64_t done) {
    sunk.emplace_back(pkt.begin(), pkt.end());
    done_cycle = done;
  });
  ASSERT_EQ(m.run(1'000'000), StopReason::Halted);
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], (std::vector<uint8_t>{0xA5, 0x02, 0x01, 0x7F}));
  // The sink took the packet: nothing is archived beside it.
  EXPECT_TRUE(m.dev().radio_packets().empty());
  EXPECT_EQ(m.dev().host_out(), (std::vector<uint8_t>{1}));  // busy flag
  // The packet was in the air for exactly 4 byte times.
  EXPECT_GE(done_cycle, 4u * DeviceHub::kCyclesPerRadioByte);
  EXPECT_GE(m.cycles(), done_cycle);
}

TEST(RadioTx, BackToBackSendsQueueAtByteSpacing) {
  // A ctrl strobe while a transmission is in flight queues the staged
  // packet instead of dropping it; the queued packet starts back-to-back,
  // so the two completions are exactly size2 byte-times apart.
  Assembler a("tx2");
  a.var("pad", 2);
  for (uint8_t b : {1, 2, 3}) {
    a.ldi(16, b);
    a.sts(kRadioData, 16);
  }
  a.ldi(16, 1);
  a.sts(kRadioCtrl, 16);
  // Immediately stage and strobe a second packet while busy.
  for (uint8_t b : {9, 8}) {
    a.ldi(16, b);
    a.sts(kRadioData, 16);
  }
  a.ldi(16, 1);
  a.sts(kRadioCtrl, 16);
  a.label("txwait");
  a.lds(16, kRadioStatus);
  a.andi(16, 1);
  a.brne("txwait");
  a.halt(0);
  const auto img = a.finish();

  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  std::vector<std::vector<uint8_t>> sunk;
  std::vector<uint64_t> done_cycles;
  m.dev().set_tx_sink([&](std::span<const uint8_t> pkt, uint64_t done) {
    sunk.emplace_back(pkt.begin(), pkt.end());
    done_cycles.push_back(done);
  });
  ASSERT_EQ(m.run(1'000'000), StopReason::Halted);
  ASSERT_EQ(sunk.size(), 2u);
  EXPECT_EQ(sunk[0], (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(sunk[1], (std::vector<uint8_t>{9, 8}));
  ASSERT_EQ(done_cycles.size(), 2u);
  EXPECT_EQ(done_cycles[1] - done_cycles[0],
            2u * DeviceHub::kCyclesPerRadioByte);
}

TEST(RadioTx, SendMatchesPerByteStaging) {
  // radio_send stages a whole frame with one sync and one append; the
  // device must end up exactly where per-byte kRadioData writes plus the
  // kRadioCtrl strobe leave it, whether the radio is idle (the frame goes
  // on the air) or busy (it queues behind the one transmitting).
  const std::vector<uint8_t> first{0xA5, 0x03, 0x10, 0x20, 0x30};
  const std::vector<uint8_t> second{0x5A, 0x01, 0x77};
  DataMemory mem_bytes, mem_send;
  DeviceHub by_byte(mem_bytes), by_send(mem_send);
  const auto per_byte = [&](std::span<const uint8_t> frame) {
    for (uint8_t b : frame) by_byte.io_access(kRadioData, b, true);
    uint8_t go = 1;
    by_byte.io_access(kRadioCtrl, go, true);
  };
  const auto expect_same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(by_send.radio_packets(), by_byte.radio_packets());
    EXPECT_EQ(by_send.tx_done_at(), by_byte.tx_done_at());
    uint8_t status_byte = 0, status_send = 0;
    by_byte.io_access(kRadioStatus, status_byte, false);
    by_send.io_access(kRadioStatus, status_send, false);
    EXPECT_EQ(status_send, status_byte);
  };

  by_byte.sync(1'000);
  by_send.sync(1'000);
  per_byte(first);  // idle: straight on the air
  by_send.radio_send(first);
  expect_same("idle");
  ASSERT_TRUE(by_send.tx_done_at().has_value());
  EXPECT_EQ(*by_send.tx_done_at(),
            1'000 + first.size() * DeviceHub::kCyclesPerRadioByte);

  by_byte.sync(2'000);
  by_send.sync(2'000);
  per_byte(second);  // busy: queued behind the first frame
  by_send.radio_send(second);
  expect_same("busy");

  // Both frames complete back-to-back and identically.
  const uint64_t end =
      1'000 + (first.size() + second.size()) * DeviceHub::kCyclesPerRadioByte;
  by_byte.sync(end);
  by_send.sync(end);
  expect_same("drained");
  ASSERT_EQ(by_send.radio_packets().size(), 2u);
  EXPECT_EQ(by_send.radio_packets()[1], second);
  EXPECT_FALSE(by_send.tx_done_at().has_value());

  // Nothing staged: the strobe alone does nothing on either path.
  per_byte({});
  by_send.radio_send({});
  expect_same("empty");
}

TEST(RadioRx, OverrunWhenTaskPollsTooSlowly) {
  // A program that never drains the RX buffer: bytes beyond the buffer
  // capacity are lost and counted, earlier bytes survive.
  Assembler a("slow");
  a.var("pad", 2);
  // Burn ~1M cycles (5*256*256 dec/brne iterations) without touching the
  // RX ports — long enough for all 74 on-air byte times to elapse.
  a.ldi(20, 5);
  a.label("d0");
  a.ldi(21, 0);
  a.label("d1");
  a.ldi(22, 0);
  a.label("d2");
  a.dec(22);
  a.brne("d2");
  a.dec(21);
  a.brne("d1");
  a.dec(20);
  a.brne("d0");
  a.lds(16, kRadioRxAvail);  // buffer filled to capacity, no further
  a.sts(kHostOut, 16);
  a.lds(17, kRadioRxData);  // oldest byte survived, overrun lost the tail
  a.sts(kHostOut, 17);
  a.halt(0);
  const auto img = a.finish();

  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  std::vector<uint8_t> big(DeviceHub::kRxBufferCap + 10);
  for (size_t i = 0; i < big.size(); ++i) big[i] = uint8_t(i + 1);
  m.dev().inject_rx(big, 0);
  ASSERT_EQ(m.run(big.size() * DeviceHub::kCyclesPerRadioByte + 4'000'000),
            StopReason::Halted);
  EXPECT_EQ(m.dev().host_out(),
            (std::vector<uint8_t>{uint8_t(DeviceHub::kRxBufferCap), 1}));
  EXPECT_EQ(m.dev().rx_overruns(), 10u);
  EXPECT_EQ(m.dev().rx_delivered(), uint64_t(DeviceHub::kRxBufferCap));
}

TEST(RadioRx, SecondScheduleRxQueuesBehindPendingDelivery) {
  // Regression: scheduling a second delivery while the first is still on
  // the air must queue it after the busy window, not silently drop it (or
  // interleave with the in-flight bytes).
  const auto img = rx_reader(4);
  Machine m;
  m.load_flash(img.code);
  m.reset(0);
  const std::vector<uint8_t> first = {0x01, 0x02};
  const std::vector<uint8_t> second = {0x03, 0x04};
  const uint64_t start1 = m.dev().schedule_rx(first, 0);
  // Overlapping request: wants to start mid-way through the first.
  const uint64_t start2 =
      m.dev().schedule_rx(second, DeviceHub::kCyclesPerRadioByte / 2);
  EXPECT_EQ(start1, 0u);
  EXPECT_EQ(start2, 2u * DeviceHub::kCyclesPerRadioByte);  // pushed back
  ASSERT_EQ(m.run(2'000'000), StopReason::Halted);
  // All four bytes arrive, in order, none lost: 1,2,3,4 then checksum 10.
  EXPECT_EQ(m.dev().host_out(),
            (std::vector<uint8_t>{0x01, 0x02, 0x03, 0x04, 0x0A}));
}

// --- Packet-granular receive queue ------------------------------------------
//
// Deliveries in flight are held one entry per packet with a cursor into the
// front one; these pin that every byte still arrives, is lost or is counted
// exactly as a per-byte queue would have it.

constexpr uint64_t kB = DeviceHub::kCyclesPerRadioByte;

std::vector<uint8_t> seq_bytes(size_t n, uint8_t first) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(first + i);
  return v;
}

// Reads `n` bytes through the RX data port, as a polling guest would.
std::vector<uint8_t> read_port(DeviceHub& dev, size_t n) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i < n; ++i) {
    uint8_t v = 0;
    dev.io_access(kRadioRxData, v, false);
    out.push_back(v);
  }
  return out;
}

TEST(RadioRx, ReadsStopMidPacketAndResumeOnLaterSync) {
  Machine m;
  DeviceHub& dev = m.dev();
  const auto a = seq_bytes(6, 0x10);
  const auto b = seq_bytes(3, 0x40);
  dev.schedule_rx(a, 0);
  dev.schedule_rx(b, 0);  // queues behind a: arrives at 7..9 byte times
  dev.sync(3 * kB);
  EXPECT_EQ(dev.rx_buffered(), 3u);
  EXPECT_EQ(read_port(dev, 2), (std::vector<uint8_t>{0x10, 0x11}));
  dev.sync(5 * kB);  // two more of a arrive behind the unread one
  EXPECT_EQ(dev.rx_buffered(), 3u);
  EXPECT_EQ(read_port(dev, 3), (std::vector<uint8_t>{0x12, 0x13, 0x14}));
  dev.sync(8 * kB);  // a's last byte and b's first two
  std::vector<uint8_t> got;
  dev.take_rx(got);
  EXPECT_EQ(got, (std::vector<uint8_t>{0x15, 0x40, 0x41}));
  dev.sync(100 * kB);
  got.clear();
  dev.take_rx(got);
  EXPECT_EQ(got, (std::vector<uint8_t>{0x42}));
  EXPECT_EQ(dev.rx_delivered(), 9u);
  EXPECT_EQ(dev.rx_overruns(), 0u);
}

TEST(RadioRx, SlowPollOverrunStraddlesPacketBoundary) {
  // A 50-byte packet and a 30-byte one right behind it, polled too late:
  // the buffer fills 14 bytes into the second packet and its next 6 bytes
  // are lost; a partial read then makes room for the rest.
  Machine m;
  DeviceHub& dev = m.dev();
  const auto a = seq_bytes(50, 0);
  const auto b = seq_bytes(30, 100);
  dev.schedule_rx(a, 0);
  EXPECT_EQ(dev.schedule_rx(b, 0), 50 * kB);
  dev.sync(70 * kB);  // 50 + 20 bytes have arrived, 64 fit
  EXPECT_EQ(dev.rx_buffered(), DeviceHub::kRxBufferCap);
  EXPECT_EQ(dev.rx_delivered(), 64u);
  EXPECT_EQ(dev.rx_overruns(), 6u);
  EXPECT_EQ(read_port(dev, 10), seq_bytes(10, 0));
  dev.sync(80 * kB);  // b's last 10 bytes fill the 10 freed slots
  EXPECT_EQ(dev.rx_delivered(), 74u);
  EXPECT_EQ(dev.rx_overruns(), 6u);
  std::vector<uint8_t> want = seq_bytes(40, 10);  // rest of a
  for (uint8_t v : seq_bytes(14, 100)) want.push_back(v);  // b[0..14)
  for (uint8_t v : seq_bytes(10, 120)) want.push_back(v);  // b[20..30)
  std::vector<uint8_t> got;
  dev.take_rx(got);
  EXPECT_EQ(got, want);
}

TEST(RadioRx, NextEventIsTheNextUnreadByteMidPacket) {
  Machine m;
  DeviceHub& dev = m.dev();
  const auto a = seq_bytes(5, 1);
  dev.schedule_rx(a, 1000);
  EXPECT_EQ(dev.next_event_after(0), std::optional<uint64_t>(1000 + kB));
  dev.sync(1000 + 2 * kB + 7);
  EXPECT_EQ(dev.next_event_after(1000 + 2 * kB + 7),
            std::optional<uint64_t>(1000 + 3 * kB));
  dev.sync(1000 + 5 * kB);
  EXPECT_EQ(dev.next_event_after(1000 + 5 * kB), std::nullopt);
}

TEST(RadioRx, FlushMidPacketDropsBufferedAndInFlightBytes) {
  Machine m;
  DeviceHub& dev = m.dev();
  dev.schedule_rx(seq_bytes(8, 1), 0);
  dev.schedule_rx(seq_bytes(8, 50), 0);
  dev.sync(3 * kB);
  ASSERT_EQ(dev.rx_buffered(), 3u);
  dev.flush_rx();
  EXPECT_EQ(dev.rx_buffered(), 0u);
  EXPECT_EQ(dev.rx_arrival(1), std::nullopt);
  EXPECT_EQ(dev.next_event_after(3 * kB), std::nullopt);
  dev.sync(40 * kB);
  EXPECT_EQ(dev.rx_buffered(), 0u);
  EXPECT_EQ(dev.rx_delivered(), 3u);  // counted when they arrived
  // The serial-medium cursor was reset too: a new delivery starts on time.
  EXPECT_EQ(dev.schedule_rx(seq_bytes(2, 9), 41 * kB), 41 * kB);
  dev.sync(43 * kB);
  std::vector<uint8_t> got;
  dev.take_rx(got);
  EXPECT_EQ(got, (std::vector<uint8_t>{9, 10}));
}

TEST(RadioRx, ArrivalOfTheKthUnreadByte) {
  Machine m;
  DeviceHub& dev = m.dev();
  dev.schedule_rx(seq_bytes(4, 1), 0);        // arrives at 1..4 byte times
  dev.schedule_rx(seq_bytes(3, 20), 10 * kB);  // idle gap: 11..13
  EXPECT_EQ(dev.rx_arrival(4), std::optional<uint64_t>(4 * kB));
  EXPECT_EQ(dev.rx_arrival(5), std::optional<uint64_t>(11 * kB));
  dev.sync(2 * kB);
  // Two bytes buffered (already readable) and five in flight.
  EXPECT_EQ(dev.rx_arrival(1), std::optional<uint64_t>(2 * kB));
  EXPECT_EQ(dev.rx_arrival(2), std::optional<uint64_t>(2 * kB));
  EXPECT_EQ(dev.rx_arrival(3), std::optional<uint64_t>(3 * kB));
  EXPECT_EQ(dev.rx_arrival(5), std::optional<uint64_t>(11 * kB));
  EXPECT_EQ(dev.rx_arrival(7), std::optional<uint64_t>(13 * kB));
  EXPECT_EQ(dev.rx_arrival(8), std::nullopt);
  std::vector<uint8_t> got;
  dev.take_rx(got);  // reading consumes the buffered bytes only
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(dev.rx_arrival(1), std::optional<uint64_t>(3 * kB));
  EXPECT_EQ(dev.rx_arrival(5), std::optional<uint64_t>(13 * kB));
}

}  // namespace
}  // namespace sensmart::emu
