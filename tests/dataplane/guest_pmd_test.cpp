#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "exec/context.h"
#include "pmd/guest_pmd.h"

namespace hw::pmd {
namespace {

/// Harness: hand-built host side of one dpdkr port (what OfSwitch +
/// Hypervisor normally do), so GuestPmd can be driven in isolation.
class GuestPmdTest : public ::testing::Test {
 protected:
  static constexpr VmId kVm = 1;
  static constexpr PortId kPort = 3;
  static constexpr PortId kPeer = 4;

  void SetUp() override {
    auto stats_region =
        shm_.create(SharedStats::region_name(), SharedStats::bytes_required());
    stats_ = SharedStats::create_in(*stats_region.value()).value();

    auto normal_region = shm_.create(normal_channel_region(kPort),
                                     ChannelView::bytes_required(64));
    normal_ = ChannelView::create_in(*normal_region.value(), 64, kPort,
                                     kPort, 1)
                  .value();
    auto ctrl_region = shm_.create(control_channel_region(kPort),
                                   ControlChannel::bytes_required());
    ctrl_ = ControlChannel::create_in(*ctrl_region.value()).value();

    ASSERT_TRUE(shm_.plug(normal_channel_region(kPort), kVm).is_ok());
    ASSERT_TRUE(shm_.plug(control_channel_region(kPort), kVm).is_ok());
  }

  GuestPmd make_pmd() {
    auto pmd = GuestPmd::attach(shm_, kVm, kPort, stats_, cost_);
    EXPECT_TRUE(pmd.is_ok());
    return std::move(pmd).take();
  }

  /// Creates a bypass region (plugged into the VM) and returns its name.
  std::string make_bypass(PortId a, PortId b, std::uint64_t epoch = 2) {
    const std::string name = bypass_channel_region(std::min(a, b),
                                                   std::max(a, b));
    auto region = shm_.create(name, ChannelView::bytes_required(64));
    bypass_ = ChannelView::create_in(*region.value(), 64, std::min(a, b),
                                     std::max(a, b), epoch)
                  .value();
    EXPECT_TRUE(shm_.plug(name, kVm).is_ok());
    return name;
  }

  /// Sends a control message and lets the PMD process it.
  CtrlMsg ctrl_roundtrip(GuestPmd& pmd, CtrlMsg msg) {
    EXPECT_TRUE(ctrl_.cmd().enqueue(msg));
    (void)pmd.process_control(meter_);
    CtrlMsg ack;
    EXPECT_TRUE(ctrl_.ack().dequeue(ack));
    return ack;
  }

  CtrlMsg attach_rx_msg(std::string_view region, std::uint64_t epoch = 2) {
    CtrlMsg msg;
    msg.op = CtrlOp::kAttachBypassRx;
    msg.seq = next_seq_++;
    msg.peer_port = kPeer;
    msg.epoch = epoch;
    msg.set_region(region);
    return msg;
  }

  CtrlMsg attach_tx_msg(std::string_view region, std::uint32_t slot = 5,
                        std::uint64_t epoch = 2) {
    CtrlMsg msg;
    msg.op = CtrlOp::kAttachBypassTx;
    msg.seq = next_seq_++;
    msg.peer_port = kPeer;
    msg.rule_slot = slot;
    msg.epoch = epoch;
    msg.set_region(region);
    return msg;
  }

  CtrlMsg detach_tx_msg(std::string_view region) {
    CtrlMsg msg;
    msg.op = CtrlOp::kDetachBypassTx;
    msg.seq = next_seq_++;
    msg.set_region(region);
    return msg;
  }

  // A second guest PMD, on kPeer in VM kPeerVm, transmitting toward
  // kPort: the sender side of a bypass link into the PMD under test.
  static constexpr VmId kPeerVm = 2;

  GuestPmd make_peer_pmd() {
    auto normal_region = shm_.create(normal_channel_region(kPeer),
                                     ChannelView::bytes_required(64));
    peer_normal_ = ChannelView::create_in(*normal_region.value(), 64, kPeer,
                                          kPeer, 1)
                       .value();
    auto ctrl_region = shm_.create(control_channel_region(kPeer),
                                   ControlChannel::bytes_required());
    peer_ctrl_ = ControlChannel::create_in(*ctrl_region.value()).value();
    EXPECT_TRUE(shm_.plug(normal_channel_region(kPeer), kPeerVm).is_ok());
    EXPECT_TRUE(shm_.plug(control_channel_region(kPeer), kPeerVm).is_ok());
    auto pmd = GuestPmd::attach(shm_, kPeerVm, kPeer, stats_, cost_);
    EXPECT_TRUE(pmd.is_ok());
    return std::move(pmd).take();
  }

  /// Control round trip to the peer PMD; returns the ack's ok flag.
  int peer_ctrl(GuestPmd& pmd, const CtrlMsg& msg) {
    EXPECT_TRUE(peer_ctrl_.cmd().enqueue(msg));
    (void)pmd.process_control(meter_);
    CtrlMsg ack;
    EXPECT_TRUE(peer_ctrl_.ack().dequeue(ack));
    return ack.ok;
  }

  CtrlMsg peer_attach_tx_msg(std::string_view region) {
    CtrlMsg msg = attach_tx_msg(region);
    msg.peer_port = kPort;
    return msg;
  }

  /// What the switch does for the peer's traffic: moves every frame it
  /// sent through the switch to this port, then reports its progress.
  void forward_peer_frames() {
    mbuf::Mbuf* frame = nullptr;
    while (peer_normal_.b2a().dequeue(frame)) {
      EXPECT_TRUE(normal_.a2b().enqueue(frame));
    }
    peer_normal_.switch_rx_done() = peer_normal_.b2a().consumed();
  }

  shm::ShmManager shm_;
  exec::CostModel cost_;
  exec::CycleMeter meter_;
  SharedStats stats_;
  ChannelView normal_;
  ChannelView bypass_;
  ControlChannel ctrl_;
  ChannelView peer_normal_;
  ControlChannel peer_ctrl_;
  std::uint16_t next_seq_ = 1;
  mbuf::Mbuf frames_[16];
};

TEST_F(GuestPmdTest, AttachFailsWithoutPlug) {
  EXPECT_FALSE(GuestPmd::attach(shm_, /*vm=*/99, kPort, stats_, cost_)
                   .is_ok());
}

TEST_F(GuestPmdTest, NormalPathRxTx) {
  GuestPmd pmd = make_pmd();
  // Switch → VM.
  mbuf::Mbuf* in = &frames_[0];
  ASSERT_TRUE(normal_.a2b().enqueue(in));
  mbuf::Mbuf* rx[8];
  EXPECT_EQ(pmd.rx_burst(rx, meter_), 1u);
  EXPECT_EQ(rx[0], in);
  // VM → switch.
  mbuf::Mbuf* const tx[2] = {&frames_[1], &frames_[2]};
  EXPECT_EQ(pmd.tx_burst(tx, meter_), 2u);
  mbuf::Mbuf* out = nullptr;
  EXPECT_TRUE(normal_.b2a().dequeue(out));
  EXPECT_EQ(out, &frames_[1]);
  EXPECT_EQ(pmd.counters().rx_normal, 1u);
  EXPECT_EQ(pmd.counters().tx_normal, 2u);
  EXPECT_EQ(pmd.counters().tx_bypass, 0u);
}

TEST_F(GuestPmdTest, TxReportsRejects) {
  GuestPmd pmd = make_pmd();
  std::vector<mbuf::Mbuf> lots(100);
  std::vector<mbuf::Mbuf*> ptrs;
  for (auto& buf : lots) ptrs.push_back(&buf);
  // Ring capacity 64: only 64 accepted.
  EXPECT_EQ(pmd.tx_burst(ptrs, meter_), 64u);
  EXPECT_EQ(pmd.counters().tx_rejected, 36u);
}

TEST_F(GuestPmdTest, AttachBypassTxRedirectsTraffic) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPort, kPeer);
  const CtrlMsg ack = ctrl_roundtrip(pmd, attach_tx_msg(region));
  EXPECT_EQ(ack.ok, 1);
  EXPECT_TRUE(pmd.bypass_tx_active());

  frames_[0].data_len = 64;
  mbuf::Mbuf* const tx[1] = {&frames_[0]};
  EXPECT_EQ(pmd.tx_burst(tx, meter_), 1u);
  // Frame went to the bypass ring (a2b since kPort < kPeer), not normal.
  EXPECT_TRUE(normal_.b2a().empty());
  EXPECT_EQ(bypass_.a2b().size(), 1u);
  EXPECT_EQ(pmd.counters().tx_bypass, 1u);

  // Shared statistics were updated on behalf of the switch.
  EXPECT_EQ(stats_.read_rule(5).first, 1u);
  EXPECT_EQ(stats_.read_rule(5).second, 64u);
  EXPECT_EQ(stats_.read_port(kPort).rx_packets, 1u);
  EXPECT_EQ(stats_.read_port(kPeer).tx_packets, 1u);
}

TEST_F(GuestPmdTest, NormalChannelPolledAheadOfBypass) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPeer, kPort);  // peer → me
  const CtrlMsg ack = ctrl_roundtrip(pmd, attach_rx_msg(region));
  EXPECT_EQ(ack.ok, 1);
  EXPECT_EQ(pmd.bypass_rx_count(), 1u);

  // Peer (port 4 = port_b, so it writes b2a toward port 3) enqueues one
  // frame; the switch enqueues another on the normal channel.
  mbuf::Mbuf* from_peer = &frames_[0];
  mbuf::Mbuf* from_switch = &frames_[1];
  ASSERT_TRUE(bypass_.b2a().enqueue(from_peer));
  ASSERT_TRUE(normal_.a2b().enqueue(from_switch));

  mbuf::Mbuf* rx[8];
  EXPECT_EQ(pmd.rx_burst(rx, meter_), 2u);
  EXPECT_EQ(rx[0], from_switch);  // normal channel drains first
  EXPECT_EQ(rx[1], from_peer);
  EXPECT_EQ(pmd.counters().rx_bypass, 1u);
  EXPECT_EQ(pmd.counters().rx_normal, 1u);
}

TEST_F(GuestPmdTest, SaturatedBypassCannotStarveNormalChannel) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPeer, kPort);
  EXPECT_EQ(ctrl_roundtrip(pmd, attach_rx_msg(region)).ok, 1);
  // Bypass has more than a full burst pending; one packet-out waits on
  // the normal channel. It must be delivered in the very next burst.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(bypass_.b2a().enqueue(&frames_[i]));
  }
  mbuf::Mbuf* probe = &frames_[15];
  ASSERT_TRUE(normal_.a2b().enqueue(probe));
  mbuf::Mbuf* rx[8];  // burst smaller than the bypass backlog
  ASSERT_EQ(pmd.rx_burst(rx, meter_), 8u);
  EXPECT_EQ(rx[0], probe);
}

TEST_F(GuestPmdTest, AttachRejectsWrongEpoch) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPort, kPeer, /*epoch=*/2);
  const CtrlMsg ack =
      ctrl_roundtrip(pmd, attach_tx_msg(region, 5, /*epoch=*/99));
  EXPECT_EQ(ack.ok, 0);
  EXPECT_FALSE(pmd.bypass_tx_active());
  EXPECT_EQ(pmd.counters().ctrl_errors, 1u);
}

TEST_F(GuestPmdTest, AttachRejectsUnpluggedRegion) {
  GuestPmd pmd = make_pmd();
  // Region exists on the host but was never hot-plugged into this VM.
  const std::string name = bypass_channel_region(kPort, kPeer);
  auto region = shm_.create(name, ChannelView::bytes_required(64));
  ASSERT_TRUE(
      ChannelView::create_in(*region.value(), 64, kPort, kPeer, 2).is_ok());
  const CtrlMsg ack = ctrl_roundtrip(pmd, attach_tx_msg(name));
  EXPECT_EQ(ack.ok, 0);
}

TEST_F(GuestPmdTest, SecondTxAttachRejected) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPort, kPeer);
  EXPECT_EQ(ctrl_roundtrip(pmd, attach_tx_msg(region)).ok, 1);
  EXPECT_EQ(ctrl_roundtrip(pmd, attach_tx_msg(region)).ok, 0);
}

TEST_F(GuestPmdTest, DetachTxRevertsToNormal) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPort, kPeer);
  EXPECT_EQ(ctrl_roundtrip(pmd, attach_tx_msg(region)).ok, 1);

  CtrlMsg detach;
  detach.op = CtrlOp::kDetachBypassTx;
  detach.seq = next_seq_++;
  detach.set_region(region);
  EXPECT_EQ(ctrl_roundtrip(pmd, detach).ok, 1);
  EXPECT_FALSE(pmd.bypass_tx_active());

  mbuf::Mbuf* const tx[1] = {&frames_[0]};
  EXPECT_EQ(pmd.tx_burst(tx, meter_), 1u);
  EXPECT_EQ(normal_.b2a().size(), 1u);  // back on the normal channel
}

TEST_F(GuestPmdTest, DetachTxWrongRegionRejected) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPort, kPeer);
  EXPECT_EQ(ctrl_roundtrip(pmd, attach_tx_msg(region)).ok, 1);
  CtrlMsg detach;
  detach.op = CtrlOp::kDetachBypassTx;
  detach.seq = next_seq_++;
  detach.set_region("bypass.9-9");
  EXPECT_EQ(ctrl_roundtrip(pmd, detach).ok, 0);
  EXPECT_TRUE(pmd.bypass_tx_active());
}

TEST_F(GuestPmdTest, DetachRxNacksWhileRingNonEmpty) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPeer, kPort);
  EXPECT_EQ(ctrl_roundtrip(pmd, attach_rx_msg(region)).ok, 1);

  mbuf::Mbuf* pending = &frames_[0];
  ASSERT_TRUE(bypass_.b2a().enqueue(pending));

  CtrlMsg detach;
  detach.op = CtrlOp::kDetachBypassRx;
  detach.seq = next_seq_++;
  detach.set_region(region);
  EXPECT_EQ(ctrl_roundtrip(pmd, detach).ok, 0);  // NACK: drain first
  EXPECT_EQ(pmd.bypass_rx_count(), 1u);

  // Drain, then retry.
  mbuf::Mbuf* rx[4];
  EXPECT_EQ(pmd.rx_burst(rx, meter_), 1u);
  detach.seq = next_seq_++;
  EXPECT_EQ(ctrl_roundtrip(pmd, detach).ok, 1);
  EXPECT_EQ(pmd.bypass_rx_count(), 0u);
}

TEST_F(GuestPmdTest, ControlPolledAutomaticallyDuringRx) {
  GuestPmd pmd = make_pmd();
  const std::string region = make_bypass(kPort, kPeer);
  ASSERT_TRUE(ctrl_.cmd().enqueue(attach_tx_msg(region)));
  // No explicit process_control: rx_burst polls it every
  // kCtrlPollInterval calls.
  mbuf::Mbuf* rx[4];
  for (std::uint32_t i = 0; i <= GuestPmd::kCtrlPollInterval; ++i) {
    (void)pmd.rx_burst(rx, meter_);
  }
  EXPECT_TRUE(pmd.bypass_tx_active());
}

/// REGRESSION (bypass teardown reorder): a frame the sender put on a
/// bypass ring must reach the receiving app before any frame that sender
/// later sent through the switch. Built deterministically: the receiver
/// lags (it has taken two of eight ring frames), the sender detaches TX
/// with six still queued, and four newer frames land on the receiver's
/// normal channel. Draining in bursts of four, the receiver must see all
/// twelve in send order — the old normal-first poll handed out the four
/// newer frames ahead of the six older ones.
TEST_F(GuestPmdTest, BypassFramesStayAheadOfPostDetachFrames) {
  GuestPmd sender = make_peer_pmd();
  GuestPmd receiver = make_pmd();
  const std::string region = make_bypass(kPeer, kPort);
  ASSERT_TRUE(shm_.plug(region, kPeerVm).is_ok());
  ASSERT_EQ(ctrl_roundtrip(receiver, attach_rx_msg(region)).ok, 1);
  ASSERT_EQ(peer_ctrl(sender, peer_attach_tx_msg(region)), 1);

  std::vector<mbuf::Mbuf*> sent;
  for (int i = 0; i < 12; ++i) sent.push_back(&frames_[i]);
  ASSERT_EQ(sender.tx_burst(std::span(sent.data(), 8), meter_), 8u);
  ASSERT_EQ(sender.counters().tx_bypass, 8u);
  std::vector<mbuf::Mbuf*> received;
  mbuf::Mbuf* rx[4];
  ASSERT_EQ(receiver.rx_burst(std::span(rx, 2), meter_), 2u);
  received.insert(received.end(), rx, rx + 2);

  // Teardown: TX detaches with six frames still on the ring; the next
  // four go through the switch, which forwards them to the receiver.
  ASSERT_EQ(peer_ctrl(sender, detach_tx_msg(region)), 1);
  ASSERT_FALSE(sender.bypass_tx_active());
  ASSERT_EQ(sender.tx_burst(std::span(sent.data() + 8, 4), meter_), 4u);
  forward_peer_frames();
  ASSERT_EQ(normal_.a2b().size(), 4u);

  for (int call = 0; call < 8 && received.size() < sent.size(); ++call) {
    const std::uint16_t n = receiver.rx_burst(rx, meter_);
    received.insert(received.end(), rx, rx + n);
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(receiver.counters().rx_bypass, 8u);
  EXPECT_EQ(receiver.counters().rx_normal, 4u);
  EXPECT_EQ(receiver.normal_rx_backlog(), 0u);
  EXPECT_TRUE(bypass_.b2a().empty());
}

/// Setup ordering: frames a sender sent through the switch before it
/// attached TX are still in flight (the switch has not forwarded them)
/// when it starts transmitting on the ring. The ring frames stay staged
/// — invisible to the receiver — until the switch reports it is done
/// with the older ones, so the receiver takes them in send order. A
/// detach arriving meanwhile is acknowledged only once the staged frames
/// are out and the receiver has started on the ring.
TEST_F(GuestPmdTest, BypassFramesWaitForOlderSwitchedFrames) {
  GuestPmd sender = make_peer_pmd();
  GuestPmd receiver = make_pmd();
  const std::string region = make_bypass(kPeer, kPort);
  ASSERT_TRUE(shm_.plug(region, kPeerVm).is_ok());
  ASSERT_EQ(ctrl_roundtrip(receiver, attach_rx_msg(region)).ok, 1);

  std::vector<mbuf::Mbuf*> sent;
  for (int i = 0; i < 9; ++i) sent.push_back(&frames_[i]);
  // Three frames through the switch, not yet forwarded; then the attach.
  ASSERT_EQ(sender.tx_burst(std::span(sent.data(), 3), meter_), 3u);
  ASSERT_EQ(peer_ctrl(sender, peer_attach_tx_msg(region)), 1);
  ASSERT_EQ(sender.tx_burst(std::span(sent.data() + 3, 3), meter_), 3u);
  EXPECT_EQ(sender.counters().tx_bypass, 3u);
  EXPECT_TRUE(bypass_.b2a().empty());  // staged, not published

  mbuf::Mbuf* rx[8];
  EXPECT_EQ(receiver.rx_burst(rx, meter_), 0u);

  // A detach now must wait: the ring's frames are not out yet.
  ASSERT_TRUE(peer_ctrl_.cmd().enqueue(detach_tx_msg(region)));
  (void)sender.process_control(meter_);
  CtrlMsg ack;
  EXPECT_FALSE(peer_ctrl_.ack().dequeue(ack));
  EXPECT_TRUE(sender.bypass_tx_active());

  // The switch forwards the older frames; the sender's next control
  // poll publishes the staged ones — but still holds the detach, since
  // the receiver has not started on the ring.
  forward_peer_frames();
  (void)sender.process_control(meter_);
  EXPECT_EQ(bypass_.b2a().size(), 3u);
  EXPECT_FALSE(peer_ctrl_.ack().dequeue(ack));

  std::vector<mbuf::Mbuf*> received;
  const std::uint16_t n = receiver.rx_burst(rx, meter_);
  received.insert(received.end(), rx, rx + n);
  EXPECT_EQ(n, 6u);

  // The receiver started: the detach completes, and later frames go
  // through the switch behind everything above.
  (void)sender.process_control(meter_);
  ASSERT_TRUE(peer_ctrl_.ack().dequeue(ack));
  EXPECT_EQ(ack.ok, 1);
  EXPECT_FALSE(sender.bypass_tx_active());
  ASSERT_EQ(sender.tx_burst(std::span(sent.data() + 6, 3), meter_), 3u);
  forward_peer_frames();
  const std::uint16_t m = receiver.rx_burst(rx, meter_);
  received.insert(received.end(), rx, rx + m);
  EXPECT_EQ(received, sent);
}

}  // namespace
}  // namespace hw::pmd
