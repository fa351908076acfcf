#include "pmd/guest_pmd.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "analysis/annotate.h"
#include "common/log.h"
#include "exec/runtime.h"
#include "pkt/int_stamp.h"

namespace hw::pmd {

Result<GuestPmd> GuestPmd::attach(shm::ShmManager& shm, VmId vm, PortId port,
                                  SharedStats stats,
                                  const exec::CostModel& cost) {
  GuestPmd pmd;
  pmd.shm_ = &shm;
  pmd.vm_ = vm;
  pmd.port_ = port;
  pmd.cost_ = &cost;
  pmd.stats_ = stats;

  auto normal_region = shm.guest_map(normal_channel_region(port), vm);
  if (!normal_region.is_ok()) return normal_region.status();
  auto normal = ChannelView::attach(*normal_region.value());
  if (!normal.is_ok()) return normal.status();
  pmd.normal_ = normal.value();

  auto ctrl_region = shm.guest_map(control_channel_region(port), vm);
  if (!ctrl_region.is_ok()) return ctrl_region.status();
  auto ctrl = ControlChannel::attach(*ctrl_region.value());
  if (!ctrl.is_ok()) return ctrl.status();
  pmd.ctrl_ = ctrl.value();

  return pmd;
}

std::size_t GuestPmd::rx_bypass_ring(std::size_t i,
                                     std::span<mbuf::Mbuf*> out,
                                     exec::CycleMeter& meter) noexcept {
  BypassRx& rx = bypass_rx_[i];
  meter.charge(cost_->ring_deq_base);
  const std::size_t n = rx.ring->dequeue_burst(out);
  meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
  counters_.rx_bypass += n;
  if (n > 0 && !rx.started) {
    rx.started = true;
    HW_ATOMIC_WRITE(&rx.dir->rx_started);
    std::atomic_ref<std::uint32_t>(rx.dir->rx_started)
        .store(1, std::memory_order_release);
  }
  return n;
}

bool GuestPmd::rx_closed(std::size_t i) noexcept {
  BypassRx& rx = bypass_rx_[i];
  if (!rx.closed) {
    HW_ATOMIC_READ(&rx.dir->tx_closed);
    rx.closed = std::atomic_ref<std::uint32_t>(rx.dir->tx_closed)
                    .load(std::memory_order_acquire) != 0;
  }
  return rx.closed;
}

std::size_t GuestPmd::release_held(std::span<mbuf::Mbuf*> out,
                                   std::size_t total,
                                   exec::CycleMeter& meter) noexcept {
  bool closed_backlog = false;
  for (std::size_t i = 0; i < bypass_rx_count_; ++i) {
    if (!bypass_rx_[i].closed) continue;
    total += rx_bypass_ring(i, out.subspan(total), meter);
    closed_backlog = closed_backlog || !bypass_rx_[i].ring->empty();
  }
  if (closed_backlog) return total;  // out is full; older frames remain
  const std::size_t n = std::min(held_.size(), out.size() - total);
  std::copy_n(held_.begin(), n, out.begin() + static_cast<std::ptrdiff_t>(total));
  held_.erase(held_.begin(), held_.begin() + static_cast<std::ptrdiff_t>(n));
  return total + n;
}

std::uint16_t GuestPmd::rx_burst(std::span<mbuf::Mbuf*> out,
                                 exec::CycleMeter& meter) noexcept {
  if (++rx_calls_since_ctrl_ >= kCtrlPollInterval) {
    rx_calls_since_ctrl_ = 0;
    process_control(meter);
  }

  std::size_t total = 0;
  // Frames held back by an earlier call go first, behind the closed
  // ring that held them; the normal channel waits until they are out.
  if (!held_.empty()) total = release_held(out, total, meter);

  // How many frames each bypass ring holds, read BEFORE the normal poll
  // and dequeued after it. A sender publishes ring frames only once the
  // switch has delivered every older frame it sent through it, so
  // whatever this load sees, the normal poll below sees their
  // predecessors. (One load per ring, the one its dequeue would make.)
  std::array<std::size_t, kMaxBypassRx> ready{};
  for (std::size_t i = 0; held_.empty() && i < bypass_rx_count_; ++i) {
    ready[i] = bypass_rx_[i].ring->poll_available();
  }

  // The normal channel is polled FIRST, unconditionally: the OpenFlow
  // controller may inject packet-out frames at any time, and frames that
  // were in flight on the normal path when a bypass activated must drain
  // ahead of newer bypass traffic. A saturated bypass must never starve
  // it (the probe on an empty ring costs one base charge).
  if (held_.empty()) {
    const std::size_t first_normal = total;
    meter.charge(cost_->ring_deq_base);
    const std::size_t n = normal_.a2b().dequeue_burst(out.subspan(total));
    meter.charge(static_cast<Cycles>(n) * cost_->ring_deq_per_pkt);
    counters_.rx_normal += n;
    total += n;
    // Teardown ordering. A sender publishes "TX closed" after its last
    // bypass enqueue and before anything it sends through the switch, so
    // if these normal frames include such a later frame, the closed word
    // reads 1 now. A closed ring that still holds frames holds OLDER
    // ones: they go out first, and these normal frames wait in held_.
    bool closed_backlog = false;
    for (std::size_t i = 0; n > 0 && i < bypass_rx_count_; ++i) {
      closed_backlog = closed_backlog ||
                       (rx_closed(i) && !bypass_rx_[i].ring->empty());
    }
    if (closed_backlog) {
      held_.assign(out.begin() + static_cast<std::ptrdiff_t>(first_normal),
                   out.begin() + static_cast<std::ptrdiff_t>(total));
      total = release_held(out, first_normal, meter);
    }
  }

  for (std::size_t i = 0;
       held_.empty() && i < bypass_rx_count_ && total < out.size(); ++i) {
    const std::size_t room = std::min(ready[i], out.size() - total);
    total += rx_bypass_ring(i, out.subspan(total, room), meter);
  }
  if (int_clock_ != nullptr && total > 0) {
    // Close the newest hop record: this dequeue is the frame leaving the
    // link it was stamped onto. Frames without a trailer (packet-out,
    // pre-enable traffic) are left untouched and charged nothing.
    // Epoch-granular: stamps from different contexts must be comparable,
    // and the sub-epoch clock is only ordered within one context.
    const TimeNs now = int_clock_->epoch_start_ns();
    for (std::size_t i = 0; i < total; ++i) {
      if (pkt::int_complete_hop(*out[i], now)) {
        meter.charge(cost_->int_stamp);
      }
    }
  }
  return static_cast<std::uint16_t>(total);
}

std::uint64_t GuestPmd::int_stamp_burst(std::span<mbuf::Mbuf* const> pkts,
                                        std::size_t accepted,
                                        std::size_t queue_depth,
                                        exec::CycleMeter& meter) noexcept {
  const TimeNs now = int_clock_->epoch_start_ns();
  std::uint64_t grown = 0;
  for (std::size_t i = 0; i < accepted; ++i) {
    const std::uint32_t before = pkts[i]->data_len;
    if (pkt::int_push_hop(*pkts[i], port_, now,
                          static_cast<std::uint32_t>(queue_depth))) {
      meter.charge(cost_->int_stamp);
    }
    grown += pkts[i]->data_len - before;
  }
  return grown;
}

std::uint16_t GuestPmd::tx_burst(std::span<mbuf::Mbuf* const> pkts,
                                 exec::CycleMeter& meter) noexcept {
  if (tx_staging_ || detach_pending_) advance_tx();
  meter.charge(cost_->ring_enq_base);
  std::size_t accepted;
  if (bypass_tx_ring_ != nullptr) {
    // Sum the bytes before the enqueue: once a frame is on the ring the
    // receiver may free it and the pool hand it out again, so reading
    // it afterwards races. Rejected frames stay ours and are subtracted.
    std::uint64_t bytes = 0;
    for (const mbuf::Mbuf* pkt : pkts) bytes += pkt->data_len;
    accepted = tx_staging_ ? bypass_tx_ring_->stage_burst(pkts, tx_staged_)
                           : bypass_tx_ring_->enqueue_burst(pkts);
    meter.charge(static_cast<Cycles>(accepted) * cost_->ring_enq_per_pkt);
    for (std::size_t i = accepted; i < pkts.size(); ++i) {
      bytes -= pkts[i]->data_len;
    }
    if (int_clock_ != nullptr) {
      // The accounted bytes include the grown trailer — what the
      // receiver will actually count.
      bytes += int_stamp_burst(pkts, accepted, bypass_tx_ring_->size(), meter);
    }
    // The switch never sees these frames; account them against the
    // OpenFlow rule and ports in the shared statistics memory.
    stats_.account_bypass(port_, bypass_tx_peer_, bypass_tx_slot_, accepted,
                          bytes);
    counters_.tx_bypass += accepted;
  } else {
    accepted = normal_.b2a().enqueue_burst(pkts);
    meter.charge(static_cast<Cycles>(accepted) * cost_->ring_enq_per_pkt);
    if (int_clock_ != nullptr) {
      (void)int_stamp_burst(pkts, accepted, normal_.b2a().size(), meter);
    }
    counters_.tx_normal += accepted;
  }
  counters_.tx_rejected += pkts.size() - accepted;
  return static_cast<std::uint16_t>(accepted);
}

void GuestPmd::advance_tx() noexcept {
  if (tx_staging_) {
    HW_ATOMIC_READ(&normal_.switch_rx_done());
    const std::uint64_t done =
        std::atomic_ref<std::uint64_t>(normal_.switch_rx_done())
            .load(std::memory_order_acquire);
    if (done < tx_open_mark_) return;
    // Every frame sent through the switch before the attach sits on the
    // receiver's normal ring (or was dropped): the staged ones may go.
    bypass_tx_ring_->publish(tx_staged_);
    tx_staging_ = false;
  }
  if (detach_pending_) {
    // Close only a ring the receiver has started on (it has then taken
    // every older normal-channel frame) or that holds nothing: its
    // "TX closed" rule puts ring frames ahead of whatever normal frames
    // it takes next, which must not include pre-attach ones.
    HW_ATOMIC_READ(&bypass_tx_dir_->rx_started);
    if (!bypass_tx_ring_->empty() &&
        std::atomic_ref<std::uint32_t>(bypass_tx_dir_->rx_started)
                .load(std::memory_order_acquire) == 0) {
      return;
    }
    detach_pending_ = false;
    detach_tx(pending_detach_);
  }
}

void GuestPmd::detach_tx(const CtrlMsg& msg) {
  // Publish "TX closed" after the last enqueue on the ring and before
  // any frame leaves through the normal channel: the receiver uses it to
  // keep the ring's frames ahead of those (see rx_burst).
  HW_ATOMIC_WRITE(&bypass_tx_dir_->tx_closed);
  std::atomic_ref<std::uint32_t>(bypass_tx_dir_->tx_closed)
      .store(1, std::memory_order_release);
  bypass_tx_ring_ = nullptr;
  bypass_tx_dir_ = nullptr;
  bypass_tx_peer_ = kPortNone;
  bypass_tx_slot_ = kStatsSlotNone;
  bypass_tx_region_.fill('\0');
  send_ack(msg, true);
}

std::uint32_t GuestPmd::process_control(exec::CycleMeter& meter) {
  meter.charge(cost_->ctrl_poll);
  if (tx_staging_ || detach_pending_) advance_tx();
  std::uint32_t handled = 0;
  CtrlMsg msg;
  while (ctrl_.cmd().dequeue(msg)) {
    ++counters_.ctrl_cmds;
    handle_ctrl(msg);
    ++handled;
  }
  return handled;
}

void GuestPmd::handle_ctrl(const CtrlMsg& msg) {
  switch (msg.op) {
    case CtrlOp::kAttachBypassRx: {
      if (bypass_rx_count_ >= kMaxBypassRx) {
        send_ack(msg, false);
        return;
      }
      auto region = shm_->guest_map(msg.region_name(), vm_);
      if (!region.is_ok()) {
        send_ack(msg, false);
        return;
      }
      auto view = ChannelView::attach(*region.value(), msg.epoch);
      if (!view.is_ok()) {
        send_ack(msg, false);
        return;
      }
      // Direction peer→self: read a2b when the peer is endpoint A.
      MbufRing* ring = view.value().header().port_a == msg.peer_port
                           ? &view.value().a2b()
                           : &view.value().b2a();
      BypassRx& slot = bypass_rx_[bypass_rx_count_];
      slot = BypassRx{};
      slot.ring = ring;
      slot.dir = &view.value().direction(*ring);
      // A region the pair's other direction kept alive still holds this
      // direction's words from its previous link: start them afresh. No
      // sender uses them until the agent attaches TX, after this ack.
      HW_ATOMIC_WRITE(&slot.dir->tx_closed);
      std::atomic_ref<std::uint32_t>(slot.dir->tx_closed)
          .store(0, std::memory_order_release);
      HW_ATOMIC_WRITE(&slot.dir->rx_started);
      std::atomic_ref<std::uint32_t>(slot.dir->rx_started)
          .store(0, std::memory_order_release);
      // Full-width copy: msg.region is always NUL-terminated by
      // set_region(), and copying the terminator keeps -Wstringop-
      // truncation satisfied where strncpy could not.
      std::memcpy(slot.region.data(), msg.region, kCtrlRegionNameLen);
      ++bypass_rx_count_;
      send_ack(msg, true);
      return;
    }

    case CtrlOp::kAttachBypassTx: {
      if (bypass_tx_ring_ != nullptr) {
        send_ack(msg, false);
        return;
      }
      auto region = shm_->guest_map(msg.region_name(), vm_);
      if (!region.is_ok()) {
        send_ack(msg, false);
        return;
      }
      auto view = ChannelView::attach(*region.value(), msg.epoch);
      if (!view.is_ok()) {
        send_ack(msg, false);
        return;
      }
      // Direction self→peer: write a2b when we are endpoint A.
      bypass_tx_ring_ = view.value().header().port_a == port_
                            ? &view.value().a2b()
                            : &view.value().b2a();
      bypass_tx_dir_ = &view.value().direction(*bypass_tx_ring_);
      bypass_tx_peer_ = msg.peer_port;
      bypass_tx_slot_ = msg.rule_slot;
      std::memcpy(bypass_tx_region_.data(), msg.region, kCtrlRegionNameLen);
      // Setup fence: stage until the switch is done with what this port
      // sent it so far (opens at once when nothing is in flight).
      tx_open_mark_ = normal_.b2a().produced();
      tx_staged_ = bypass_tx_ring_->produced();
      tx_staging_ = true;
      advance_tx();
      send_ack(msg, true);
      return;
    }

    case CtrlOp::kDetachBypassTx: {
      if (bypass_tx_ring_ == nullptr || detach_pending_ ||
          std::strncmp(bypass_tx_region_.data(), msg.region,
                       kCtrlRegionNameLen) != 0) {
        send_ack(msg, false);
        return;
      }
      // Acknowledged by detach_tx, now or once the ring may close.
      pending_detach_ = msg;
      detach_pending_ = true;
      advance_tx();
      return;
    }

    case CtrlOp::kDetachBypassRx: {
      for (std::size_t i = 0; i < bypass_rx_count_; ++i) {
        if (std::strncmp(bypass_rx_[i].region.data(), msg.region,
                         kCtrlRegionNameLen) != 0) {
          continue;
        }
        if (!bypass_rx_[i].ring->empty()) {
          // The agent detaches RX only after the TX side stopped and the
          // ring drained; a non-empty ring means "not yet" — NACK so the
          // agent retries.
          send_ack(msg, false);
          return;
        }
        bypass_rx_[i] = bypass_rx_[bypass_rx_count_ - 1];
        bypass_rx_[bypass_rx_count_ - 1] = BypassRx{};
        --bypass_rx_count_;
        send_ack(msg, true);
        return;
      }
      send_ack(msg, false);
      return;
    }

    case CtrlOp::kNop:
      send_ack(msg, true);
      return;
  }
  send_ack(msg, false);
}

void GuestPmd::send_ack(const CtrlMsg& cmd, bool ok) {
  if (!ok) {
    ++counters_.ctrl_errors;
    HW_LOG(kDebug, "pmd", "port %u NACK op=%u region=%s", port_,
           static_cast<unsigned>(cmd.op), cmd.region);
  }
  CtrlMsg ack = cmd;
  ack.ok = ok ? 1 : 0;
  if (!ctrl_.ack().enqueue(ack)) {
    HW_LOG(kWarn, "pmd", "port %u ack ring full", port_);
  }
}

}  // namespace hw::pmd
