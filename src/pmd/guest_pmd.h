#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "mbuf/mbuf.h"
#include "pmd/channel.h"
#include "pmd/control.h"
#include "pmd/shared_stats.h"
#include "shm/shm.h"

/// \file guest_pmd.h
/// The *modified* dpdkr poll-mode driver running inside a VM.
///
/// One GuestPmd instance drives one dpdkr port. From the application's
/// point of view it is an ordinary port with rx_burst/tx_burst; internally
/// it multiplexes:
///   * the normal channel — rings to the vSwitch forwarding engine, always
///     present, always polled (so OpenFlow packet-out keeps arriving);
///   * zero or more bypass RX channels — rings written directly by peer
///     VMs;
///   * at most one bypass TX channel — the ring of the active p-2-p link
///     whose catch-all rule steers everything this port emits.
/// The compute agent reconfigures these at run time over the virtio-serial
/// control channel; every command is acknowledged. When transmitting on
/// the bypass, the PMD accounts packets/bytes against the OpenFlow rule
/// and ports in the shared statistics memory, keeping the switch's
/// OpenFlow statistics truthful for traffic it never forwards.
///
/// With INT hop-stamping enabled (configure_int), the PMD appends one
/// pkt::IntHopRecord per transmitted frame (ingress time + tx queue
/// depth) and completes the newest record with the egress time when the
/// frame is received on the far side — so one record measures one link
/// transit, switch fabric included, which is exactly the latency the
/// bypass channel collapses. Stamping happens before byte accounting, so
/// every byte counter (shared stats, port stats, sink) consistently
/// includes the trailer.

namespace hw::exec {
class Runtime;
}

namespace hw::pmd {

struct PmdCounters {
  std::uint64_t rx_normal = 0;
  std::uint64_t rx_bypass = 0;
  std::uint64_t tx_normal = 0;
  std::uint64_t tx_bypass = 0;
  std::uint64_t tx_rejected = 0;   ///< destination ring full (both paths)
  std::uint64_t ctrl_cmds = 0;
  std::uint64_t ctrl_errors = 0;
};

class GuestPmd {
 public:
  /// Maximum simultaneous bypass RX sources (multiple upstream p-2-p
  /// links may terminate at the same port).
  static constexpr std::size_t kMaxBypassRx = 4;

  /// Attaches to an already-plugged normal channel + control channel.
  /// `stats` is the host-wide shared statistics view (plugged at VM boot).
  [[nodiscard]] static Result<GuestPmd> attach(shm::ShmManager& shm, VmId vm,
                                               PortId port,
                                               SharedStats stats,
                                               const exec::CostModel& cost);

  GuestPmd(GuestPmd&&) = default;
  GuestPmd& operator=(GuestPmd&&) = default;

  [[nodiscard]] PortId port() const noexcept { return port_; }
  [[nodiscard]] VmId vm() const noexcept { return vm_; }

  /// Receives up to out.size() frames. The normal channel is polled first
  /// and unconditionally — controller packet-out frames and in-flight
  /// frames from before a bypass activation must be delivered even when
  /// the bypass is saturated — then the bypass channels fill the rest.
  ///
  /// Frame order across a link's life, per sender:
  ///   * setup — a ring frame comes after every frame its sender sent
  ///     through the switch before switching over. The sender publishes
  ///     ring frames only once the switch has forwarded those (see
  ///     tx_burst), and this call reads each ring's ready count before it
  ///     polls the normal channel, so the older frames are seen first;
  ///   * teardown — a ring frame comes before any frame its sender sent
  ///     through the switch after detaching. When this call took
  ///     normal-channel frames and a ring whose sender has detached TX
  ///     (its "TX closed" word, read after the normal poll) still holds
  ///     frames, the ring's frames are returned first and the
  ///     normal-channel frames are held back — delivered, in order, once
  ///     the closed ring is empty.
  /// Nothing is dropped or refused for either.
  std::uint16_t rx_burst(std::span<mbuf::Mbuf*> out,
                         exec::CycleMeter& meter) noexcept;

  /// Transmits the burst through the bypass channel when one is active,
  /// otherwise through the normal channel. Returns frames accepted; the
  /// caller retains ownership of the rest (typically frees them).
  ///
  /// Right after a bypass TX attach, accepted frames are staged on the
  /// ring but not yet visible to the receiver: they are published once
  /// the switch reports (ChannelHeader::switch_rx_done) that it has
  /// forwarded everything this port sent through it before the attach.
  /// A detach arriving before the ring may close is acknowledged late:
  /// once the staged frames are published and the receiver has started
  /// on the ring (or it is empty).
  std::uint16_t tx_burst(std::span<mbuf::Mbuf* const> pkts,
                         exec::CycleMeter& meter) noexcept;

  /// Enables INT hop-stamping using `clock` for virtual timestamps
  /// (null disables). SimRuntime scenarios only: the egress stamp is
  /// written into a frame already sitting in the ring, which is safe
  /// under the lock-step driver but racy under real threads.
  void configure_int(const exec::Runtime* clock) noexcept {
    int_clock_ = clock;
  }
  [[nodiscard]] bool int_enabled() const noexcept {
    return int_clock_ != nullptr;
  }

  /// Drains the agent command ring and applies reconfigurations. Called
  /// automatically every kCtrlPollInterval rx_bursts; exposed for tests
  /// and for apps that want immediate reconfiguration.
  std::uint32_t process_control(exec::CycleMeter& meter);

  [[nodiscard]] bool bypass_tx_active() const noexcept {
    return bypass_tx_ring_ != nullptr;
  }
  [[nodiscard]] std::size_t bypass_rx_count() const noexcept {
    return bypass_rx_count_;
  }
  [[nodiscard]] const PmdCounters& counters() const noexcept {
    return counters_;
  }

  /// Frames queued toward the VM on the normal channel, including any
  /// held back behind a closed bypass ring (diagnostics).
  [[nodiscard]] std::size_t normal_rx_backlog() const noexcept {
    return (normal_.valid() ? normal_.a2b().size() : 0) + held_.size();
  }

  static constexpr std::uint32_t kCtrlPollInterval = 64;

 private:
  GuestPmd() = default;

  void handle_ctrl(const CtrlMsg& msg);
  void send_ack(const CtrlMsg& cmd, bool ok);

  /// Stamps every accepted frame of a tx burst (called after enqueue;
  /// the pointers are still ours to write through under SimRuntime).
  /// Returns the bytes the stamps added.
  std::uint64_t int_stamp_burst(std::span<mbuf::Mbuf* const> pkts,
                                std::size_t accepted, std::size_t queue_depth,
                                exec::CycleMeter& meter) noexcept;

  /// Dequeues one bypass RX ring into `out`, charging and counting it;
  /// the first frame taken stores the ring's "RX started" word.
  std::size_t rx_bypass_ring(std::size_t i, std::span<mbuf::Mbuf*> out,
                             exec::CycleMeter& meter) noexcept;
  /// True once ring `i`'s sender has detached TX (sticky: the word is
  /// loaded only until it first reads closed).
  bool rx_closed(std::size_t i) noexcept;
  /// Fills `out` from `total` on: closed bypass rings first, then — once
  /// they are all empty — the held-back normal-channel frames. Returns
  /// the new total.
  std::size_t release_held(std::span<mbuf::Mbuf*> out, std::size_t total,
                           exec::CycleMeter& meter) noexcept;
  /// Moves the TX side past its fences: publishes the staged frames once
  /// the switch has forwarded everything older, then completes a
  /// deferred detach once the ring may close. Cheap no-op otherwise.
  void advance_tx() noexcept;
  /// Closes the bypass TX ring (publishing "TX closed"), reverts to the
  /// normal channel and acknowledges `msg`.
  void detach_tx(const CtrlMsg& msg);

  shm::ShmManager* shm_ = nullptr;
  VmId vm_ = 0;
  PortId port_ = kPortNone;
  const exec::CostModel* cost_ = nullptr;
  const exec::Runtime* int_clock_ = nullptr;

  ChannelView normal_;        ///< a2b = switch→VM, b2a = VM→switch
  ControlChannel ctrl_;
  SharedStats stats_;

  // Bypass TX state (at most one active p-2-p link out of this port).
  MbufRing* bypass_tx_ring_ = nullptr;
  ChannelHeader::Direction* bypass_tx_dir_ = nullptr;  ///< ring's handshake
  PortId bypass_tx_peer_ = kPortNone;
  std::uint32_t bypass_tx_slot_ = kStatsSlotNone;
  std::array<char, kCtrlRegionNameLen> bypass_tx_region_{};
  /// Setup fence: frames are staged on the ring, unpublished, until the
  /// switch's progress on the normal b2a ring passes `tx_open_mark_` (its
  /// producer index at the attach).
  bool tx_staging_ = false;
  std::uint64_t tx_open_mark_ = 0;
  std::uint64_t tx_staged_ = 0;  ///< ring producer index staged up to
  /// A kDetachBypassTx waiting for the ring to be allowed to close.
  bool detach_pending_ = false;
  CtrlMsg pending_detach_{};

  // Bypass RX state.
  struct BypassRx {
    MbufRing* ring = nullptr;
    ChannelHeader::Direction* dir = nullptr;  ///< ring's handshake words
    bool closed = false;   ///< dir->tx_closed read 1
    bool started = false;  ///< dir->rx_started stored
    std::array<char, kCtrlRegionNameLen> region{};
  };
  std::array<BypassRx, kMaxBypassRx> bypass_rx_{};
  std::size_t bypass_rx_count_ = 0;
  /// Normal-channel frames held back behind a closed, non-empty bypass
  /// ring (see rx_burst); oldest first.
  std::vector<mbuf::Mbuf*> held_;

  std::uint32_t rx_calls_since_ctrl_ = 0;
  PmdCounters counters_;
};

}  // namespace hw::pmd
