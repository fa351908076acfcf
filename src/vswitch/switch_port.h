#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "analysis/annotate.h"
#include "common/types.h"
#include "mbuf/mbuf.h"
#include "nic/sim_nic.h"
#include "openflow/messages.h"
#include "pmd/channel.h"

/// \file switch_port.h
/// Switch-side port abstraction. The forwarding engine sees a uniform
/// rx_burst/tx_burst interface; behind it sit either the host end of a
/// dpdkr normal channel or a NIC's host rings. Crucially, a bypassed dpdkr
/// port looks *identical* from here — the switch simply stops seeing its
/// traffic, which is the paper's transparency property on the switch side.

namespace hw::vswitch {

enum class PortKind : std::uint8_t { kDpdkr, kPhy };

class SwitchPort {
 public:
  SwitchPort(PortId id, std::string name, PortKind kind)
      : id_(id), name_(std::move(name)), kind_(kind) {
    stats_.port = id;
  }
  virtual ~SwitchPort() = default;

  SwitchPort(const SwitchPort&) = delete;
  SwitchPort& operator=(const SwitchPort&) = delete;

  [[nodiscard]] PortId id() const noexcept { return id_; }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] PortKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Pulls frames from the port into the switch. Pointer moves only.
  virtual std::size_t rx_burst(std::span<mbuf::Mbuf*> out) noexcept = 0;

  /// Pushes frames from the switch out of the port; returns accepted
  /// count. The caller owns (and typically frees) the remainder.
  virtual std::size_t tx_burst(std::span<mbuf::Mbuf* const> pkts) noexcept = 0;

  /// Called once every frame rx_burst returned so far has been forwarded
  /// or dropped.
  virtual void rx_complete() noexcept {}

  /// Switch-side counters (forwarded traffic only; bypassed traffic is
  /// merged in from the shared statistics memory by OfSwitch).
  [[nodiscard]] openflow::PortStats& stats() noexcept { return stats_; }
  [[nodiscard]] const openflow::PortStats& stats() const noexcept {
    return stats_;
  }

 private:
  PortId id_;
  std::string name_;
  PortKind kind_;
  bool enabled_ = true;
  openflow::PortStats stats_;
};

/// Host end of a dpdkr port's normal channel (a2b = switch→VM).
class DpdkrSwitchPort final : public SwitchPort {
 public:
  DpdkrSwitchPort(PortId id, std::string name, pmd::ChannelView channel)
      : SwitchPort(id, std::move(name), PortKind::kDpdkr),
        channel_(channel) {}

  std::size_t rx_burst(std::span<mbuf::Mbuf*> out) noexcept override {
    return channel_.b2a().dequeue_burst(out);
  }
  std::size_t tx_burst(std::span<mbuf::Mbuf* const> pkts) noexcept override {
    return channel_.a2b().enqueue_burst(pkts);
  }
  /// Publishes the switch's progress to the guest: the setup fence a
  /// PMD switching to a bypass ring waits on (ChannelHeader).
  void rx_complete() noexcept override {
    HW_ATOMIC_WRITE(&channel_.switch_rx_done());
    std::atomic_ref<std::uint64_t>(channel_.switch_rx_done())
        .store(channel_.b2a().consumed(), std::memory_order_release);
  }

  [[nodiscard]] pmd::ChannelView& channel() noexcept { return channel_; }

 private:
  pmd::ChannelView channel_;
};

/// A physical port backed by a simulated NIC.
class PhySwitchPort final : public SwitchPort {
 public:
  PhySwitchPort(PortId id, std::string name, nic::SimNic& nic)
      : SwitchPort(id, std::move(name), PortKind::kPhy), nic_(&nic) {}

  std::size_t rx_burst(std::span<mbuf::Mbuf*> out) noexcept override {
    return nic_->host_rx().dequeue_burst(out);
  }
  std::size_t tx_burst(std::span<mbuf::Mbuf* const> pkts) noexcept override {
    return nic_->host_tx().enqueue_burst(pkts);
  }

  [[nodiscard]] nic::SimNic& nic() noexcept { return *nic_; }

 private:
  nic::SimNic* nic_;
};

}  // namespace hw::vswitch
