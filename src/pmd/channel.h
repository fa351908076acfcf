#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "mbuf/mbuf.h"
#include "ring/spsc_ring.h"
#include "shm/shm.h"

/// \file channel.h
/// The shared-memory layout of a dpdkr channel: a validated header plus a
/// pair of SPSC mbuf-pointer rings, one per direction. Both the *normal
/// channel* (VM <-> switch) and the *bypass channel* (VM <-> VM) use this
/// layout — that symmetry is what lets the modified PMD treat either as
/// "the place I enqueue/dequeue packets".

namespace hw::pmd {

using MbufRing = ring::SpscRing<mbuf::Mbuf*>;

inline constexpr std::uint32_t kChannelMagic = 0x44504b52;  // "DPKR"

/// Header at offset 0 of a channel region. The epoch lets an attaching PMD
/// reject a stale mapping after teardown/re-setup races.
///
/// `magic` doubles as the init-publish flag: the creator stores it
/// (release, via std::atomic_ref) after every other field and both rings
/// are ready; an attacher spinning on it (acquire) therefore sees the
/// channel fully constructed. It deliberately has NO initializer: the
/// region arrives zero-filled from the shm manager, and a peer may
/// already be spinning on this word when the creator placement-news the
/// header — even a constructor write of 0 would race with that read.
struct ChannelHeader {
  std::uint32_t magic;  // NOLINT: see above — ctor must not touch it
  std::uint32_t ring_capacity = 0;
  std::uint64_t epoch = 0;
  PortId port_a = kPortNone;  ///< switch port on the "a" end
  PortId port_b = kPortNone;  ///< switch port on the "b" end

  // The words below keep a bypass link's frames in send order across
  // setup and teardown (see GuestPmd). Each is written by one side with
  // a release store and read by the other with an acquire load, via
  // std::atomic_ref. The constructor zeroes them before `magic` is
  // published; a bypass direction's words are zeroed again by the
  // receiving PMD when it attaches RX, since a region the pair's other
  // direction kept alive is reused for the next link.

  /// Normal channel: how far the switch has *finished* forwarding b2a —
  /// the ring's consumer index, stored after every frame dequeued up to
  /// it sits on an output ring or was dropped. A sender switching to a
  /// bypass ring publishes that ring's frames only once this passes its
  /// own producer index at the switch.
  std::uint64_t switch_rx_done = 0;

  /// Bypass channel, one per direction ([0] a2b, [1] b2a).
  struct Direction {
    /// Stored 1 by the sending PMD when it detaches TX, after its last
    /// enqueue on the ring and before anything it sends through the
    /// switch.
    std::uint32_t tx_closed = 0;
    /// Stored 1 by the receiving PMD on its first dequeue from the ring,
    /// which it makes only after every normal-channel frame older than
    /// the ring's first frame. The sender does not detach a non-empty
    /// ring before this reads 1.
    std::uint32_t rx_started = 0;
  };
  Direction direction[2];
};

/// View over a channel region. Direction naming: `a2b` carries packets
/// from endpoint A to endpoint B. For a normal channel A = vSwitch,
/// B = VM. For a bypass channel A = the port named first at creation.
class ChannelView {
 public:
  ChannelView() = default;

  /// Bytes a region must have to host a channel with the given capacity.
  [[nodiscard]] static std::size_t bytes_required(
      std::size_t ring_capacity) noexcept;

  /// Initializes header + both rings inside `region` (creator side: the
  /// vSwitch for both normal and bypass channels).
  [[nodiscard]] static Result<ChannelView> create_in(shm::ShmRegion& region,
                                                     std::size_t ring_capacity,
                                                     PortId port_a,
                                                     PortId port_b,
                                                     std::uint64_t epoch);

  /// Attaches to an already-initialized channel (peer side). Validates
  /// magic and, if `expect_epoch` is nonzero, the epoch.
  [[nodiscard]] static Result<ChannelView> attach(
      shm::ShmRegion& region, std::uint64_t expect_epoch = 0);

  [[nodiscard]] bool valid() const noexcept { return header_ != nullptr; }
  [[nodiscard]] const ChannelHeader& header() const noexcept {
    return *header_;
  }
  [[nodiscard]] MbufRing& a2b() const noexcept { return *a2b_; }
  [[nodiscard]] MbufRing& b2a() const noexcept { return *b2a_; }
  /// The header's handshake words for `ring` (this channel's a2b or b2a).
  [[nodiscard]] ChannelHeader::Direction& direction(
      const MbufRing& ring) const noexcept {
    return header_->direction[&ring == a2b_ ? 0 : 1];
  }
  /// The header's switch-progress word (normal channels).
  [[nodiscard]] std::uint64_t& switch_rx_done() const noexcept {
    return header_->switch_rx_done;
  }

  /// Total mbufs currently queued in both directions.
  [[nodiscard]] std::size_t occupancy() const noexcept {
    return a2b_->size() + b2a_->size();
  }

 private:
  ChannelHeader* header_ = nullptr;
  MbufRing* a2b_ = nullptr;
  MbufRing* b2a_ = nullptr;
};

/// Conventional region names, so diagnostics and tests can find channels.
[[nodiscard]] std::string normal_channel_region(PortId port);
[[nodiscard]] std::string bypass_channel_region(PortId from, PortId to);
[[nodiscard]] std::string control_channel_region(PortId port);

}  // namespace hw::pmd
