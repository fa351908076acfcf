#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/context.h"
#include "mbuf/mempool.h"
#include "pkt/traffic_profile.h"
#include "pkt/workload_gen.h"
#include "pmd/guest_pmd.h"
#include "spans.h"

/// \file endpoint.h
/// The benchmark's own traffic endpoint: the generator and sink roles of
/// the chain's first and last VM, driven through the guest PMDs' public
/// tx_burst / rx_burst. Direction 0 (forward) leaves VM0 and is sunk at
/// VM2; direction 1 (reverse) leaves VM2 and is sunk at VM0.
///
/// Unlike vm::GenSinkApp it
///  * stamps each frame with the time it was *due* (open loop), so a
///    stalled generator shows up as latency instead of as less load;
///  * bounds the frames in flight per direction in open loop too: a
///    frame due while the window is full is held and sent once there is
///    room, still stamped with its due time, so a stalled thread
///    downstream shows up as latency instead of as a ring overflow;
///  * counts every refused, unallocatable or never-sent frame as failed;
///  * keeps every latency sample exactly (no log2 buckets);
///  * checks per-flow sequence numbers for duplicates and reorders, with
///    the flow id carried in Mbuf::flags (flows are < 65536).

namespace chainbench {

struct DirCounters {
  std::uint64_t due = 0;           ///< frames the generator owed
  std::uint64_t sent = 0;          ///< accepted by tx_burst
  std::uint64_t tx_refused = 0;    ///< refused by tx_burst, freed
  std::uint64_t alloc_failed = 0;  ///< mempool empty when due
  std::uint64_t unsent = 0;        ///< open loop: still held when stopped
  std::uint64_t delivered = 0;     ///< sunk at the far endpoint
  std::uint64_t duplicates = 0;    ///< per-flow seq seen twice
  std::uint64_t reorders = 0;      ///< per-flow seq went backwards
};

/// One direction's frame stream: which flow sends next and the frame's
/// bytes come from the product's WorkloadGen, seeded by the profile; the
/// flow id goes into Mbuf::flags and a per-stream sequence number into
/// Mbuf::seq. The same profile always yields the same stream.
class FrameStream {
 public:
  explicit FrameStream(const hw::pkt::TrafficProfile& profile)
      : gen_(profile) {
    (void)gen_.advance(0);  // no churn: the population is static
  }

  void next(hw::mbuf::Mbuf& buf) noexcept {
    const std::uint64_t flow = gen_.pick_flow();
    gen_.synthesize(buf, flow);
    buf.flags = static_cast<std::uint16_t>(flow);
    buf.seq = next_seq_++;
  }
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

 private:
  hw::pkt::WorkloadGen gen_;
  std::uint64_t next_seq_ = 1;
};

class Endpoint final : public hw::exec::Context {
 public:
  static constexpr std::uint32_t kBurst = 32;
  static constexpr std::uint32_t kMaxFlows = 65536;

  /// `fwd_tx` is VM0's chain-facing port, `rev_tx` VM2's. The profiles'
  /// seeds fix the frame streams.
  Endpoint(hw::pmd::GuestPmd& fwd_tx, hw::pmd::GuestPmd& rev_tx,
           hw::mbuf::Mempool& pool, const hw::pkt::TrafficProfile& fwd,
           const hw::pkt::TrafficProfile& rev);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "gen";
  }
  std::uint32_t poll(hw::exec::CycleMeter& meter) override;

  /// Closed loop: keep `window` frames in flight per direction.
  void start_closed_loop(std::uint32_t window) noexcept;
  /// Open loop: frame k of each direction is due at t0 + k / rate; the
  /// last frames due are those before `t_end`. At most `window` frames
  /// per direction are in flight; a due frame waits for room.
  void start_open_loop(double pps_per_direction, TimeNs t0, TimeNs t_end,
                       std::uint32_t window) noexcept;
  /// Stops generating; poll() keeps sinking. Open-loop frames not sent
  /// by then are counted as due and unsent.
  void stop_generating() noexcept;
  /// True once an open-loop run has emitted every frame due before t_end.
  [[nodiscard]] bool open_loop_done() const noexcept {
    return mode_ != Mode::kOpenLoop;
  }

  void set_spans(SpanLog* spans) noexcept { spans_ = spans; }
  void set_record_latency(bool on) noexcept { record_latency_ = on; }
  /// Marks each sunk buffer's pool index (mbuf.touched_mib).
  void set_touch_tracking(bool on);
  /// Distinct buffers sunk since the last call; clears the marks.
  std::size_t take_touched();

  /// Direction `dir`'s stream (the replay draws further keys from it).
  [[nodiscard]] FrameStream& stream(int dir) noexcept {
    return dirs_[static_cast<std::size_t>(dir)].stream;
  }

  /// Fault injection for the benchmark's own tests: the next frame
  /// generated is counted as sent but kept back — never sent, never freed.
  void withhold_next_frame() noexcept { withhold_ = true; }
  [[nodiscard]] std::size_t withheld() const noexcept {
    return withheld_.size();
  }

  [[nodiscard]] const DirCounters& dir(int d) const noexcept {
    return dirs_[static_cast<std::size_t>(d)].c;
  }
  [[nodiscard]] std::uint64_t delivered_total() const noexcept {
    return dirs_[0].c.delivered + dirs_[1].c.delivered;
  }
  [[nodiscard]] std::vector<std::uint32_t>& latency_samples() noexcept {
    return latency_ns_;
  }
  [[nodiscard]] TimeNs max_gen_lag_ns() const noexcept { return max_lag_; }

 private:
  enum class Mode : std::uint8_t { kSinkOnly, kClosedLoop, kOpenLoop };

  struct Dir {
    Dir(hw::pmd::GuestPmd& port, const hw::pkt::TrafficProfile& profile)
        : tx(&port), stream(profile), last_seq(kMaxFlows, 0) {}
    hw::pmd::GuestPmd* tx;
    FrameStream stream;
    std::uint64_t k = 0;  ///< open loop: frames scheduled so far
    std::vector<std::uint64_t> last_seq;  ///< per flow id
    DirCounters c;
  };

  std::uint32_t generate(Dir& d, TimeNs now);
  std::uint32_t sink(hw::pmd::GuestPmd& port, Dir& d, TimeNs now);
  std::uint32_t send(Dir& d, std::uint32_t want, TimeNs stamp_base);
  [[nodiscard]] TimeNs due_of(std::uint64_t k) const noexcept {
    return t0_ + static_cast<TimeNs>(
                     std::llround(static_cast<double>(k) * period_ns_));
  }

  hw::mbuf::Mempool* pool_;
  std::array<Dir, 2> dirs_;
  Mode mode_ = Mode::kSinkOnly;
  std::uint32_t window_ = 0;
  double period_ns_ = 0;
  TimeNs t0_ = 0;
  std::uint64_t frames_per_dir_ = 0;  ///< open loop: frames due per direction
  SpanLog* spans_ = nullptr;
  bool record_latency_ = false;
  std::vector<std::uint32_t> latency_ns_;
  TimeNs max_lag_ = 0;
  std::vector<std::uint64_t> touched_;  ///< bitmap by pool index
  bool withhold_ = false;
  std::vector<hw::mbuf::Mbuf*> withheld_;
  std::array<hw::mbuf::Mbuf*, kBurst> buf_{};
};

}  // namespace chainbench
