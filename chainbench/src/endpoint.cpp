#include "endpoint.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace chainbench {

using hw::mbuf::Mbuf;

Endpoint::Endpoint(hw::pmd::GuestPmd& fwd_tx, hw::pmd::GuestPmd& rev_tx,
                   hw::mbuf::Mempool& pool,
                   const hw::pkt::TrafficProfile& fwd,
                   const hw::pkt::TrafficProfile& rev)
    : pool_(&pool),
      dirs_{Dir(fwd_tx, fwd), Dir(rev_tx, rev)} {}

void Endpoint::start_closed_loop(std::uint32_t window) noexcept {
  window_ = window;
  mode_ = Mode::kClosedLoop;
}

void Endpoint::start_open_loop(double pps_per_direction, TimeNs t0,
                               TimeNs t_end, std::uint32_t window) noexcept {
  window_ = window;
  period_ns_ = 1e9 / pps_per_direction;
  t0_ = t0;
  frames_per_dir_ = 0;
  while (due_of(frames_per_dir_) < t_end) ++frames_per_dir_;
  for (Dir& d : dirs_) d.k = 0;
  mode_ = Mode::kOpenLoop;
}

void Endpoint::stop_generating() noexcept {
  if (mode_ == Mode::kOpenLoop) {
    for (Dir& d : dirs_) {
      d.c.due += frames_per_dir_ - d.k;
      d.c.unsent += frames_per_dir_ - d.k;
      d.k = frames_per_dir_;
    }
  }
  mode_ = Mode::kSinkOnly;
}

void Endpoint::set_touch_tracking(bool on) {
  touched_.assign(on ? (pool_->capacity() + 63) / 64 : 0, 0);
}

std::size_t Endpoint::take_touched() {
  std::size_t n = 0;
  for (std::uint64_t& word : touched_) {
    n += static_cast<std::size_t>(std::popcount(word));
    word = 0;
  }
  return n;
}

std::uint32_t Endpoint::send(Dir& d, std::uint32_t want,
                             TimeNs stamp_base) {
  d.c.due += want;
  std::size_t got;
  {
    ScopedSpan span(spans_, Layer::kAlloc);
    got = pool_->alloc_bulk(std::span(buf_.data(), want));
    span.set(got);
  }
  d.c.alloc_failed += want - got;
  if (got == 0) return 0;
  const std::uint64_t first_seq = d.stream.next_seq();
  {
    ScopedSpan span(spans_, Layer::kSynth);
    for (std::size_t i = 0; i < got; ++i) {
      d.stream.next(*buf_[i]);
      // Open loop: frame k's due time; closed loop: the send time.
      buf_[i]->ts_ns =
          mode_ == Mode::kOpenLoop ? due_of(d.k + i) : stamp_base;
    }
    span.set(got, first_seq);
  }
  std::size_t offered = got;
  if (withhold_) {
    withheld_.push_back(buf_[--offered]);
    withhold_ = false;
    ++d.c.sent;  // counted as sent, so conservation must notice
  }
  std::uint16_t sent = 0;
  if (offered > 0) {
    ScopedSpan span(spans_, Layer::kTxBurst);
    hw::exec::CycleMeter meter;
    sent = d.tx->tx_burst(std::span<Mbuf* const>(buf_.data(), offered),
                          meter);
    span.set(sent, first_seq);
  }
  if (sent < offered) {
    ScopedSpan span(spans_, Layer::kFree);
    pool_->free_bulk(
        std::span<Mbuf* const>(buf_.data() + sent, offered - sent));
    span.set(offered - sent);
  }
  d.c.sent += sent;
  d.c.tx_refused += offered - sent;
  return static_cast<std::uint32_t>(got);
}

std::uint32_t Endpoint::generate(Dir& d, TimeNs now) {
  // Frames sent and not yet sunk. Nothing is dropped between the
  // endpoints while the window stays below the ring capacity, so a
  // window never wedges; were a frame lost, the held frames would end up
  // counted as unsent.
  const auto room = [&]() -> std::uint64_t {
    const std::uint64_t in_flight = d.c.sent - d.c.delivered;
    return in_flight >= window_ ? 0 : window_ - in_flight;
  };
  if (mode_ == Mode::kClosedLoop) {
    const auto want =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kBurst, room()));
    return want == 0 ? 0 : send(d, want, now);
  }
  // Open loop: emit every frame due by now, a burst at a time, as far as
  // the window allows.
  std::uint32_t total = 0;
  for (;;) {
    const std::uint64_t limit = std::min<std::uint64_t>(kBurst, room());
    std::uint32_t want = 0;
    while (want < limit && d.k + want < frames_per_dir_ &&
           due_of(d.k + want) <= now) {
      ++want;
    }
    if (want == 0) break;
    max_lag_ = std::max(max_lag_, now - due_of(d.k));
    total += send(d, want, 0);
    d.k += want;
  }
  return total;
}

std::uint32_t Endpoint::sink(hw::pmd::GuestPmd& port, Dir& d, TimeNs now) {
  std::uint16_t n;
  {
    ScopedSpan span(spans_, Layer::kRxBurst);
    hw::exec::CycleMeter meter;
    n = port.rx_burst(std::span(buf_.data(), kBurst), meter);
    span.set(n, n > 0 ? buf_[0]->seq : 0);
  }
  if (n == 0) return 0;
  if (record_latency_) now = mono_ns();
  for (std::uint16_t i = 0; i < n; ++i) {
    const Mbuf* buf = buf_[i];
    std::uint64_t& last = d.last_seq[buf->flags];
    if (buf->seq == last) {
      ++d.c.duplicates;
    } else if (buf->seq < last) {
      ++d.c.reorders;
    } else {
      last = buf->seq;
    }
    if (record_latency_) {
      const TimeNs lat = now > buf->ts_ns ? now - buf->ts_ns : 0;
      latency_ns_.push_back(static_cast<std::uint32_t>(
          std::min<TimeNs>(lat, 0xffffffffu)));
    }
    if (!touched_.empty()) {
      touched_[buf->pool_index / 64] |= 1ULL << (buf->pool_index % 64);
    }
  }
  d.c.delivered += n;
  {
    ScopedSpan span(spans_, Layer::kFree);
    pool_->free_bulk(std::span<Mbuf* const>(buf_.data(), n));
    span.set(n);
  }
  return n;
}

std::uint32_t Endpoint::poll(hw::exec::CycleMeter&) {
  ScopedSpan span(spans_, Layer::kGen);
  const TimeNs now = mono_ns();
  std::uint32_t work = 0;
  if (mode_ == Mode::kClosedLoop || mode_ == Mode::kOpenLoop) {
    work += generate(dirs_[0], now);
    work += generate(dirs_[1], now);
    if (mode_ == Mode::kOpenLoop && dirs_[0].k == frames_per_dir_ &&
        dirs_[1].k == frames_per_dir_) {
      mode_ = Mode::kSinkOnly;
    }
  }
  // Forward frames arrive at VM2's port (the reverse generator's), and
  // reverse frames at VM0's.
  work += sink(*dirs_[1].tx, dirs_[0], now);
  work += sink(*dirs_[0].tx, dirs_[1], now);
  span.set(work);
  return work;
}

}  // namespace chainbench
