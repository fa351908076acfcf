#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <vector>

#include "exec/runtime.h"

/// \file wall_runtime.h
/// An exec::Runtime on the host's monotonic clock. Timers do not get a
/// thread of their own: whoever drives the control plane calls run_due(),
/// so the agent's modelled latencies (unix-socket RTT, QEMU hot-plug,
/// virtio-serial) elapse in wall time on that thread and every callback
/// runs there — the same serialization SimRuntime gives its event queue.

namespace chainbench {

using hw::TimeNs;

/// Nanoseconds on the steady clock since an arbitrary process-wide origin.
/// Every timestamp in the benchmark (frame due times, spans, runtime
/// clock) is on this one clock, so they compare across threads.
[[nodiscard]] inline TimeNs mono_ns() noexcept {
  return static_cast<TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class WallRuntime final : public hw::exec::Runtime {
 public:
  WallRuntime() = default;
  WallRuntime(const WallRuntime&) = delete;
  WallRuntime& operator=(const WallRuntime&) = delete;

  [[nodiscard]] TimeNs now_ns() const noexcept override { return mono_ns(); }

  void schedule(TimeNs delay_ns, std::function<void()> fn) override {
    const TimeNs due = mono_ns() + delay_ns;
    std::lock_guard lock(mu_);
    events_.push(Event{due, order_++, std::move(fn)});
    next_due_.store(events_.top().due, std::memory_order_relaxed);
  }

  /// Fires every event due by now (FIFO among equal due times).
  /// Callbacks may schedule further events.
  void run_due() {
    while (next_due_.load(std::memory_order_relaxed) <= mono_ns()) {
      std::function<void()> fn;
      {
        std::lock_guard lock(mu_);
        if (events_.empty() || events_.top().due > mono_ns()) break;
        fn = std::move(const_cast<Event&>(events_.top()).fn);
        events_.pop();
        next_due_.store(events_.empty() ? kNever : events_.top().due,
                        std::memory_order_relaxed);
      }
      fn();
    }
  }

 private:
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

  struct Event {
    TimeNs due;
    std::uint64_t order;
    std::function<void()> fn;
    bool operator>(const Event& other) const noexcept {
      return due != other.due ? due > other.due : order > other.order;
    }
  };

  std::mutex mu_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t order_ = 0;
  std::atomic<TimeNs> next_due_{kNever};
};

}  // namespace chainbench
