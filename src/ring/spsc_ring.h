#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "analysis/annotate.h"
#include "common/types.h"

/// \file spsc_ring.h
/// Single-producer / single-consumer lock-free ring, modeled on DPDK's
/// rte_ring in SP/SC mode.
///
/// This is the transport primitive of both the *normal channel* (VM <->
/// vSwitch) and the *bypass channel* (VM <-> VM) of a dpdkr port. It is
/// designed to live inside a shared-memory region: the object is
/// placement-constructed at a caller-provided address (`init_at`) and later
/// re-attached by the peer (`attach_at`), exactly like rte_ring structures
/// in an ivshmem BAR. All state is stored inline (header + slot array), no
/// heap pointers.
///
/// Concurrency: one producer thread and one consumer thread. Producer and
/// consumer indices are on separate cache lines; each side caches the
/// peer's index to avoid ping-ponging the shared line on every operation
/// (the classic rte_ring / folly ProducerConsumerQueue optimization).

namespace hw::ring {

inline constexpr std::uint32_t kSpscMagic = 0x53505351;  // "SPSQ"

template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots cross VM boundaries; payloads must be trivially "
                "copyable");

 public:
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Bytes needed to host a ring of `capacity` slots (capacity must be a
  /// power of two).
  [[nodiscard]] static std::size_t bytes_required(
      std::size_t capacity) noexcept {
    return align_up(sizeof(SpscRing), kCacheLineSize) +
           capacity * sizeof(T);
  }

  /// Placement-constructs a ring at `mem` (must be cache-line aligned and
  /// at least bytes_required(capacity) large). Returns nullptr if capacity
  /// is not a power of two.
  static SpscRing* init_at(void* mem, std::size_t capacity) noexcept {
    if (!is_power_of_two(capacity)) return nullptr;
    auto* ring = new (mem) SpscRing(static_cast<std::uint32_t>(capacity));
    // Publish the magic last, with release semantics: a peer that
    // observes it (acquire, below) is guaranteed to see the fully
    // constructed ring. A plain store here is a data race with a
    // concurrently spinning attacher — TSan caught exactly that.
    ring->magic_.store(kSpscMagic, std::memory_order_release);
    return ring;
  }

  /// Attaches to a ring previously created with init_at at the same
  /// address (peer side of the shared region). Validates the magic.
  static SpscRing* attach_at(void* mem) noexcept {
    auto* ring = static_cast<SpscRing*>(mem);
    return ring->magic_.load(std::memory_order_acquire) == kSpscMagic
               ? ring
               : nullptr;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy; exact when called from either endpoint while
  /// the other side is quiescent.
  [[nodiscard]] std::size_t size() const noexcept {
    const auto tail = tail_.value.load(std::memory_order_acquire);
    const auto head = head_.value.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Enqueues up to items.size() entries; returns how many were accepted
  /// (0 when full). Burst semantics match rte_ring_enqueue_burst.
  /// Ignoring the return silently drops the unaccepted tail of the burst.
  [[nodiscard]] std::size_t enqueue_burst(std::span<const T> items) noexcept {
    std::uint64_t tail = produced();
    const std::size_t n = stage_burst(items, tail);
    // The tail publish is the producer->consumer happens-before edge: the
    // consumer's matching acquire (below) sees every slot written above.
    if (n > 0) HW_SYNC_RELEASE(&tail_);
    tail_.value.store(tail, std::memory_order_release);
    return n;
  }

  /// Producer side: writes up to items.size() entries into the free
  /// slots after index `staged` WITHOUT making them visible to the
  /// consumer, advancing `staged` past them; returns how many fit.
  /// `staged` starts at produced(); publish(staged) later hands every
  /// staged entry over at once, in order.
  [[nodiscard]] std::size_t stage_burst(std::span<const T> items,
                                        std::uint64_t& staged) noexcept {
    std::uint64_t head = head_cache_.value;
    std::size_t free_slots =
        capacity() - static_cast<std::size_t>(staged - head);
    if (free_slots < items.size()) {
      // Cached-index refresh is the producer's acquire of the consumer's
      // head release: slots below `head` are ours to overwrite.
      HW_SYNC_ACQUIRE(&head_);
      head = head_.value.load(std::memory_order_acquire);
      head_cache_.value = head;
      free_slots = capacity() - static_cast<std::size_t>(staged - head);
    }
    const std::size_t n = items.size() < free_slots ? items.size() : free_slots;
    T* slot_array = slots();
    for (std::size_t i = 0; i < n; ++i) {
      slot_array[(staged + i) & mask_] = items[i];
    }
    staged += n;
    return n;
  }

  /// Producer side: makes every entry staged up to index `staged`
  /// visible to the consumer.
  void publish(std::uint64_t staged) noexcept {
    HW_SYNC_RELEASE(&tail_);
    tail_.value.store(staged, std::memory_order_release);
  }

  /// Producer side: entries published so far (the producer index).
  [[nodiscard]] std::uint64_t produced() const noexcept {
    return tail_.value.load(std::memory_order_relaxed);
  }
  /// Consumer side: entries dequeued so far (the consumer index).
  [[nodiscard]] std::uint64_t consumed() const noexcept {
    return head_.value.load(std::memory_order_relaxed);
  }

  /// Consumer side: acquires the producer index and returns how many
  /// entries are ready. A dequeue_burst of at most that many right after
  /// needs no second load.
  [[nodiscard]] std::size_t poll_available() noexcept {
    HW_SYNC_ACQUIRE(&tail_);
    const std::uint64_t tail = tail_.value.load(std::memory_order_acquire);
    tail_cache_.value = tail;
    return static_cast<std::size_t>(
        tail - head_.value.load(std::memory_order_relaxed));
  }

  /// Convenience single-item enqueue; returns false when full.
  [[nodiscard]] bool enqueue(const T& item) noexcept {
    return enqueue_burst(std::span<const T>{&item, 1}) == 1;
  }

  /// Dequeues up to out.size() entries; returns how many were produced.
  [[nodiscard]] std::size_t dequeue_burst(std::span<T> out) noexcept {
    const std::uint64_t head = head_.value.load(std::memory_order_relaxed);
    std::uint64_t tail = tail_cache_.value;
    std::size_t avail = static_cast<std::size_t>(tail - head);
    if (avail < out.size()) {
      HW_SYNC_ACQUIRE(&tail_);
      tail = tail_.value.load(std::memory_order_acquire);
      tail_cache_.value = tail;
      avail = static_cast<std::size_t>(tail - head);
    }
    const std::size_t n = out.size() < avail ? out.size() : avail;
    const T* slot_array = slots();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = slot_array[(head + i) & mask_];
    }
    // Head publish releases the consumed slots back to the producer.
    if (n > 0) HW_SYNC_RELEASE(&head_);
    head_.value.store(head + n, std::memory_order_release);
    return n;
  }

  /// Convenience single-item dequeue; returns false when empty.
  [[nodiscard]] bool dequeue(T& out) noexcept {
    return dequeue_burst(std::span<T>{&out, 1}) == 1;
  }

 private:
  explicit SpscRing(std::uint32_t capacity) noexcept
      : magic_(0), mask_(capacity - 1) {}

  [[nodiscard]] T* slots() noexcept {
    return reinterpret_cast<T*>(reinterpret_cast<std::byte*>(this) +
                                align_up(sizeof(SpscRing), kCacheLineSize));
  }
  [[nodiscard]] const T* slots() const noexcept {
    return reinterpret_cast<const T*>(
        reinterpret_cast<const std::byte*>(this) +
        align_up(sizeof(SpscRing), kCacheLineSize));
  }

  std::atomic<std::uint32_t> magic_;  ///< init-publish flag, stored last
  std::uint32_t mask_;
  CacheAligned<std::atomic<std::uint64_t>> head_;  ///< consumer index
  CacheAligned<std::atomic<std::uint64_t>> tail_;  ///< producer index
  CacheAligned<std::uint64_t> head_cache_;  ///< producer's view of head
  CacheAligned<std::uint64_t> tail_cache_;  ///< consumer's view of tail
};

/// Heap-backed convenience owner for rings that do not live in shared
/// memory (unit tests, NIC-internal queues).
template <typename T>
class OwnedSpscRing {
 public:
  explicit OwnedSpscRing(std::size_t capacity)
      : storage_(new std::byte[SpscRing<T>::bytes_required(capacity) +
                               kCacheLineSize]) {
    auto addr = reinterpret_cast<std::uintptr_t>(storage_.get());
    void* base =
        storage_.get() + (align_up(addr, kCacheLineSize) - addr);
    ring_ = SpscRing<T>::init_at(base, capacity);
  }

  [[nodiscard]] SpscRing<T>* get() noexcept { return ring_; }
  [[nodiscard]] SpscRing<T>& operator*() noexcept { return *ring_; }
  [[nodiscard]] SpscRing<T>* operator->() noexcept { return ring_; }

 private:
  std::unique_ptr<std::byte[]> storage_;
  SpscRing<T>* ring_ = nullptr;
};

}  // namespace hw::ring
