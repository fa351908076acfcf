#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "wall_runtime.h"

/// \file spans.h
/// The benchmark's span recorder. A span brackets one call the benchmark
/// makes into a layer's public API (a context's poll(), a guest PMD
/// burst, an OpenFlow message, a classifier replay batch) with its name,
/// start, end, parent span and — where a frame is visible to the
/// benchmark — the generator sequence number of the first frame involved.
///
/// Spans are kept in memory up to a cap and written out at the end; the
/// per-layer totals (time, calls, items, empty calls) cover every span,
/// kept or not. Single-threaded: only the run-to-completion loop
/// records spans. A null SpanLog* everywhere means "tracing off", and the
/// call sites then read no clock at all.

namespace chainbench {

enum class Layer : std::uint8_t {
  kEngine,         ///< vswitch ForwardingEngine::poll
  kForwarder,      ///< vm ForwarderApp::poll (the VNF)
  kAgent,          ///< agent ComputeAgent::poll
  kGen,            ///< the benchmark endpoint's poll (parent of the next 5)
  kTxBurst,        ///< pmd GuestPmd::tx_burst
  kRxBurst,        ///< pmd GuestPmd::rx_burst
  kAlloc,          ///< mbuf Mempool::alloc_bulk
  kFree,           ///< mbuf Mempool::free_bulk
  kSynth,          ///< pkt WorkloadGen::synthesize over a burst
  kHandleMessage,  ///< openflow OfSwitch::handle_message
  kReplayParse,    ///< pkt extract_flow_key + flow_key_hash over a batch
  kReplayLookup,   ///< classifier DpClassifier::lookup_batch
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             Layer::kCount)>
    kLayerNames = {"vswitch.engine.poll",     "vm.forwarder.poll",
                   "agent.poll",              "gen.poll",
                   "pmd.tx_burst",            "pmd.rx_burst",
                   "mbuf.alloc_bulk",         "mbuf.free_bulk",
                   "pkt.synthesize",          "openflow.handle_message",
                   "replay.parse_hash",       "replay.lookup_batch"};

struct LayerTotals {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t empty_calls = 0;  ///< calls that handled no item
};

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanLog(std::size_t keep_cap) : keep_cap_(keep_cap) {
    kept_.reserve(keep_cap < 65536 ? keep_cap : 65536);
  }

  /// Opens a span; the innermost open span is its parent.
  void begin(Layer layer) noexcept {
    Open& o = stack_[depth_++];
    o.layer = layer;
    o.id = next_id_++;
    o.start = mono_ns();
  }

  /// Closes the innermost open span, crediting `items` to its layer.
  void end(std::uint64_t items = 0, std::uint64_t seq = 0) noexcept {
    const TimeNs stop = mono_ns();
    const Open o = stack_[--depth_];
    add(o.layer, o.id, o.start, stop, items, seq);
  }

  /// Records a span the caller timed itself, for calls that are only
  /// worth keeping once their result is known.
  void record(Layer layer, TimeNs start, TimeNs stop,
              std::uint64_t items) noexcept {
    add(layer, next_id_++, start, stop, items, 0);
  }

  [[nodiscard]] const LayerTotals& totals(Layer layer) const noexcept {
    return totals_[static_cast<std::size_t>(layer)];
  }


  /// Chrome trace-event JSON ("X" events, microseconds from the first
  /// kept span); args carry id, parent, seq and item count.
  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Open {
    Layer layer = Layer::kCount;
    std::uint32_t id = 0;
    TimeNs start = 0;
  };
  struct Span {
    TimeNs start;
    TimeNs end;
    std::uint64_t seq;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t items;
    Layer layer;
  };

  /// Credits the span to its layer; its parent is the innermost open span.
  void add(Layer layer, std::uint32_t id, TimeNs start, TimeNs stop,
           std::uint64_t items, std::uint64_t seq) noexcept {
    LayerTotals& t = totals_[static_cast<std::size_t>(layer)];
    t.ns += stop - start;
    ++t.calls;
    t.items += items;
    if (items == 0) ++t.empty_calls;
    if (kept_.size() < keep_cap_) {
      kept_.push_back(Span{start, stop, seq, id,
                           depth_ == 0 ? kNoParent : stack_[depth_ - 1].id,
                           static_cast<std::uint32_t>(items), layer});
    } else {
      ++dropped_;
    }
  }

  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::uint32_t next_id_ = 0;
  std::size_t keep_cap_;
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// RAII span that costs nothing when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer) noexcept : log_(log) {
    if (log_ != nullptr) log_->begin(layer);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(items_, seq_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set(std::uint64_t items, std::uint64_t seq = 0) noexcept {
    items_ = items;
    seq_ = seq;
  }

 private:
  SpanLog* log_;
  std::uint64_t items_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace chainbench
