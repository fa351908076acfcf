#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "agent/compute_agent.h"
#include "endpoint.h"
#include "mbuf/mempool.h"
#include "openflow/messages.h"
#include "shm/shm.h"
#include "spans.h"
#include "vm/apps.h"
#include "vm/vm.h"
#include "vswitch/of_switch.h"
#include "wall_runtime.h"

/// \file chain.h
/// The benchmarked service chain, assembled from the product's public
/// components: Mempool, OfSwitch (one forwarding engine), ComputeAgent
/// with its default hot-plug latency model, Hypervisor + GuestPmd, and
/// ForwarderApp as the VNF in VM1. VM0 and VM2 are the benchmark's own
/// endpoints. Every rule goes through the OpenFlow wire codec.
///
///   VM0.r ──h0──▶ VM1.l   VM1.r ──h1──▶ VM2.l      (forward)
///   VM0.r ◀──h3── VM1.l   VM1.r ◀──h2── VM2.l      (reverse)

namespace chainbench {

inline constexpr std::uint32_t kFrameLen = 64;

struct WorkloadSpec {
  std::string_view name;
  std::uint32_t flows = 1024;
  bool zipf = false;     ///< Zipf(1.1) popularity instead of round robin
  bool steered = false;  ///< every hop shadowed by IPv4 rules: no bypass
  std::size_t links = 4;  ///< active bypass links at steady state
  /// Real-thread open-loop rate per direction, well below the chain's
  /// saturation on that workload.
  double open_loop_pps = 250'000;
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();

/// Traffic profiles of the two directions for `seed` (the seed picks the
/// Zipf draws and the L4 port bases).
[[nodiscard]] hw::pkt::TrafficProfile make_profile(const WorkloadSpec& spec,
                                                   std::uint64_t seed,
                                                   int dir);

/// A higher-priority rule with the same output as a hop's port-to-port
/// rule: it keeps forwarding unchanged but makes the detector decline
/// the hop (condition 2).
struct ShadowRule {
  hw::openflow::Match match;
  std::uint16_t priority = 0;
};

/// The rules that shadow the hop leaving port `from` and carrying
/// direction `dir`: on steered_zipf bench_workloads' full-5-tuple mask
/// shape (TCP/80, /32 and /8), otherwise the single /8 rule the
/// convergence probe flips.
[[nodiscard]] std::vector<ShadowRule> shadow_rules(const WorkloadSpec& spec,
                                                   hw::PortId from, int dir);

class BenchChain {
 public:
  static constexpr std::size_t kHops = 4;
  static constexpr std::size_t kMempoolSize = 32 * 1024;  ///< product default
  static constexpr std::uint32_t kBurst = 32;

  BenchChain(const WorkloadSpec& spec, std::uint64_t seed);
  ~BenchChain();
  BenchChain(const BenchChain&) = delete;
  BenchChain& operator=(const BenchChain&) = delete;

  /// Builds mempool, switch, agent, VMs and the VNF, installs the
  /// workload's rules and drives the chain single-threaded to its steady
  /// state: every expected link active, or (no links expected) the first
  /// frame delivered. Returns the wall time taken, or a negative value
  /// on failure (see violations()).
  double bring_up();
  /// The part of bring_up()'s time the agent spends waiting out its
  /// modelled hot-plug and control latencies (critical path), in s.
  [[nodiscard]] double modelled_setup_s() const noexcept;

  /// One pass of the run-to-completion loop: fire due timers, poll the
  /// endpoint, the engine, the VNF and the agent, then the controller.
  void step();
  /// Steps until `done()` or `max_ns` elapsed; returns done().
  template <typename Pred>
  bool step_until(Pred done, TimeNs max_ns) {
    const TimeNs limit = mono_ns() + max_ns;
    while (!done()) {
      if (mono_ns() > limit) return done();
      step();
    }
    return true;
  }

  /// Real-thread run: engine (+ control plane at a 20 us cadence), VNF
  /// and endpoint each on their own polling thread while the endpoint
  /// offers `pps` per direction open loop for `duration_ns`, at most half
  /// a ring in flight per direction. Halfway
  /// through the window the control plane starts one convergence probe
  /// cycle, so links tear down and come back up under traffic. Returns
  /// once the offered frames drained and the probe finished (or a
  /// timeout), with every thread joined. Latency samples append to
  /// endpoint().latency_samples(), which the caller reserves (growing it
  /// mid-run would stall the endpoint thread).
  void run_threaded(double pps, TimeNs duration_ns);

  /// One convergence probe cycle, run to completion on this thread: flip
  /// VM1's hops out of their workload state and back (highway: shadow,
  /// wait for the teardown, restore, wait for the links; steered_zipf:
  /// restore, wait for the links, shadow, wait for the teardown). Adds
  /// one convergence sample per restored hop.
  void converge_probe();

  /// Stops traffic and drains, checks conservation, per-flow order and
  /// OpenFlow counters, removes every rule and checks that the bypass
  /// regions are gone. Appends violations.
  void finish();

  // ---------------------------------------------------------- access
  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] Endpoint& endpoint() noexcept { return *endpoint_; }
  [[nodiscard]] hw::vswitch::OfSwitch& of() noexcept { return *of_; }
  [[nodiscard]] hw::vswitch::ForwardingEngine& engine() noexcept;
  [[nodiscard]] hw::agent::ComputeAgent& agent() noexcept { return *agent_; }
  [[nodiscard]] hw::PortId hop_from(std::size_t hop) const noexcept {
    return hops_[hop].from;
  }
  [[nodiscard]] std::size_t active_links() noexcept {
    return of_->bypass_manager().active_links();
  }

  void set_spans(SpanLog* spans) noexcept;
  [[nodiscard]] std::vector<std::string>& violations() noexcept {
    return violations_;
  }
  /// Wall ns per OfSwitch::handle_message call, every FlowMod so far.
  [[nodiscard]] const std::vector<double>& flowmod_ns() const noexcept {
    return flowmod_ns_;
  }
  /// FlowMod → link active, ms, one sample per restored hop.
  [[nodiscard]] const std::vector<double>& converge_ms() const noexcept {
    return converge_ms_;
  }
  /// The agent's modelled latency on each sample's critical path, ms.
  [[nodiscard]] const std::vector<double>& converge_model_ms()
      const noexcept {
    return converge_model_ms_;
  }
  [[nodiscard]] std::uint64_t flowmods() const noexcept {
    return flowmod_ns_.size();
  }

 private:
  struct Hop {
    hw::PortId from = hw::kPortNone;
    hw::PortId to = hw::kPortNone;
    int dir = 0;  ///< traffic direction the hop carries
  };
  [[nodiscard]] hw::Status build();
  [[nodiscard]] hw::Status send(const hw::openflow::FlowMod& mod);
  [[nodiscard]] hw::Status shadow(std::size_t hop);
  [[nodiscard]] hw::Status unshadow(std::size_t hop);
  [[nodiscard]] bool vm1_links_down();
  /// Shadows VM1's hops if they are bypassable, restores them otherwise.
  void flip_vm1();
  [[nodiscard]] bool probe_settled();
  void start_probe();
  /// Advances a running probe and records converged links.
  void controller_step(TimeNs now);
  void check(bool ok, std::string what);
  void check_flow_stats();
  /// Frames the forwarding path dropped (engine miss / drop action /
  /// full output ring, VNF tx refused): the failures between endpoints.
  [[nodiscard]] std::uint64_t network_drops() const;

  const WorkloadSpec* spec_;
  std::uint64_t seed_;
  SpanLog* spans_ = nullptr;

  // Declaration order is teardown order in reverse: guest PMDs and the
  // switch hold pointers into the shm regions and the pool.
  hw::shm::ShmManager shm_;
  std::unique_ptr<hw::mbuf::Mempool> pool_;
  WallRuntime rt_;
  hw::exec::CostModel cost_{};  ///< unused in wall-clock mode; ctor argument
  std::unique_ptr<hw::vswitch::OfSwitch> of_;
  std::unique_ptr<hw::agent::ComputeAgent> agent_;
  std::unique_ptr<hw::vm::Hypervisor> hypervisor_;
  std::unique_ptr<hw::vm::ForwarderApp> forwarder_;
  std::unique_ptr<Endpoint> endpoint_;

  std::array<std::array<hw::PortId, 2>, 3> ports_{};  ///< [vm][l=0, r=1]
  std::array<Hop, kHops> hops_{};
  std::array<std::uint64_t, kHops> deleted_rule_pkts_{};
  std::array<bool, kHops> shadowed_{};
  hw::Cookie next_cookie_ = 1;
  std::size_t regions_before_links_ = 0;

  bool probing_ = false;
  int probe_flips_left_ = 0;
  std::uint64_t probe_plugs0_ = 0;  ///< agent plugs when the probe began
  std::vector<double> probe_ms_;     ///< this probe's samples so far
  std::array<TimeNs, kHops> restored_at_{};  ///< 0 = not awaiting a link

  std::vector<double> flowmod_ns_;
  std::vector<double> converge_ms_;
  std::vector<double> converge_model_ms_;
  std::vector<std::string> violations_;
};

}  // namespace chainbench
