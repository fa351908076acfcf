#include "model.h"

#include <array>

#include "chain/chain.h"

namespace chainbench {

namespace {

constexpr TimeNs kMs = 1'000'000;

/// Adds the shadow rules of one hop.
bool add_shadows(hw::chain::ChainScenario& scenario, const WorkloadSpec& spec,
                 hw::PortId from, hw::PortId to, int dir) {
  for (const ShadowRule& rule : shadow_rules(spec, from, dir)) {
    hw::openflow::FlowMod mod;
    mod.command = hw::openflow::FlowModCommand::kAdd;
    mod.priority = rule.priority;
    mod.match = rule.match;
    mod.actions = {hw::openflow::Action::output(to)};
    if (!scenario.send_flow_mod(mod).is_ok()) return false;
  }
  return true;
}

}  // namespace

double modelled_mpps(const WorkloadSpec& spec) {
  hw::chain::ChainConfig config;
  config.vm_count = 3;
  config.frame_len = kFrameLen;
  config.flow_count = spec.flows;
  if (spec.zipf) {
    config.workload.distribution = hw::pkt::FlowDistribution::kZipf;
    config.workload.zipf_s = 1.1;
  }
  hw::chain::ChainScenario scenario(config);
  if (!scenario.build().is_ok()) return 0;
  // No traffic while the control plane settles: idle virtual epochs are
  // cheap, saturated ones are not.
  scenario.head_endpoint()->set_generate(false);
  scenario.tail_endpoint()->set_generate(false);

  // The chain's hops as (from, to, direction); ChainScenario numbers its
  // ports in the same order as BenchChain. VM1's are hops 1 and 3.
  struct Hop {
    hw::PortId from, to;
    int dir;
  };
  const std::array<Hop, 4> hops = {
      {{scenario.right_port(0), scenario.left_port(1), 0},
       {scenario.right_port(1), scenario.left_port(2), 0},
       {scenario.left_port(2), scenario.right_port(1), 1},
       {scenario.left_port(1), scenario.right_port(0), 1}}};
  if (spec.steered) {
    for (const Hop& h : hops) {
      if (!add_shadows(scenario, spec, h.from, h.to, h.dir)) {
        return 0;
      }
    }
  }
  auto& bm = scenario.of().bypass_manager();
  if (!scenario.runtime().run_until(
          [&] {
            return bm.pending_links() == 0 &&
                   scenario.agent().inflight_ops() == 0 &&
                   bm.active_links() == spec.links;
          },
          1000 * kMs)) {
    return 0;
  }
  scenario.head_endpoint()->set_generate(true);
  scenario.tail_endpoint()->set_generate(true);
  scenario.warmup(spec.zipf ? 4 * kMs : 1 * kMs);
  return scenario.measure(2 * kMs).mpps_total;
}

}  // namespace chainbench
