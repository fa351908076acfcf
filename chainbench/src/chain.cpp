#include "chain.h"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <thread>

#include "openflow/codec.h"

namespace chainbench {

using hw::Status;
using hw::openflow::FlowMod;
using hw::openflow::FlowModCommand;
using hw::openflow::Match;
using hw::pkt::ipv4;

namespace {

constexpr TimeNs kMs = 1'000'000;
/// Closed-loop window the bring-up uses when no links are awaited.
constexpr std::uint32_t kBringUpWindow = 32;
/// Open-loop cap on frames in flight per direction on real threads: half
/// a ring, so no ring on the path can overflow while a polling thread is
/// preempted, however long; the generator holds the frames instead.
constexpr std::uint32_t kOpenLoopWindow = 512;

/// Pins `thread` to the `index`-th from last CPU this process may use, so
/// the three polling threads never share a CPU (the scheduler would
/// otherwise stack two spinners for whole ticks). No-op on hosts with
/// fewer than four usable CPUs.
void pin_polling_thread(std::jthread& thread, int index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[cpus.size() - 1 - static_cast<std::size_t>(index)], &one);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof one, &one);
}

std::uint64_t splitmix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

// Why each workload exists, and what it predicts: BENCHMARK.json and
// chainbench/README.md.
const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {.name = "highway", .flows = 1024, .links = 4},
      {.name = "steered_zipf",
       .flows = 65536,
       .zipf = true,
       .steered = true,
       .links = 0,
       .open_loop_pps = 50'000},
  };
  return kAll;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

hw::pkt::TrafficProfile make_profile(const WorkloadSpec& spec,
                                     std::uint64_t seed, int dir) {
  hw::pkt::TrafficProfile profile;
  profile.frame_len = kFrameLen;
  profile.flow_count = spec.flows;
  profile.src_ip_base = dir == 0 ? ipv4(10, 0, 0, 1) : ipv4(10, 1, 0, 1);
  profile.dst_ip_base = dir == 0 ? ipv4(10, 1, 0, 1) : ipv4(10, 0, 0, 1);
  const std::uint64_t mix =
      splitmix(seed * 2 + static_cast<std::uint64_t>(dir));
  profile.base_src_port = static_cast<std::uint16_t>(1024 + mix % 16384);
  profile.base_dst_port =
      static_cast<std::uint16_t>(20000 + (mix >> 20) % 16384);
  profile.seed = mix;
  if (spec.zipf) {
    profile.workload.distribution = hw::pkt::FlowDistribution::kZipf;
    profile.workload.zipf_s = 1.1;
  }
  return profile;
}

std::vector<ShadowRule> shadow_rules(const WorkloadSpec& spec,
                                     hw::PortId from, int dir) {
  if (!spec.steered) {
    return {{Match{}.in_port(from).ip_dst(ipv4(10, 0, 0, 0), 8), 105}};
  }
  // The TCP/80 probe unwildcards (ip_proto, l4_dst) and the /32 probe the
  // whole dst_ip, so every distinct flow costs its own megaflow entry.
  const std::uint32_t dst_base =
      dir == 0 ? ipv4(10, 1, 0, 1) : ipv4(10, 0, 0, 1);
  return {{Match{}.in_port(from).ip_proto(hw::pkt::kIpProtoTcp).l4_dst(80),
           120},
          {Match{}.in_port(from).ip_dst(dst_base, 32), 110},
          {Match{}.in_port(from).ip_dst(ipv4(10, 0, 0, 0), 8), 105}};
}

BenchChain::BenchChain(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(&spec), seed_(seed) {}

BenchChain::~BenchChain() = default;

hw::vswitch::ForwardingEngine& BenchChain::engine() noexcept {
  return *of_->engines()[0];
}

void BenchChain::set_spans(SpanLog* spans) noexcept {
  spans_ = spans;
  if (endpoint_) endpoint_->set_spans(spans);
}

void BenchChain::check(bool ok, std::string what) {
  if (!ok) violations_.push_back(std::string(spec_->name) + ": " + what);
}

Status BenchChain::send(const FlowMod& mod) {
  const auto bytes = hw::openflow::encode_flow_mod(mod, 0);
  const TimeNs t0 = mono_ns();
  Status status;
  {
    ScopedSpan span(spans_, Layer::kHandleMessage);
    status = of_->handle_message(bytes).status();
    span.set(1);
  }
  flowmod_ns_.push_back(static_cast<double>(mono_ns() - t0));
  return status;
}

Status BenchChain::build() {
  pool_ = std::make_unique<hw::mbuf::Mempool>("mb0", kMempoolSize);
  of_ = std::make_unique<hw::vswitch::OfSwitch>(shm_, *pool_, rt_, cost_,
                                                hw::vswitch::SwitchConfig{});
  agent_ = std::make_unique<hw::agent::ComputeAgent>(shm_, rt_);
  agent_->set_event_sink(&of_->bypass_manager());
  of_->bypass_manager().set_agent(agent_.get());
  hypervisor_ = std::make_unique<hw::vm::Hypervisor>(shm_, *agent_, cost_);

  for (std::size_t i = 0; i < 3; ++i) {
    const std::string name = "vm" + std::to_string(i);
    hw::vm::Vm& vm = hypervisor_->create_vm(name);
    for (std::size_t side = 0; side < 2; ++side) {
      auto port = of_->add_dpdkr_port(name + (side == 0 ? ".l" : ".r"));
      if (!port.is_ok()) return port.status();
      ports_[i][side] = port.value();
      HW_RETURN_IF_ERROR(hypervisor_->attach_port(vm, port.value()));
    }
  }
  const auto pmd = [&](std::size_t vm, std::size_t side) {
    return hypervisor_->vm(vm).pmd_for_port(ports_[vm][side]);
  };
  forwarder_ = std::make_unique<hw::vm::ForwarderApp>(
      "vnf", *pmd(1, 0), *pmd(1, 1), *pool_, cost_, 0, kBurst);
  endpoint_ = std::make_unique<Endpoint>(
      *pmd(0, 1), *pmd(2, 0), *pool_, make_profile(*spec_, seed_, 0),
      make_profile(*spec_, seed_, 1));
  endpoint_->set_spans(spans_);
  regions_before_links_ = shm_.region_count();

  hops_ = {Hop{ports_[0][1], ports_[1][0], 0},
           Hop{ports_[1][1], ports_[2][0], 0},
           Hop{ports_[2][0], ports_[1][1], 1},
           Hop{ports_[1][0], ports_[0][1], 1}};
  for (std::size_t h = 0; h < kHops; ++h) {
    // Shadows first: the port-to-port rule then never looks bypassable.
    if (spec_->steered) HW_RETURN_IF_ERROR(shadow(h));
    HW_RETURN_IF_ERROR(send(hw::openflow::make_p2p_flowmod(
        hops_[h].from, hops_[h].to, 100, next_cookie_++)));
  }
  return Status::ok();
}

double BenchChain::bring_up() {
  const TimeNs t0 = mono_ns();
  const Status status = build();
  if (!status.is_ok()) {
    check(false, "build: " + status.to_string());
    return -1;
  }
  bool ok;
  if (spec_->links > 0) {
    ok = step_until([&] { return active_links() == spec_->links; },
                    3000 * kMs);
  } else {
    endpoint_->start_closed_loop(kBringUpWindow);
    ok = step_until([&] { return endpoint_->delivered_total() > 0; },
                    3000 * kMs);
  }
  const double seconds = static_cast<double>(mono_ns() - t0) / 1e9;
  check(ok, "steady state not reached during bring-up");
  if (spec_->links == 0) {
    // Leave the chain idle and empty, like a linked chain after set-up.
    endpoint_->stop_generating();
    step_until([&] { return pool_->in_use() == 0; }, 500 * kMs);
  }
  return ok ? seconds : -1;
}

double BenchChain::modelled_setup_s() const noexcept {
  // The links come up in parallel, each behind the same modelled chain:
  // request RTT, two sequential hot-plugs, two virtio-serial commands.
  return spec_->links > 0
             ? static_cast<double>(agent_->latency().expected_setup_ns()) /
                   1e9
             : 0;
}

void BenchChain::step() {
  hw::exec::CycleMeter meter;
  rt_.run_due();
  endpoint_->poll(meter);
  {
    ScopedSpan span(spans_, Layer::kEngine);
    span.set(engine().poll(meter));
  }
  {
    ScopedSpan span(spans_, Layer::kForwarder);
    span.set(forwarder_->poll(meter));
  }
  {
    // Only polls that did something are traced — completed an operation
    // or sent a PMD command. Polls that find every operation waiting out
    // a modelled latency would otherwise count that wait, times the loop's
    // poll rate, as agent work.
    const bool traced = spans_ != nullptr && agent_->inflight_ops() > 0;
    const TimeNs t0 = traced ? mono_ns() : 0;
    const std::uint64_t sent0 = agent_->counters().ctrl_sent;
    const std::uint32_t done = agent_->poll(meter);
    if (traced && (done > 0 || agent_->counters().ctrl_sent != sent0)) {
      spans_->record(Layer::kAgent, t0, mono_ns(), done);
    }
  }
  if (probing_) controller_step(mono_ns());
}

Status BenchChain::shadow(std::size_t hop) {
  for (const ShadowRule& rule :
       shadow_rules(*spec_, hops_[hop].from, hops_[hop].dir)) {
    FlowMod mod;
    mod.command = FlowModCommand::kAdd;
    mod.priority = rule.priority;
    mod.cookie = next_cookie_++;
    mod.match = rule.match;
    mod.actions = {hw::openflow::Action::output(hops_[hop].to)};
    HW_RETURN_IF_ERROR(send(mod));
  }
  shadowed_[hop] = true;
  restored_at_[hop] = 0;
  return Status::ok();
}

Status BenchChain::unshadow(std::size_t hop) {
  const std::vector<ShadowRule> rules =
      shadow_rules(*spec_, hops_[hop].from, hops_[hop].dir);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    // A deleted rule takes its counters with it: read them first, the
    // way a controller would before deleting, so the OpenFlow counter
    // check still covers every frame that crossed the hop.
    for (const auto& entry : of_->flow_stats()) {
      if (entry.match == rules[i].match &&
          entry.priority == rules[i].priority) {
        deleted_rule_pkts_[hop] += entry.packet_count;
      }
    }
    FlowMod mod;
    mod.command = FlowModCommand::kDeleteStrict;
    mod.priority = rules[i].priority;
    mod.match = rules[i].match;
    // The last delete is the FlowMod that makes the hop bypassable.
    if (i + 1 == rules.size()) restored_at_[hop] = mono_ns();
    HW_RETURN_IF_ERROR(send(mod));
  }
  shadowed_[hop] = false;
  return Status::ok();
}

bool BenchChain::vm1_links_down() {
  auto& bm = of_->bypass_manager();
  return !bm.link_active(hops_[1].from, hops_[1].to) &&
         !bm.link_active(hops_[3].from, hops_[3].to);
}

void BenchChain::flip_vm1() {
  for (const std::size_t h : {std::size_t{1}, std::size_t{3}}) {
    const Status status = shadowed_[h] ? unshadow(h) : shadow(h);
    check(status.is_ok(), "probe FlowMod: " + status.to_string());
  }
  --probe_flips_left_;
}

bool BenchChain::probe_settled() {
  if (of_->bypass_manager().pending_links() != 0 ||
      agent_->inflight_ops() != 0) {
    return false;
  }
  return shadowed_[1] ? vm1_links_down()
                      : restored_at_[1] == 0 && restored_at_[3] == 0;
}

void BenchChain::start_probe() {
  probing_ = true;
  probe_flips_left_ = 2;
  probe_plugs0_ = agent_->counters().plugs;
  probe_ms_.clear();
  flip_vm1();
}

void BenchChain::controller_step(TimeNs now) {
  for (const std::size_t h : {std::size_t{1}, std::size_t{3}}) {
    if (restored_at_[h] != 0 &&
        of_->bypass_manager().link_active(hops_[h].from, hops_[h].to)) {
      probe_ms_.push_back(static_cast<double>(now - restored_at_[h]) / 1e6);
      restored_at_[h] = 0;
    }
  }
  if (!probe_settled()) return;
  if (probe_flips_left_ > 0) {
    flip_vm1();
    return;
  }
  // Each restored hop's setup ran the agent's modelled chain: request
  // RTT, an RX and a TX virtio-serial command, and — when its channel
  // had been unplugged — one hot-plug per VM.
  const hw::agent::HotplugLatencyModel& lat = agent_->latency();
  const double plugs_per_op =
      probe_ms_.empty()
          ? 0
          : static_cast<double>(agent_->counters().plugs - probe_plugs0_) /
                static_cast<double>(probe_ms_.size());
  const double model_ms =
      (static_cast<double>(lat.request_rtt_ns + 2 * lat.serial_rtt_ns) +
       plugs_per_op * static_cast<double>(lat.qemu_plug_ns + lat.pci_scan_ns)) /
      1e6;
  converge_ms_.insert(converge_ms_.end(), probe_ms_.begin(), probe_ms_.end());
  converge_model_ms_.insert(converge_model_ms_.end(), probe_ms_.size(),
                            model_ms);
  probing_ = false;
}

void BenchChain::converge_probe() {
  start_probe();
  check(step_until([&] { return !probing_; }, 4000 * kMs),
        "probe: VM1 links did not converge");
  probing_ = false;
}

void BenchChain::run_threaded(double pps, TimeNs duration_ns) {
  std::atomic<bool> stop{false};
  std::atomic<bool> gen_done{false};
  std::atomic<bool> probe_done{false};
  // Due times start once everything before the threads is done, so no
  // frame is late before the generator exists.
  const TimeNs t0 = mono_ns() + kMs;
  const TimeNs t_end = t0 + duration_ns;
  const TimeNs probe_at = t0 + duration_ns / 2;
  bool probe_started = false;
  endpoint_->set_record_latency(true);
  endpoint_->start_open_loop(pps, t0, t_end, kOpenLoopWindow);
  {
    std::jthread engine_thread([&] {
      hw::exec::CycleMeter meter;
      TimeNs next_ctl = 0;
      std::uint32_t polls = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        engine().poll(meter);
        if ((++polls & 7) != 0) continue;
        const TimeNs now = mono_ns();
        if (now < next_ctl) continue;
        // The control plane shares the switch thread at a 20 us cadence:
        // FlowMods mutate the flow table this engine reads, and the agent
        // is a daemon, not a polling core.
        rt_.run_due();
        agent_->poll(meter);
        if (!probe_started && now >= probe_at) {
          probe_started = true;
          start_probe();
        }
        if (probing_) controller_step(now);
        if (probe_started && !probing_) probe_done.store(true);
        next_ctl = now + 20'000;
      }
    });
    std::jthread vnf_thread([&] {
      hw::exec::CycleMeter meter;
      while (!stop.load(std::memory_order_relaxed)) forwarder_->poll(meter);
    });
    std::jthread gen_thread([&] {
      hw::exec::CycleMeter meter;
      TimeNs last_rx = 0;
      // Polling goes on after the offered frames drained: the endpoint's
      // rx_burst also serves its ports' control channels, which a probe
      // still in progress needs.
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t n = endpoint_->poll(meter);
        if (gen_done.load(std::memory_order_relaxed) ||
            !endpoint_->open_loop_done()) {
          continue;
        }
        const TimeNs now = mono_ns();
        if (n > 0 || last_rx == 0) last_rx = now;
        if (now - last_rx > 20 * kMs) gen_done.store(true);  // drained
      }
    });
    pin_polling_thread(engine_thread, 0);
    pin_polling_thread(vnf_thread, 1);
    pin_polling_thread(gen_thread, 2);
    while (!(gen_done.load() && probe_done.load()) &&
           mono_ns() < t_end + 3000 * kMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  }
  endpoint_->set_record_latency(false);
  check(probe_started && !probing_,
        "real-thread probe: VM1 links did not converge");
  probing_ = false;
}

std::uint64_t BenchChain::network_drops() const {
  const hw::vswitch::EngineCounters c = of_->engines()[0]->counters();
  return c.misses + c.action_drops + c.tx_ring_full + c.rss_queue_drops +
         forwarder_->counters().tx_drops;
}

void BenchChain::check_flow_stats() {
  const auto stats = of_->flow_stats();
  for (std::size_t h = 0; h < kHops; ++h) {
    std::uint64_t counted = deleted_rule_pkts_[h];
    for (const auto& entry : stats) {
      if (entry.match.has(hw::openflow::kMatchInPort) &&
          entry.match.in_port_value() == hops_[h].from) {
        counted += entry.packet_count;
      }
    }
    hw::pmd::GuestPmd* pmd = nullptr;
    for (std::size_t vm = 0; vm < 3 && pmd == nullptr; ++vm) {
      pmd = hypervisor_->vm(vm).pmd_for_port(hops_[h].from);
    }
    const std::uint64_t crossed =
        pmd->counters().tx_normal + pmd->counters().tx_bypass;
    check(counted == crossed,
          "flow_stats hop " + std::to_string(h) + ": rules count " +
              std::to_string(counted) + " frames, " +
              std::to_string(crossed) + " entered the hop");
  }
}

void BenchChain::finish() {
  endpoint_->stop_generating();
  step_until([&] { return pool_->in_use() == 0; }, 500 * kMs);
  check(pool_->in_use() == 0, "mempool did not drain: " +
                                  std::to_string(pool_->in_use()) +
                                  " buffers still in use");

  std::uint64_t due = 0;
  std::uint64_t accounted = network_drops();
  for (int d = 0; d < 2; ++d) {
    const DirCounters& c = endpoint_->dir(d);
    due += c.due;
    accounted += c.delivered + c.tx_refused + c.alloc_failed + c.unsent;
    check(c.duplicates == 0 && c.reorders == 0,
          "direction " + std::to_string(d) + ": " +
              std::to_string(c.duplicates) + " duplicate and " +
              std::to_string(c.reorders) + " reordered frames");
  }
  check(accounted == due, "conservation: " + std::to_string(due) +
                              " frames due, " + std::to_string(accounted) +
                              " delivered or counted as failed");
  check_flow_stats();

  FlowMod wipe;
  wipe.command = FlowModCommand::kDelete;  // wildcard match: every rule
  check(send(wipe).is_ok(), "rule removal");
  auto& bm = of_->bypass_manager();
  check(step_until(
            [&] {
              return bm.active_links() == 0 && bm.pending_links() == 0 &&
                     agent_->inflight_ops() == 0;
            },
            2000 * kMs),
        "links did not tear down after rule removal");
  check(shm_.region_count() == regions_before_links_,
        "shm regions: " + std::to_string(shm_.region_count()) +
            " after teardown, " + std::to_string(regions_before_links_) +
            " before the links");
}

}  // namespace chainbench
