// chainbench: wall-clock benchmark of the 3-VM service chain.
//
//   chainbench --workload <highway|steered_zipf> --seed <n>
//              --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints every metric by name with its unit, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a separately traced run. Any correctness violation
// is printed to stderr and the exit code is 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "chain.h"
#include "classifier/dp_classifier.h"
#include "common/log.h"
#include "model.h"
#include "pkt/packet.h"

namespace chainbench {
namespace {

constexpr TimeNs kMs = 1'000'000;
/// Closed-loop window of the run-to-completion phase, per direction: a
/// quarter of the 1024-slot rings, so no ring ever refuses a frame.
constexpr std::uint32_t kWindow = 256;
/// Slices each measurement is split into, interleaved across the run;
/// each round builds two chains (one per execution mode), each of which
/// runs one convergence probe cycle.
constexpr int kRounds = 10;
constexpr TimeNs kSubWindowNs = 250 * kMs;
constexpr TimeNs kWarmupNs = 200 * kMs;
constexpr std::size_t kSpanKeep = 65'536;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "chainbench: %s\nusage: chainbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::string(v) == "1";
    } else if (arg == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(mid))) /
        2;
  }
  return m;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Frames/s over consecutive sub-windows of a run-to-completion window,
/// plus the counter deltas the per-workload claims are checked against.
struct Window {
  std::vector<double> mpps;         ///< one per sub-window
  std::vector<double> touched_mib;  ///< one per sub-window (touch tracking)
  std::uint64_t delivered = 0;
  hw::classifier::TierCounters tiers;
  std::size_t min_links = ~std::size_t{0};
  std::size_t max_links = 0;     ///< active + pending, at boundaries
  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return tiers.emc_hits + tiers.megaflow_hits + tiers.slow_path_lookups;
  }
  void merge(const Window& o) {
    mpps.insert(mpps.end(), o.mpps.begin(), o.mpps.end());
    touched_mib.insert(touched_mib.end(), o.touched_mib.begin(),
                       o.touched_mib.end());
    delivered += o.delivered;
    tiers += o.tiers;
    min_links = std::min(min_links, o.min_links);
    max_links = std::max(max_links, o.max_links);
  }
};

hw::classifier::TierCounters minus(const hw::classifier::TierCounters& a,
                                   const hw::classifier::TierCounters& b) {
  hw::classifier::TierCounters d;
  d.emc_hits = a.emc_hits - b.emc_hits;
  d.megaflow_hits = a.megaflow_hits - b.megaflow_hits;
  d.slow_path_lookups = a.slow_path_lookups - b.slow_path_lookups;
  d.reval_entries_scanned = a.reval_entries_scanned - b.reval_entries_scanned;
  return d;
}

Window measure(BenchChain& chain, TimeNs duration_ns, bool track_touch) {
  Window w;
  auto& bm = chain.of().bypass_manager();
  const auto tiers0 = chain.of().datapath_stats();
  const std::uint64_t delivered0 = chain.endpoint().delivered_total();
  const auto note_links = [&] {
    const std::size_t links = bm.active_links();
    w.min_links = std::min(w.min_links, links);
    w.max_links = std::max(w.max_links, links + bm.pending_links());
  };
  chain.endpoint().set_touch_tracking(track_touch);
  note_links();
  const TimeNs start = mono_ns();
  TimeNs sub_start = start;
  std::uint64_t sub_delivered = delivered0;
  for (std::uint32_t i = 0;; ++i) {
    chain.step();
    if ((i & 15) != 0) continue;
    const TimeNs now = mono_ns();
    if (now - sub_start < kSubWindowNs && now - start < duration_ns) continue;
    const std::uint64_t delivered = chain.endpoint().delivered_total();
    w.mpps.push_back(static_cast<double>(delivered - sub_delivered) * 1e3 /
                     static_cast<double>(now - sub_start));
    if (track_touch) {
      w.touched_mib.push_back(
          static_cast<double>(chain.endpoint().take_touched()) *
          sizeof(hw::mbuf::Mbuf) / (1024.0 * 1024.0));
    }
    note_links();
    sub_start = now;
    sub_delivered = delivered;
    if (now - start >= duration_ns) break;
  }
  chain.endpoint().set_touch_tracking(false);
  w.delivered = chain.endpoint().delivered_total() - delivered0;
  w.tiers = minus(chain.of().datapath_stats(), tiers0);
  return w;
}

/// Checks, from counters, that a window exercised what the workload
/// claims it does.
void check_claims(BenchChain& chain, const Window& w, const char* phase) {
  const WorkloadSpec& spec = chain.spec();
  auto& v = chain.violations();
  const auto fail = [&](const std::string& what) {
    v.push_back(std::string(spec.name) + " (" + phase + "): " + what);
  };
  if (spec.name == "highway") {
    if (w.min_links != 4 || w.max_links != 4) {
      fail("expected 4 active links throughout the window");
    }
    if (w.lookups() * 1000 > w.delivered) {
      fail("classifier looked up " + std::to_string(w.lookups()) +
           " frames of " + std::to_string(w.delivered));
    }
  } else if (spec.name == "steered_zipf") {
    if (w.max_links != 0) fail("expected 0 links");
    if (w.tiers.megaflow_hits == 0 || w.tiers.slow_path_lookups == 0) {
      fail("expected megaflow hits and slow-path lookups");
    }
  }
}

/// Replays the workload's forward keys through a standalone DpClassifier
/// on the chain's own rule table: parse+hash and lookup_batch, ns/frame,
/// medians over passes.
struct Replay {
  double parse_hash_ns = 0;
  double lookup_ns = 0;
};

Replay replay(BenchChain& chain, TimeNs budget_ns, SpanLog* spans) {
  constexpr std::size_t kFrames = 4096;  // distinct frames parsed
  constexpr std::size_t kKeys = 1 << 18;  // keys per lookup pass
  constexpr std::size_t kBatch = 32;
  Endpoint& ep = chain.endpoint();
  std::vector<hw::mbuf::Mbuf> frames(kFrames);
  std::vector<hw::pkt::FlowKey> keys(kKeys);
  std::vector<std::uint32_t> hashes(kKeys);
  // A fresh stream of the forward direction, continuing the endpoint's.
  for (std::size_t i = 0; i < kKeys; ++i) {
    hw::mbuf::Mbuf& buf = frames[i % kFrames];
    ep.stream(0).next(buf);
    buf.in_port = chain.hop_from(0);
    keys[i] = hw::pkt::extract_flow_key(buf);
    hashes[i] = hw::pkt::flow_key_hash(keys[i]);
  }
  const hw::exec::CostModel cost;
  hw::classifier::DpClassifier dp(chain.of().table(), cost);
  std::vector<hw::classifier::LookupOutcome> out(kBatch);
  std::vector<hw::pkt::FlowKey> kbuf(kBatch);
  std::vector<std::uint32_t> hbuf(kBatch);
  std::vector<double> parse_ns;
  std::vector<double> lookup_ns;
  const TimeNs limit = mono_ns() + budget_ns;
  hw::exec::CycleMeter meter;
  volatile std::uint32_t sink = 0;
  while (parse_ns.size() < 3 || mono_ns() < limit) {
    TimeNs t0 = mono_ns();
    for (std::size_t base = 0; base < kFrames; base += kBatch) {
      ScopedSpan span(spans, Layer::kReplayParse);
      for (std::size_t i = 0; i < kBatch; ++i) {
        kbuf[i] = hw::pkt::extract_flow_key(frames[base + i]);
        hbuf[i] = hw::pkt::flow_key_hash(kbuf[i]);
      }
      sink = sink + hbuf[kBatch - 1];
      span.set(kBatch);
    }
    parse_ns.push_back(static_cast<double>(mono_ns() - t0) / kFrames);
    t0 = mono_ns();
    for (std::size_t base = 0; base < kKeys; base += kBatch) {
      ScopedSpan span(spans, Layer::kReplayLookup);
      dp.lookup_batch(std::span(keys.data() + base, kBatch),
                      std::span(hashes.data() + base, kBatch),
                      std::span(out), meter);
      span.set(kBatch);
    }
    lookup_ns.push_back(static_cast<double>(mono_ns() - t0) / kKeys);
  }
  return {median(parse_ns), median(lookup_ns)};
}

struct Latency {
  double p50_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t samples = 0;
};

Latency latency_of(std::vector<std::uint32_t>& s) {
  Latency l;
  l.samples = s.size();
  if (s.empty()) return l;
  const auto q = [&](double p) {
    const auto k =
        static_cast<std::size_t>(p * static_cast<double>(s.size() - 1));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                     s.end());
    return static_cast<double>(s[k]) / 1e3;
  };
  l.p50_us = q(0.50);
  l.p99_us = q(0.99);
  l.p999_us = q(0.999);
  return l;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What a run collects from each finished chain.
struct Collected {
  std::vector<std::string> violations;
  std::vector<double> flowmod_ns;
  std::vector<double> setup_wall_s;
  std::vector<double> setup_s;          ///< beyond the modelled latency
  std::vector<double> converge_ms;
  std::vector<double> converge_beyond_ms;  ///< beyond the modelled latency

  void bring_up(BenchChain& chain) {
    const double wall = chain.bring_up();
    setup_wall_s.push_back(wall);
    setup_s.push_back(wall - chain.modelled_setup_s());
  }
  void fold(BenchChain& chain) {
    violations.insert(violations.end(), chain.violations().begin(),
                      chain.violations().end());
    flowmod_ns.insert(flowmod_ns.end(), chain.flowmod_ns().begin(),
                      chain.flowmod_ns().end());
    converge_ms.insert(converge_ms.end(), chain.converge_ms().begin(),
                       chain.converge_ms().end());
    for (std::size_t i = 0; i < chain.converge_ms().size(); ++i) {
      converge_beyond_ms.push_back(chain.converge_ms()[i] -
                                   chain.converge_model_ms()[i]);
    }
  }
};

int run(const Options& opt) {
  hw::set_log_level(hw::LogLevel::kError);
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const auto budget = static_cast<TimeNs>(opt.seconds * 1e9);

  Collected col;
  std::vector<Metric> metrics;
  const auto put = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };

  // Every measurement is taken in kRounds slices spread over the whole
  // run, each on a freshly built chain: host interference drifts over
  // seconds, and where the 64 MB pool lands in physical memory (and so in
  // the shared L3) changes with every allocation. Each build is also a
  // set-up time sample.
  const TimeNs plain_ns =
      (opt.trace ? budget / 4 : budget * 13 / 20) / kRounds;
  const TimeNs traced_ns = budget * 3 / 10 / kRounds;
  const TimeNs threaded_ns = budget / 4 / kRounds;
  SpanLog spans(kSpanKeep);
  Window plain;
  Window traced;
  Replay rep;
  std::uint64_t reval_entries = 0;
  std::uint64_t flowmods = 0;
  std::uint64_t agent_ops = 0;
  std::uint64_t bypass_setups = 0;
  std::uint64_t bypass_teardowns = 0;
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t engine_drops = 0;
  TimeNs gen_lag = 0;
  std::uint64_t due = 0;
  std::uint64_t failed = 0;
  DirCounters causes;  ///< real threads: why frames failed, summed
  for (int round = 0; round < kRounds; ++round) {
    {  // --- single core, run to completion, closed loop
      BenchChain chain(*spec, opt.seed);
      col.bring_up(chain);
      chain.endpoint().start_closed_loop(kWindow);
      chain.step_until([] { return false; }, kWarmupNs);
      const Window p = measure(chain, plain_ns, /*track_touch=*/false);
      check_claims(chain, p, "run-to-completion");
      plain.merge(p);
      // Control-plane work is counted over the traced window and the
      // convergence probe, which stays traced, so every workload times
      // some agent and bypass-manager work.
      const auto agent0 = chain.agent().counters();
      const auto bypass0 = chain.of().bypass_manager().counters();
      if (opt.trace) {
        chain.set_spans(&spans);
        const Window t = measure(chain, traced_ns, /*track_touch=*/true);
        check_claims(chain, t, "traced");
        traced.merge(t);
      }
      chain.converge_probe();
      if (opt.trace) {
        chain.set_spans(nullptr);
        const auto agent1 = chain.agent().counters();
        const auto bypass1 = chain.of().bypass_manager().counters();
        agent_ops += (agent1.setups_ok - agent0.setups_ok) +
                     (agent1.teardowns - agent0.teardowns);
        bypass_setups += bypass1.setups_completed - bypass0.setups_completed;
        bypass_teardowns +=
            bypass1.teardowns_completed - bypass0.teardowns_completed;
        if (round + 1 == kRounds) rep = replay(chain, budget / 20, &spans);
      }
      chain.finish();
      reval_entries += chain.of().datapath_stats().reval_entries_scanned;
      flowmods += chain.flowmods();
      col.fold(chain);
    }
    {  // --- real threads, open loop at a fixed rate
      BenchChain chain(*spec, opt.seed);
      col.bring_up(chain);
      chain.endpoint().latency_samples().reserve(
          static_cast<std::size_t>(2.02 * spec->open_loop_pps *
                                   static_cast<double>(threaded_ns) / 1e9) +
          4096);
      chain.run_threaded(spec->open_loop_pps, threaded_ns);
      const auto engine = chain.engine().counters();
      engine_drops += engine.tx_ring_full + engine.misses + engine.action_drops;
      gen_lag = std::max(gen_lag, chain.endpoint().max_gen_lag_ns());
      const auto& samples = chain.endpoint().latency_samples();
      latency_ns.insert(latency_ns.end(), samples.begin(), samples.end());
      chain.finish();
      for (int d = 0; d < 2; ++d) {
        const DirCounters& c = chain.endpoint().dir(d);
        due += c.due;
        failed += c.due - c.delivered;
        causes.tx_refused += c.tx_refused;
        causes.alloc_failed += c.alloc_failed;
        causes.unsent += c.unsent;
      }
      col.fold(chain);
    }
  }
  const double mpps = median(plain.mpps);
  const double reval_per_flowmod = ratio(static_cast<double>(reval_entries),
                                         static_cast<double>(flowmods));
  const Latency lat = latency_of(latency_ns);

  const double model = modelled_mpps(*spec);

  if (!opt.trace) {
    put("mpps_1core", mpps, "Mpps");
    put("lat_p50_us", lat.p50_us, "us");
    put("setup_s", median(col.setup_s), "s");
  } else {
    const auto& T = spans;
    const auto per = [&](Layer l) {
      return ratio(static_cast<double>(T.totals(l).ns),
                   static_cast<double>(T.totals(l).items));
    };
    const double delivered = static_cast<double>(traced.delivered);
    const double lookups = static_cast<double>(traced.lookups());
    const double traced_mpps = median(traced.mpps);
    put("vswitch.engine_busy_ns_per_pkt",
        ratio(static_cast<double>(T.totals(Layer::kEngine).ns), delivered),
        "ns/pkt");
    put("vswitch.engine_idle_poll_share",
        ratio(static_cast<double>(T.totals(Layer::kEngine).empty_calls),
              static_cast<double>(T.totals(Layer::kEngine).calls)),
        "ratio");
    put("vswitch.engine_drops", static_cast<double>(engine_drops), "count");
    put("classifier.emc_hit_ratio",
        ratio(static_cast<double>(traced.tiers.emc_hits), lookups), "ratio");
    put("classifier.megaflow_hit_ratio",
        ratio(static_cast<double>(traced.tiers.megaflow_hits), lookups),
        "ratio");
    put("classifier.slow_path_per_mpkt",
        ratio(static_cast<double>(traced.tiers.slow_path_lookups) * 1e6,
              lookups),
        "count/Mpkt");
    put("classifier.lookup_batch_ns_per_pkt", rep.lookup_ns, "ns/pkt");
    put("pkt.parse_hash_ns_per_pkt", rep.parse_hash_ns, "ns/pkt");
    put("classifier.reval_entries_per_flowmod", reval_per_flowmod,
        "count");
    put("openflow.flowmod_ns", median(col.flowmod_ns), "ns");
    put("converge_ms", median(col.converge_ms), "ms");
    put("converge_beyond_model_ms", median(col.converge_beyond_ms), "ms");
    put("vswitch.bypass_setups", static_cast<double>(bypass_setups), "count");
    put("vswitch.bypass_teardowns", static_cast<double>(bypass_teardowns),
        "count");
    put("agent.busy_ns_per_op",
        ratio(static_cast<double>(T.totals(Layer::kAgent).ns),
              static_cast<double>(agent_ops)),
        "ns/op");
    put("pmd.tx_ns_per_pkt", per(Layer::kTxBurst), "ns/pkt");
    put("pmd.rx_ns_per_pkt", per(Layer::kRxBurst), "ns/pkt");
    put("pmd.rx_empty_poll_share",
        ratio(static_cast<double>(T.totals(Layer::kRxBurst).empty_calls),
              static_cast<double>(T.totals(Layer::kRxBurst).calls)),
        "ratio");
    put("vm.forwarder_busy_ns_per_pkt", per(Layer::kForwarder), "ns/pkt");
    put("pkt.synth_ns_per_pkt", per(Layer::kSynth), "ns/pkt");
    put("mbuf.alloc_free_ns_per_buf",
        ratio(static_cast<double>(T.totals(Layer::kAlloc).ns +
                                  T.totals(Layer::kFree).ns),
              static_cast<double>(T.totals(Layer::kAlloc).items +
                                  T.totals(Layer::kFree).items)),
        "ns/buf");
    put("mbuf.touched_mib", median(traced.touched_mib), "MiB");
    put("gen_lag_max_us", static_cast<double>(gen_lag) / 1e3, "us");
    put("lat_p99_us", lat.p99_us, "us");
    put("lat_p999_us", lat.p999_us, "us");
    put("lat_samples", static_cast<double>(lat.samples), "count");
    put("model.mpps", model, "Mpps-modelled");
    put("trace.mpps_1core_traced", traced_mpps, "Mpps");
    put("trace.overhead_share", ratio(mpps - traced_mpps, mpps), "ratio");
  }

  std::printf("chainbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("  %-40s %14.4f %s\n", "mpps_1core (measured, untraced)", mpps,
              "Mpps");
  std::printf("  %-40s %14.4f %s\n", "model.mpps (modelled, ChainScenario)",
              model, "Mpps-modelled");
  // setup_s leaves out the agent's modelled hot-plug and control
  // latencies, which no change to the program moves; the wall-clock
  // total is printed here for reference.
  std::printf("  %-40s %14.4f %s\n", "setup wall time (incl. modelled)",
              median(col.setup_wall_s), "s");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // Not a metric: the bounded open-loop window keeps every ring from
  // overflowing, so on a correct program it is 0, and `failed` in the
  // result line carries it.
  std::printf("  %-40s %14llu / %llu\n", "frames failed / due (real threads)",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(due));
  std::printf("  %-40s %14.4g %s\n", "fail_ratio",
              ratio(static_cast<double>(failed), static_cast<double>(due)),
              "ratio");
  std::printf("  %-40s %llu refused, %llu unallocated, %llu unsent, "
              "%llu dropped in the switch or VNF\n",
              "  of which",
              static_cast<unsigned long long>(causes.tx_refused),
              static_cast<unsigned long long>(causes.alloc_failed),
              static_cast<unsigned long long>(causes.unsent),
              static_cast<unsigned long long>(
                  failed - causes.tx_refused - causes.alloc_failed -
                  causes.unsent));

  if (opt.trace && !opt.spans_out.empty()) {
    std::ofstream out(opt.spans_out);
    out << spans.chrome_json();
    if (!out) col.violations.push_back("could not write " + opt.spans_out);
  }
  for (const std::string& v : col.violations) {
    std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
  }
  const bool correct = col.violations.empty() && due > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(due),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace chainbench

int main(int argc, char** argv) {
  return chainbench::run(chainbench::parse(argc, argv));
}
