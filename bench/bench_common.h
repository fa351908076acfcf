#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "chain/chain.h"
#include "common/log.h"

/// \file bench_common.h
/// Shared helpers for the reproduction harness. Every bench binary runs
/// under google-benchmark (virtual time is reported via manual timing) and
/// finishes by printing a paper-style table of the series it reproduces.

namespace hw::bench {

/// Hot-plug latencies scaled down for throughput benches (setup time is
/// measured by bench_setup; waiting the full ~100 ms per link in every
/// throughput point only burns host time without changing steady state).
inline agent::HotplugLatencyModel fast_hotplug() {
  agent::HotplugLatencyModel model;
  model.qemu_plug_ns /= 10;
  model.pci_scan_ns /= 10;
  model.serial_rtt_ns /= 10;
  model.qemu_unplug_ns /= 10;
  return model;
}

struct ChainPoint {
  std::uint32_t vm_count = 0;
  bool bypass = false;
  chain::ChainMetrics metrics;
};

/// Builds, warms up and measures one chain configuration.
inline chain::ChainMetrics run_chain_point(chain::ChainConfig config,
                                           TimeNs warmup_ns,
                                           TimeNs measure_ns) {
  set_log_level(LogLevel::kError);
  chain::ChainScenario scenario(config);
  const Status built = scenario.build();
  if (!built.is_ok()) {
    std::fprintf(stderr, "chain build failed: %s\n",
                 built.to_string().c_str());
    return {};
  }
  if (!scenario.wait_bypass_ready()) {
    std::fprintf(stderr, "bypass setup timed out (n=%u)\n", config.vm_count);
  }
  scenario.warmup(warmup_ns);
  return scenario.measure(measure_ns);
}

/// Collects one row per (vm_count, approach) for the final table.
class SeriesTable {
 public:
  void add(std::uint32_t vm_count, bool bypass,
           const chain::ChainMetrics& metrics) {
    rows_[{vm_count, bypass}] = metrics;
  }

  [[nodiscard]] const chain::ChainMetrics* find(std::uint32_t vm_count,
                                                bool bypass) const {
    auto it = rows_.find({vm_count, bypass});
    return it == rows_.end() ? nullptr : &it->second;
  }

  /// Paper-style throughput table: one row per chain length, both
  /// approaches side by side.
  void print_throughput(const char* title) const {
    std::printf("\n=== %s ===\n", title);
    std::printf("%-8s %-22s %-22s %-8s\n", "# VMs",
                "Traditional [Mpps]", "Our approach [Mpps]", "Gain");
    for (const auto& [key, metrics] : rows_) {
      const auto [n, bypass] = key;
      if (bypass) continue;  // paired with the bypass row below
      const chain::ChainMetrics* ours = find(n, true);
      if (ours == nullptr) continue;
      std::printf("%-8u %-22.3f %-22.3f %.1fx\n", n, metrics.mpps_total,
                  ours->mpps_total,
                  metrics.mpps_total > 0
                      ? ours->mpps_total / metrics.mpps_total
                      : 0.0);
    }
  }

  /// Per-tier classification breakdown: where each configuration's
  /// switched packets were resolved (EMC / megaflow / slow path). This is
  /// the "why" column for every throughput/latency delta: a config is
  /// faster when its packets stop at a cheaper tier — or skip the
  /// classifier entirely via the bypass.
  void print_tiers(const char* title) const {
    std::printf("\n=== %s: classification tiers ===\n", title);
    std::printf("%-8s %-12s %-12s %-12s %-12s %-8s %-8s %-8s\n", "# VMs",
                "approach", "EMC hits", "MF hits", "slow path", "emc%",
                "mf%", "slow%");
    for (const auto& [key, metrics] : rows_) {
      const auto [n, bypass] = key;
      const double total =
          static_cast<double>(metrics.emc_hits + metrics.megaflow_hits +
                              metrics.slow_path_lookups);
      auto pct = [&](std::uint64_t v) {
        return total > 0 ? 100.0 * static_cast<double>(v) / total : 0.0;
      };
      std::printf(
          "%-8u %-12s %-12llu %-12llu %-12llu %-8.1f %-8.1f %-8.1f\n", n,
          bypass ? "ours" : "traditional",
          static_cast<unsigned long long>(metrics.emc_hits),
          static_cast<unsigned long long>(metrics.megaflow_hits),
          static_cast<unsigned long long>(metrics.slow_path_lookups),
          pct(metrics.emc_hits), pct(metrics.megaflow_hits),
          pct(metrics.slow_path_lookups));
    }
  }

  void print_latency(const char* title) const {
    std::printf("\n=== %s ===\n", title);
    std::printf("%-8s %-16s %-16s %-14s %-14s %-12s\n", "# VMs",
                "trad mean [us]", "ours mean [us]", "trad p99 [us]",
                "ours p99 [us]", "improvement");
    for (const auto& [key, metrics] : rows_) {
      const auto [n, bypass] = key;
      if (bypass) continue;
      const chain::ChainMetrics* ours = find(n, true);
      if (ours == nullptr) continue;
      const double improvement =
          metrics.latency_mean_ns > 0
              ? 100.0 * (metrics.latency_mean_ns - ours->latency_mean_ns) /
                    metrics.latency_mean_ns
              : 0.0;
      std::printf("%-8u %-16.2f %-16.2f %-14.2f %-14.2f %.0f%%\n", n,
                  metrics.latency_mean_ns / 1e3,
                  ours->latency_mean_ns / 1e3,
                  static_cast<double>(metrics.latency_p99_ns) / 1e3,
                  static_cast<double>(ours->latency_p99_ns) / 1e3,
                  improvement);
    }
  }

 private:
  std::map<std::pair<std::uint32_t, bool>, chain::ChainMetrics> rows_;
};

/// Publishes the standard counters on a benchmark state.
inline void export_counters(benchmark::State& state,
                            const chain::ChainMetrics& metrics) {
  state.counters["Mpps"] = metrics.mpps_total;
  state.counters["Mpps_fwd"] = metrics.mpps_fwd;
  state.counters["Mpps_rev"] = metrics.mpps_rev;
  state.counters["lat_mean_us"] = metrics.latency_mean_ns / 1e3;
  state.counters["lat_p99_us"] =
      static_cast<double>(metrics.latency_p99_ns) / 1e3;
  state.counters["switch_rx"] =
      static_cast<double>(metrics.switch_rx_packets);
  state.counters["bypass_links"] =
      static_cast<double>(metrics.bypass_links);
  state.counters["drops"] = static_cast<double>(metrics.drops);
  state.counters["pmd_util"] = metrics.max_engine_utilization;
  // Per-tier classification counters: alongside the latency/throughput
  // columns these show *where* lookups resolved, i.e. why a config wins.
  state.counters["emc_hits"] = static_cast<double>(metrics.emc_hits);
  state.counters["mf_hits"] = static_cast<double>(metrics.megaflow_hits);
  state.counters["slow_lookups"] =
      static_cast<double>(metrics.slow_path_lookups);
  state.counters["mf_inserts"] =
      static_cast<double>(metrics.megaflow_inserts);
  state.counters["mf_invalidations"] =
      static_cast<double>(metrics.megaflow_invalidations);
  state.counters["mf_revalidations"] =
      static_cast<double>(metrics.megaflow_revalidations);
  // Hash-index + batch pipeline telemetry.
  state.counters["sig_hits"] = static_cast<double>(metrics.sig_hits);
  state.counters["sig_fp"] =
      static_cast<double>(metrics.sig_false_positives);
  state.counters["batches"] = static_cast<double>(metrics.batches);
  state.counters["batch_fill_avg"] = metrics.batch_fill_avg;
  // Coalescing-revalidator telemetry (see docs/COUNTERS.md).
  state.counters["reval_batches"] =
      static_cast<double>(metrics.reval_batches);
  state.counters["reval_scanned"] =
      static_cast<double>(metrics.reval_entries_scanned);
  state.counters["reval_coalesced"] =
      static_cast<double>(metrics.reval_coalesced_events);
  state.counters["cache_resizes"] =
      static_cast<double>(metrics.cache_resizes);
  // Revalidator subtable-prefilter telemetry (see docs/COUNTERS.md).
  state.counters["subt_skipped"] =
      static_cast<double>(metrics.subtables_skipped);
  state.counters["prefilter_fp"] =
      static_cast<double>(metrics.prefilter_false_positives);
  // RSS scale-out telemetry (see docs/SCALEOUT.md): zeros unless an
  // RSS-sharded multi-engine pool is configured.
  state.counters["rss_distributed"] =
      static_cast<double>(metrics.rss_distributed);
  state.counters["rss_queue_drops"] =
      static_cast<double>(metrics.rss_queue_drops);
  state.counters["rebalance_checks"] =
      static_cast<double>(metrics.rebalance_checks);
  state.counters["bucket_migrations"] =
      static_cast<double>(metrics.bucket_migrations);
  // Offered-load shape (see docs/WORKLOADS.md): what the generators
  // actually offered in the window — a starved or gated generator shows
  // up here instead of masquerading as a datapath slowdown.
  state.counters["active_flows"] =
      static_cast<double>(metrics.offered_active_flows);
  state.counters["flow_arrivals"] =
      static_cast<double>(metrics.offered_arrivals);
  state.counters["flow_departures"] =
      static_cast<double>(metrics.offered_departures);
  state.counters["top16_share"] = metrics.offered_top16_share;
  state.counters["gen_alloc_fail"] =
      static_cast<double>(metrics.gen_alloc_failures);
}

/// Publishes one engine-tagged counter column as `e<i>_<name>` — the
/// per-engine telemetry convention of the scale-out harness (see
/// docs/SCALEOUT.md and docs/COUNTERS.md).
inline void export_engine_counter(benchmark::State& state, std::size_t engine,
                                  const char* name, double value) {
  // snprintf, not string operator+: GCC 12's -Wrestrict false-fires on
  // the inlined `const char* + std::to_string(...)` chain (PR105651).
  char key[64];
  std::snprintf(key, sizeof key, "e%zu_%s", engine, name);
  state.counters[key] = value;
}

}  // namespace hw::bench
