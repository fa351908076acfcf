/// \file bench_ablation_signature.cpp
/// Ablation A9: the megaflow tier's hash-indexed subtables, scalar
/// lookup() against the batched lookup_batch(), swept over flow count
/// (which drives entries per subtable) × mask diversity, plus a
/// wall-clock check that a subtable probe costs the same at any size.
///
///   * scalar — one lookup() per packet: every subtable probe pays the
///              full per-probe base (mask, hash, rank dispatch);
///   * batch  — lookup_batch() over 32-packet batches: one pass per
///              subtable over the whole batch, rank dispatch and EWMA
///              accounting amortized.
///
/// Each row reports cost-model cycles per lookup (modelled) beside host
/// nanoseconds per lookup (wall-clock, steady_clock around the measured
/// loop). The flat-cost section then drives one MegaflowCache subtable
/// directly at 1k and 64k entries in random order and prints the
/// buckets walked and the ns per lookup at both sizes: with the hash
/// index a probe is one bucket walk whatever the subtable holds, which
/// is what lets the EMC-thrashing regime scale with flow count.
///
/// The retired 16-bit signature-array scan (linear / sig-scalar /
/// sig-simd / simd+pf / sig+batch) left its last numbers in
/// docs/BENCHMARKS.md; on the flat-cost check it read 71 ns at 1k and
/// 2977 ns at 64k entries (42x) on the host that set the tolerance.
///
/// Methodology: the classifier is driven directly (no chain topology);
/// the EMC is disabled so the megaflow tier is isolated; modelled cost
/// is virtual cycles from exec::CostModel, identical to what the
/// forwarding engine charges per packet. `--smoke` runs a reduced sweep;
/// in every run the binary exits non-zero if, on the >= 8 masks × >= 4k
/// flows configurations the megaflow tier serves (hit rate >= 90%),
///   (a) batch fails to reach >= 1.5x the scalar modelled throughput, or
///   (b) batch is slower than scalar in wall-clock beyond
///       kBatchWallTolerance (a mode the model calls faster must not
///       lose on the host);
/// or if (c) the ns per lookup at 64k entries in one subtable exceeds
/// kFlatTolerance times the ns per lookup at 1k entries.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "classifier/dp_classifier.h"
#include "classifier/megaflow.h"
#include "common/rng.h"
#include "exec/context.h"
#include "exec/cost_model.h"
#include "flowtable/flow_table.h"
#include "openflow/messages.h"
#include "pkt/headers.h"

namespace hw::bench {
namespace {

using classifier::DpClassifier;
using classifier::DpClassifierConfig;
using classifier::LookupOutcome;
using classifier::MaskSpec;
using classifier::MegaflowCache;
using classifier::MegaflowCacheConfig;
using classifier::ProbeTally;
using classifier::TierCounters;
using flowtable::FlowTable;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kRuleCount = 64;
constexpr std::size_t kBatch = 32;
constexpr PortId kOutPort = 1;

/// Gate (b): batch may be at most this much slower than scalar in
/// wall-clock. The measured batch/scalar ns ratio at 4096 flows × 8
/// masks was 0.91–0.96 on a shared 4-vCPU host; the slack absorbs its
/// noise.
constexpr double kBatchWallTolerance = 1.25;
/// Gate (c): ns per lookup at 64k entries over ns at 1k entries. The
/// hash index measured 2.2–2.5x (the 64k working set spills out of the
/// caches; the probe work itself is flat), the retired signature scan
/// 42x.
constexpr double kFlatTolerance = 4.0;
/// Gates (a) and (b) cover rows whose megaflow hit rate reaches this.
constexpr double kGateMinHitRate = 0.9;
constexpr std::uint32_t kFlatSmall = 1024;
constexpr std::uint32_t kFlatLarge = 65536;

std::uint64_t g_lookups = 200'000;
bool g_smoke = false;

enum Mode : std::int64_t { kScalar = 0, kBatchMode = 1 };
constexpr std::int64_t kModeCount = 2;

/// One distinct match shape per mask-diversity step (salted so rules
/// within a shape stay distinct) — same population as ablation A7.
Match shaped_match(std::uint32_t shape, std::uint32_t salt) {
  Match match;
  switch (shape % 8) {
    case 0:
      match.in_port(static_cast<PortId>(1 + salt % 6));
      break;
    case 1:
      match.in_port(static_cast<PortId>(1 + salt % 6))
          .l4_dst(static_cast<std::uint16_t>(80 + salt % 8));
      break;
    case 2:
      match.ip_dst(0x0a000000u + ((salt % 16) << 8), 24);
      break;
    case 3:
      match.ip_dst(0x0a000000u + ((salt % 4) << 16), 16);
      break;
    case 4:
      match.ip_proto(pkt::kIpProtoUdp).ip_dst(0x0a000000u, 8);
      break;
    case 5:
      match.in_port(static_cast<PortId>(1 + salt % 6))
          .ip_proto(salt % 2 ? pkt::kIpProtoUdp : pkt::kIpProtoTcp);
      break;
    case 6:
      match.l4_dst(static_cast<std::uint16_t>(5000 + salt % 8));
      break;
    default:
      match.ip_src(0xc0a80000u + ((salt % 16) << 8), 24);
      break;
  }
  return match;
}

void install_rules(FlowTable& table, std::uint32_t mask_diversity) {
  for (std::uint32_t i = 0; i < kRuleCount; ++i) {
    FlowMod mod;
    mod.command = FlowModCommand::kAdd;
    mod.match = shaped_match(i % mask_diversity, i);
    mod.priority = static_cast<std::uint16_t>(10 + (i % 7) * 10);
    mod.cookie = i;
    mod.actions = {Action::output(kOutPort)};
    (void)table.apply(mod);
  }
  FlowMod catch_all;
  catch_all.command = FlowModCommand::kAdd;
  catch_all.priority = 0;
  catch_all.cookie = 0xffff;
  catch_all.actions = {Action::output(kOutPort)};
  (void)table.apply(catch_all);
}

std::vector<pkt::FlowKey> make_flows(std::uint32_t count, Rng& rng) {
  std::vector<pkt::FlowKey> flows;
  flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    pkt::FlowKey key;
    key.in_port = static_cast<PortId>(1 + rng.next_below(6));
    key.ether_type = pkt::kEtherTypeIpv4;
    key.ip_proto = rng.chance(1, 2) ? pkt::kIpProtoUdp : pkt::kIpProtoTcp;
    key.src_ip = 0xc0a80000u + static_cast<std::uint32_t>(i);
    key.dst_ip =
        0x0a000000u + static_cast<std::uint32_t>(rng.next() & 0x0003ffff);
    key.src_port = static_cast<std::uint16_t>(1024 + (i & 0x3fff));
    key.dst_port = static_cast<std::uint16_t>(
        rng.chance(1, 2) ? 80 + rng.next_below(8) : 5000 + rng.next_below(8));
    flows.push_back(key);
  }
  return flows;
}

struct Row {
  std::uint32_t flows = 0;
  std::uint32_t masks = 0;
  double cyc[kModeCount] = {0, 0};  ///< modelled cycles/lookup per Mode
  double ns[kModeCount] = {0, 0};   ///< wall-clock ns/lookup per Mode
  double mf_hit_rate = 0;           ///< batch mode
  std::uint64_t sig_fp = 0;         ///< batch mode: hash matches refuted
  std::size_t subtables = 0;
  std::size_t entries = 0;
};
std::vector<Row> g_rows;

Row& row_for(std::uint32_t flows, std::uint32_t masks) {
  for (Row& row : g_rows) {
    if (row.flows == flows && row.masks == masks) return row;
  }
  g_rows.push_back(Row{.flows = flows, .masks = masks});
  return g_rows.back();
}

void BM_Megaflow(benchmark::State& state) {
  const auto flow_count = static_cast<std::uint32_t>(state.range(0));
  const auto mask_diversity = static_cast<std::uint32_t>(state.range(1));
  const auto mode = state.range(2);

  exec::CostModel cost;
  FlowTable table;
  install_rules(table, mask_diversity);
  Rng rng(0x51f0a7e5u ^ flow_count ^ (mask_diversity << 20));
  const std::vector<pkt::FlowKey> flows = make_flows(flow_count, rng);
  std::vector<std::uint32_t> hashes;
  hashes.reserve(flows.size());
  for (const pkt::FlowKey& key : flows) {
    hashes.push_back(pkt::flow_key_hash(key));
  }

  DpClassifierConfig config;
  config.emc_enabled = false;  // isolate the megaflow tier

  double cycles_per_lookup = 0;
  double ns_per_lookup = 0;
  TierCounters tiers;
  std::size_t subtables = 0;
  std::size_t entries = 0;
  std::uint64_t sig_fp = 0;
  for (auto _ : state) {
    DpClassifier dp(table, cost, config);
    exec::CycleMeter warm;
    // Warm the megaflow tier with one full pass over the flow population.
    for (std::size_t i = 0; i < flows.size(); ++i) {
      benchmark::DoNotOptimize(dp.lookup(flows[i], hashes[i], warm));
    }
    exec::CycleMeter meter;
    const TierCounters before = dp.counters();
    std::vector<LookupOutcome> outcomes(kBatch);
    std::vector<pkt::FlowKey> keys(kBatch);
    std::vector<std::uint32_t> key_hashes(kBatch);
    const Clock::time_point start = Clock::now();
    if (mode == kBatchMode) {
      for (std::uint64_t i = 0; i < g_lookups; i += kBatch) {
        for (std::size_t j = 0; j < kBatch; ++j) {
          const std::size_t f =
              static_cast<std::size_t>((i + j) % flows.size());
          keys[j] = flows[f];
          key_hashes[j] = hashes[f];
        }
        dp.lookup_batch(keys, key_hashes, outcomes, meter);
        benchmark::DoNotOptimize(outcomes.data());
      }
    } else {
      for (std::uint64_t i = 0; i < g_lookups; ++i) {
        const std::size_t f = static_cast<std::size_t>(i % flows.size());
        benchmark::DoNotOptimize(dp.lookup(flows[f], hashes[f], meter));
      }
    }
    const double wall_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    ns_per_lookup = wall_ns / static_cast<double>(g_lookups);
    cycles_per_lookup = static_cast<double>(meter.total_used()) /
                        static_cast<double>(g_lookups);
    tiers = dp.counters();
    tiers.megaflow_hits -= before.megaflow_hits;
    sig_fp = tiers.sig_false_positives - before.sig_false_positives;
    subtables = dp.megaflow().subtable_count();
    entries = dp.megaflow().entry_count();
    state.SetIterationTime(wall_ns / 1e9);
  }

  state.counters["cyc_per_pkt"] = cycles_per_lookup;
  state.counters["ns_per_pkt"] = ns_per_lookup;
  state.counters["mf_hits"] = static_cast<double>(tiers.megaflow_hits);
  state.counters["sig_fp"] = static_cast<double>(sig_fp);
  state.counters["subtables"] = static_cast<double>(subtables);
  state.counters["entries_per_subtable"] =
      subtables > 0 ? static_cast<double>(entries) /
                          static_cast<double>(subtables)
                    : 0;

  Row& row = row_for(flow_count, mask_diversity);
  row.cyc[mode] = cycles_per_lookup;
  row.ns[mode] = ns_per_lookup;
  if (mode == kBatchMode) {
    row.mf_hit_rate = static_cast<double>(tiers.megaflow_hits) /
                      static_cast<double>(g_lookups);
    row.sig_fp = sig_fp;
    row.subtables = subtables;
    row.entries = entries;
  }
}

/// Probe cost of one subtable holding `entries` keys, in random order.
struct FlatPoint {
  double ns_per_lookup = 0;      ///< best of three timed passes
  double buckets_per_lookup = 0; ///< index buckets walked per lookup
};

FlatPoint measure_flat(std::uint32_t entries, std::uint64_t lookups) {
  MegaflowCacheConfig config;
  config.max_entries = 2 * kFlatLarge;
  config.auto_size = false;  // keep every entry resident
  MegaflowCache cache(config);
  const MaskSpec mask{.fields = openflow::kMatchInPort |
                                openflow::kMatchIpDst | openflow::kMatchL4Dst,
                      .ip_dst_plen = 32};
  std::vector<pkt::FlowKey> keys;
  keys.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    pkt::FlowKey key;
    key.in_port = 1;
    key.ether_type = pkt::kEtherTypeIpv4;
    key.ip_proto = pkt::kIpProtoUdp;
    key.src_ip = 0xc0a80000u + i;
    key.dst_ip = 0x0a000000u + i;
    key.src_port = 1234;
    key.dst_port = 80;
    keys.push_back(key);
    cache.insert(key, mask, 1 + i % kRuleCount, 1);
  }
  Rng rng(0xf1a7u ^ entries);
  std::vector<std::uint32_t> order(lookups);
  for (std::uint32_t& index : order) {
    index = static_cast<std::uint32_t>(rng.next_below(entries));
  }
  FlatPoint point;
  point.ns_per_lookup = -1;
  for (int pass = 0; pass < 3; ++pass) {
    ProbeTally tally;
    const Clock::time_point start = Clock::now();
    for (const std::uint32_t index : order) {
      benchmark::DoNotOptimize(cache.lookup(keys[index], 1, tally));
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(lookups);
    if (point.ns_per_lookup < 0 || ns < point.ns_per_lookup) {
      point.ns_per_lookup = ns;
    }
    point.buckets_per_lookup =
        static_cast<double>(tally.buckets) / static_cast<double>(lookups);
  }
  return point;
}

}  // namespace
}  // namespace hw::bench

int main(int argc, char** argv) {
  using namespace hw::bench;

  // Strip our own flag before google-benchmark parses the rest.
  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;
  if (g_smoke) g_lookups = 20'000;

  const std::vector<std::int64_t> flow_counts =
      g_smoke ? std::vector<std::int64_t>{4096}
              : std::vector<std::int64_t>{1024, 4096, 16384};
  const std::vector<std::int64_t> mask_counts =
      g_smoke ? std::vector<std::int64_t>{8}
              : std::vector<std::int64_t>{1, 4, 8};
  auto* bench = benchmark::RegisterBenchmark("BM_Megaflow", BM_Megaflow);
  bench->ArgNames({"flows", "masks", "mode"});
  for (const std::int64_t flows : flow_counts) {
    for (const std::int64_t masks : mask_counts) {
      for (std::int64_t mode = 0; mode < kModeCount; ++mode) {
        bench->Args({flows, masks, mode});
      }
    }
  }
  bench->Iterations(1)->UseManualTime()->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf(
      "\n=== A9: hash-indexed megaflow, scalar vs batch (%llu lookups, "
      "%u rules, EMC off) ===\n",
      static_cast<unsigned long long>(g_lookups), kRuleCount + 1);
  std::printf("%-7s %-5s | %-10s %-10s %-7s | %-10s %-10s %-7s | %-8s %-7s\n",
              "flows", "masks", "scalar_cyc", "batch_cyc", "gain",
              "scalar_ns", "batch_ns", "gain", "mf_hit%", "sig_fp");
  double worst_model_gain = -1;
  double worst_wall_ratio = -1;  ///< batch ns / scalar ns (lower is better)
  for (const auto& row : g_rows) {
    const double model_gain =
        row.cyc[kBatchMode] > 0 ? row.cyc[kScalar] / row.cyc[kBatchMode] : 0;
    const double wall_gain =
        row.ns[kBatchMode] > 0 ? row.ns[kScalar] / row.ns[kBatchMode] : 0;
    std::printf(
        "%-7u %-5u | %-10.1f %-10.1f %-7.2f | %-10.1f %-10.1f %-7.2f | "
        "%-8.1f %-7llu\n",
        row.flows, row.masks, row.cyc[kScalar], row.cyc[kBatchMode],
        model_gain, row.ns[kScalar], row.ns[kBatchMode], wall_gain,
        100.0 * row.mf_hit_rate, static_cast<unsigned long long>(row.sig_fp));
    // Acceptance scope: the EMC-thrashing, mask-diverse configurations
    // the megaflow tier actually serves. A row whose working set outruns
    // the auto-sized cache is slow-path bound in both modes and says
    // nothing about the probe; it is printed, not gated.
    if (row.masks >= 8 && row.flows >= 4096 &&
        row.mf_hit_rate >= kGateMinHitRate) {
      worst_model_gain = worst_model_gain < 0
                             ? model_gain
                             : std::min(worst_model_gain, model_gain);
      const double wall_ratio =
          row.ns[kScalar] > 0 ? row.ns[kBatchMode] / row.ns[kScalar] : 0;
      worst_wall_ratio = std::max(worst_wall_ratio, wall_ratio);
    }
  }

  const std::uint64_t flat_lookups = g_smoke ? 100'000 : 400'000;
  const FlatPoint small = measure_flat(kFlatSmall, flat_lookups);
  const FlatPoint large = measure_flat(kFlatLarge, flat_lookups);
  const double flat_ratio = small.ns_per_lookup > 0
                                ? large.ns_per_lookup / small.ns_per_lookup
                                : 0;
  std::printf(
      "\n=== flat probe cost: one subtable, random-order lookups ===\n"
      "%-8s %-10s %-10s\n"
      "%-8u %-10.2f %-10.1f\n"
      "%-8u %-10.2f %-10.1f\n",
      "entries", "buckets", "ns/lookup", kFlatSmall,
      small.buckets_per_lookup, small.ns_per_lookup, kFlatLarge,
      large.buckets_per_lookup, large.ns_per_lookup);
  std::printf(
      "\nscalar pays the full per-subtable probe base per packet; batch\n"
      "amortizes dispatch across 32-packet batches. Either way a subtable\n"
      "probe is one hash-index bucket walk, so the flat-cost rows differ\n"
      "only by what the larger working set costs the host's caches.\n");

  bool ok = true;
  if (worst_model_gain >= 0) {
    const bool pass = worst_model_gain >= 1.5;
    std::printf(
        "acceptance: batch >= 1.5x scalar (modelled) on >=8 masks x >=4k "
        "flows: %.2fx -> %s\n",
        worst_model_gain, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
  if (worst_wall_ratio >= 0) {
    const bool pass = worst_wall_ratio <= kBatchWallTolerance;
    std::printf(
        "acceptance: batch ns <= %.2fx scalar ns (wall-clock) on >=8 masks "
        "x >=4k flows: %.2fx -> %s\n",
        kBatchWallTolerance, worst_wall_ratio, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
  {
    const bool pass = flat_ratio > 0 && flat_ratio <= kFlatTolerance;
    std::printf(
        "acceptance: ns/lookup at %u entries <= %.1fx the cost at %u "
        "(wall-clock): %.1f ns vs %.1f ns = %.2fx -> %s\n",
        kFlatLarge, kFlatTolerance, kFlatSmall, large.ns_per_lookup,
        small.ns_per_lookup, flat_ratio, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}
