#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "chain.h"
#include "common/log.h"

namespace chainbench {
namespace {

constexpr TimeNs kMs = 1'000'000;

/// First `n` frames of a stream: flow id, sequence number and bytes.
std::vector<std::vector<std::byte>> frames_of(
    const hw::pkt::TrafficProfile& profile, std::size_t n) {
  FrameStream stream(profile);
  std::vector<std::vector<std::byte>> out;
  hw::mbuf::Mbuf buf;
  for (std::size_t i = 0; i < n; ++i) {
    stream.next(buf);
    std::vector<std::byte> bytes(buf.data, buf.data + buf.data_len);
    const auto* meta = reinterpret_cast<const std::byte*>(&buf.flags);
    bytes.insert(bytes.end(), meta, meta + sizeof buf.flags);
    const auto* seq = reinterpret_cast<const std::byte*>(&buf.seq);
    bytes.insert(bytes.end(), seq, seq + sizeof buf.seq);
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(FrameStream, SameSeedSameStreamOtherSeedOtherStream) {
  for (const WorkloadSpec& spec : all_workloads()) {
    for (int dir = 0; dir < 2; ++dir) {
      const auto a = frames_of(make_profile(spec, 7, dir), 4096);
      const auto b = frames_of(make_profile(spec, 7, dir), 4096);
      const auto c = frames_of(make_profile(spec, 8, dir), 4096);
      EXPECT_EQ(a, b) << spec.name << " dir " << dir;
      EXPECT_NE(a, c) << spec.name << " dir " << dir;
    }
  }
}

TEST(FrameStream, DirectionsDiffer) {
  const WorkloadSpec& spec = *find_workload("highway");
  EXPECT_NE(frames_of(make_profile(spec, 1, 0), 64),
            frames_of(make_profile(spec, 1, 1), 64));
}

bool mentions(const std::vector<std::string>& violations,
              const std::string& word) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(word) != std::string::npos;
                     });
}

TEST(Conservation, CleanRunHasNoViolations) {
  hw::set_log_level(hw::LogLevel::kError);
  BenchChain chain(*find_workload("highway"), 3);
  ASSERT_GT(chain.bring_up(), 0) << chain.violations().front();
  EXPECT_EQ(chain.active_links(), 4u);
  chain.endpoint().start_closed_loop(64);
  chain.step_until([] { return false; }, 50 * kMs);
  EXPECT_GT(chain.endpoint().delivered_total(), 0u);
  chain.finish();
  EXPECT_TRUE(chain.violations().empty()) << chain.violations().front();
}

TEST(Conservation, WithheldFrameTripsTheCheck) {
  hw::set_log_level(hw::LogLevel::kError);
  BenchChain chain(*find_workload("highway"), 3);
  ASSERT_GT(chain.bring_up(), 0);
  chain.endpoint().start_closed_loop(64);
  chain.step_until([] { return false; }, 20 * kMs);
  chain.endpoint().withhold_next_frame();
  chain.step_until([&] { return chain.endpoint().withheld() == 1; },
                   100 * kMs);
  ASSERT_EQ(chain.endpoint().withheld(), 1u);
  chain.step_until([] { return false; }, 20 * kMs);
  chain.finish();
  EXPECT_TRUE(mentions(chain.violations(), "conservation"));
  EXPECT_TRUE(mentions(chain.violations(), "mempool did not drain"));
}

TEST(Conservation, SteeredChainSwitchesEveryFrameAndBalances) {
  hw::set_log_level(hw::LogLevel::kError);
  BenchChain chain(*find_workload("steered_zipf"), 5);
  ASSERT_GT(chain.bring_up(), 0);
  EXPECT_EQ(chain.active_links(), 0u);
  chain.endpoint().start_closed_loop(64);
  chain.step_until([] { return false; }, 50 * kMs);
  const auto tiers = chain.of().datapath_stats();
  EXPECT_GT(tiers.slow_path_lookups, 0u);
  chain.finish();
  EXPECT_TRUE(chain.violations().empty()) << chain.violations().front();
}

TEST(OpenLoop, WindowHoldsFramesWhileTheChainStalls) {
  hw::set_log_level(hw::LogLevel::kError);
  BenchChain chain(*find_workload("highway"), 3);
  ASSERT_GT(chain.bring_up(), 0);
  Endpoint& ep = chain.endpoint();
  // 1 Mpps for 20 ms is 20000 frames due per direction, many rings' worth;
  // only the endpoint is polled, so the VNF never forwards one of them.
  const TimeNs t0 = mono_ns();
  ep.start_open_loop(1e6, t0, t0 + 20 * kMs, 512);
  hw::exec::CycleMeter meter;
  while (mono_ns() < t0 + 30 * kMs) ep.poll(meter);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(ep.dir(d).sent, 512u) << "direction " << d;
    EXPECT_EQ(ep.dir(d).tx_refused, 0u) << "direction " << d;
  }
  chain.finish();
  for (int d = 0; d < 2; ++d) {
    const DirCounters& c = ep.dir(d);
    EXPECT_EQ(c.due, 20'000u) << "direction " << d;
    EXPECT_EQ(c.delivered, 512u) << "direction " << d;
    EXPECT_EQ(c.unsent, c.due - c.delivered) << "direction " << d;
  }
  EXPECT_TRUE(chain.violations().empty()) << chain.violations().front();
}

TEST(OpenLoop, RealThreadsDeliverEveryFrameDue) {
  hw::set_log_level(hw::LogLevel::kError);
  BenchChain chain(*find_workload("highway"), 4);
  ASSERT_GT(chain.bring_up(), 0);
  chain.endpoint().latency_samples().reserve(1 << 17);
  chain.run_threaded(250'000, 200 * kMs);
  chain.finish();
  // Order violations are left to the benchmark run (a known defect can
  // reorder frames at the mid-run teardown); the counts must balance.
  for (int d = 0; d < 2; ++d) {
    const DirCounters& c = chain.endpoint().dir(d);
    EXPECT_EQ(c.due, 50'000u) << "direction " << d;
    EXPECT_EQ(c.delivered, c.due) << "direction " << d;
  }
}

/// The probe's samples, and the agent's modelled share of each: request
/// RTT plus two serial commands, and on steered_zipf (whose channels were
/// never plugged) two hot-plugs on top.
void expect_probe_model(const char* workload, double model_ms) {
  hw::set_log_level(hw::LogLevel::kError);
  BenchChain chain(*find_workload(workload), 11);
  ASSERT_GT(chain.bring_up(), 0);
  chain.endpoint().start_closed_loop(64);
  chain.converge_probe();
  ASSERT_EQ(chain.converge_ms().size(), 2u);
  ASSERT_EQ(chain.converge_model_ms().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(chain.converge_model_ms()[i], model_ms);
    EXPECT_GE(chain.converge_ms()[i], model_ms);
  }
  chain.finish();
  EXPECT_TRUE(chain.violations().empty()) << chain.violations().front();
}

TEST(ConvergeProbe, HighwayReusesThePluggedChannel) {
  expect_probe_model("highway", 0.2 + 2 * 2.0);
}

TEST(ConvergeProbe, SteeredHotPlugsANewChannel) {
  expect_probe_model("steered_zipf", 0.2 + 2 * 2.0 + 2 * (25.0 + 22.0));
}

}  // namespace
}  // namespace chainbench
