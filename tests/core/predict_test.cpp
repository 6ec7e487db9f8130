// predict_us against the modeled time each kAuto candidate is actually
// charged: on uniform keys (the case the plans' expected costs describe)
// every candidate row must land within 25% of its measured modeled µs on
// every device spec of the calibration grid.

#include <cmath>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

namespace topk {
namespace {

struct SpecCase {
  const char* name;
  simgpu::DeviceSpec spec;
};

void PrintTo(const SpecCase& c, std::ostream* os) { *os << c.name; }

class PredictTest : public ::testing::TestWithParam<SpecCase> {};

/// Modeled µs of running `plan` on `data` (batch*n uniform keys).
double measured_us(const simgpu::DeviceSpec& spec, const ExecutionPlan& plan,
                   const std::vector<float>& data) {
  simgpu::Device dev(spec);
  simgpu::ScopedWorkspace scoped(dev);
  auto in = dev.alloc<float>(data.size());
  std::copy(data.begin(), data.end(), in.data());
  auto out_vals = dev.alloc<float>(plan.batch() * plan.k());
  auto out_idx = dev.alloc<std::uint32_t>(plan.batch() * plan.k());
  simgpu::Workspace ws(dev);
  dev.clear_events();
  run_select(dev, plan, ws, in, out_vals, out_idx);
  return simgpu::CostModel(spec).total_us(dev.events());
}

TEST_P(PredictTest, CandidatesWithinQuarterOfModeledOnUniformKeys) {
  const simgpu::DeviceSpec& spec = GetParam().spec;
  const std::vector<Algo> rows = {
      Algo::kFusedWarpRowwise, Algo::kFusedBlockRowwise, Algo::kGridSelect,
      Algo::kBlockSelect,      Algo::kAirTopk,           Algo::kRadixSelect,
      Algo::kBucketApprox};
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    for (const int log_n : {12, 16}) {
      const std::size_t n = std::size_t{1} << log_n;
      const auto data = data::uniform_values(batch * n, 0xCA1 + n + batch);
      for (const std::size_t k : {16, 256, 2048}) {
        for (const Algo algo : rows) {
          if (k > max_k(algo, n)) continue;
          SelectOptions opt;
          // The approximate tier races only below exact recall.
          if (algo == Algo::kBucketApprox) opt.recall_target = 0.9;
          const ExecutionPlan plan =
              plan_select(spec, batch, n, k, algo, opt);
          const double predicted = predict_us(plan, spec);
          const double measured = measured_us(spec, plan, data);
          EXPECT_NEAR(predicted / measured, 1.0, 0.25)
              << GetParam().name << " " << algo_key(algo) << " batch="
              << batch << " n=2^" << log_n << " k=" << k << ": predicted "
              << predicted << " us, modeled " << measured << " us";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, PredictTest,
    ::testing::Values(SpecCase{"A100", simgpu::DeviceSpec::a100()},
                      SpecCase{"H100", simgpu::DeviceSpec::h100()},
                      SpecCase{"A10", simgpu::DeviceSpec::a10()}),
    [](const ::testing::TestParamInfo<SpecCase>& info) {
      return std::string(info.param.name);
    });

TEST(Predict, ExpectedEventsMirrorTheHostRoundTrips) {
  // RadixSelect's host loop: every pass copies the histogram back, scans it
  // on the host and synchronizes; the expected events carry the same kinds.
  const simgpu::DeviceSpec spec;
  const ExecutionPlan plan = plan_select(spec, 2, 1 << 14, 64,
                                         Algo::kRadixSelect);
  std::size_t kernels = 0, copies = 0, syncs = 0, host = 0;
  for (const simgpu::Event& e : simgpu::expected_events(plan.schedule())) {
    kernels += std::holds_alternative<simgpu::KernelEvent>(e) ? 1 : 0;
    copies += std::holds_alternative<simgpu::MemcpyEvent>(e) ? 1 : 0;
    syncs += std::holds_alternative<simgpu::SyncEvent>(e) ? 1 : 0;
    host += std::holds_alternative<simgpu::HostComputeEvent>(e) ? 1 : 0;
  }
  EXPECT_GT(kernels, 0u);
  EXPECT_EQ(copies, host);     // one histogram copy + host scan per pass
  EXPECT_EQ(syncs, copies + 2);  // a check per pass + the final sync per row
  // AIR never leaves the device.
  const ExecutionPlan air =
      plan_select(spec, 2, 1 << 14, 64, Algo::kAirTopk);
  for (const simgpu::Event& e : simgpu::expected_events(air.schedule())) {
    EXPECT_TRUE(std::holds_alternative<simgpu::KernelEvent>(e));
  }
}

TEST(Predict, UnpricedRowsAreRejected) {
  const simgpu::DeviceSpec spec;
  const ExecutionPlan plan = plan_select(spec, 1, 4096, 16, Algo::kSort);
  EXPECT_FALSE(plan.schedule().priced);
  EXPECT_THROW((void)predict_us(plan, spec), std::invalid_argument);
}

TEST(Predict, RaceFollowsTheDeviceSpec) {
  // Each race entry is predict_us of that candidate's plan on the spec the
  // race was given, so the same shape prices differently per device.
  WorkloadHints hints;
  hints.batch = 100;
  std::vector<double> grid_us;
  for (const simgpu::DeviceSpec& spec :
       {simgpu::DeviceSpec::a100(), simgpu::DeviceSpec::a10()}) {
    const auto race = price_candidates(spec, 1 << 16, 2048, hints);
    ASSERT_FALSE(race.empty());
    for (const PricedAlgo& c : race) {
      const ExecutionPlan plan =
          plan_select(spec, hints.batch, 1 << 16, 2048, c.algo);
      EXPECT_DOUBLE_EQ(c.predicted_us, predict_us(plan, spec));
      if (c.algo == Algo::kGridSelect) grid_us.push_back(c.predicted_us);
    }
  }
  ASSERT_EQ(grid_us.size(), 2u);
  EXPECT_NE(grid_us[0], grid_us[1]);
  // The spec-less overload prices on DeviceSpec{}.
  EXPECT_EQ(recommend_algorithm(1 << 16, 256),
            recommend_algorithm(simgpu::DeviceSpec{}, 1 << 16, 256));
}

}  // namespace
}  // namespace topk
