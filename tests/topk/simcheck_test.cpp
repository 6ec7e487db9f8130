// The topk_simcheck driver: every algorithm, on every standard distribution,
// over an (N, K) grid, with the simcheck sanitizer fully enabled — asserting
// both correct results and a clean report (zero false positives from real
// kernels), plus the TOPK_SIMCHECK env-toggle plumbing.

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"

namespace topk {
namespace {

using test::standard_distributions;

struct GridCase {
  Algo algo;
  std::size_t n;
  std::size_t k;
};

std::string grid_case_name(const ::testing::TestParamInfo<GridCase>& info) {
  std::string name = algo_name(info.param.algo);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_n" + std::to_string(info.param.n) + "_k" +
         std::to_string(info.param.k);
}

class SimcheckMatrix : public ::testing::TestWithParam<GridCase> {};

TEST_P(SimcheckMatrix, CleanAndCorrectUnderFullChecking) {
  const auto [algo, n, k] = GetParam();
  std::uint64_t seed = 4242;
  for (const auto& spec : standard_distributions()) {
    simgpu::Device dev;
    dev.enable_sanitizer();
    const auto values = data::generate(spec, n, seed++);
    const SelectResult r = select(dev, values, k, algo);
    const std::string err = verify_topk(values, k, r);
    EXPECT_TRUE(err.empty())
        << algo_name(algo) << " on " << spec.name() << ": " << err;
    const auto rep = dev.sanitizer()->snapshot();
    EXPECT_TRUE(rep.clean()) << algo_name(algo) << " on " << spec.name()
                             << " raised issues:\n"
                             << rep.to_string();
  }
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (Algo algo : all_algorithms()) {
    for (const auto& [n, k] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1},
             {33, 4},
             {1000, 100},
             {4096, 256},
             {65536, 512},
         }) {
      if (k > max_k(algo, n)) continue;
      cases.push_back({algo, n, k});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, SimcheckMatrix,
                         ::testing::ValuesIn(grid_cases()), grid_case_name);

TEST(Simcheck, BatchedSelectionIsCleanUnderChecking) {
  for (Algo algo : {Algo::kAirTopk, Algo::kGridSelect, Algo::kRadixSelect}) {
    simgpu::Device dev;
    dev.enable_sanitizer();
    const std::size_t batch = 4, n = 2000, k = 32;
    const auto values = data::normal_values(batch * n, 99);
    const auto results = select_batch(dev, values, batch, n, k, algo);
    ASSERT_EQ(results.size(), batch);
    EXPECT_TRUE(dev.sanitizer()->snapshot().clean())
        << algo_name(algo) << ":\n" << dev.sanitizer()->snapshot().to_string();
  }
}

// ---------------------------------------------------------------------------
// TOPK_SIMCHECK environment toggle, through both select() entry points: the
// float overload and the typed KeyView overload share one simcheck guard.

using SelectEntry = SelectResult (*)(simgpu::Device&, std::span<const float>,
                                     std::size_t, Algo);

struct NamedEntry {
  const char* name;
  SelectEntry run;
};

constexpr NamedEntry kSelectEntries[] = {
    {"select(span<const float>)",
     [](simgpu::Device& dev, std::span<const float> keys, std::size_t k,
        Algo algo) { return select(dev, keys, k, algo); }},
    {"select(KeyView)",
     [](simgpu::Device& dev, std::span<const float> keys, std::size_t k,
        Algo algo) { return select(dev, KeyView::of(keys), k, algo); }},
};

class SimcheckEnv : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("TOPK_SIMCHECK"); }
};

TEST_F(SimcheckEnv, UnsetAndZeroLeaveTheSanitizerOff) {
  ::unsetenv("TOPK_SIMCHECK");
  EXPECT_FALSE(simcheck_env_enabled());
  ::setenv("TOPK_SIMCHECK", "0", 1);
  EXPECT_FALSE(simcheck_env_enabled());
  ::setenv("TOPK_SIMCHECK", "", 1);
  EXPECT_FALSE(simcheck_env_enabled());

  const auto values = data::uniform_values(1000, 5);
  for (const NamedEntry& entry : kSelectEntries) {
    SCOPED_TRACE(entry.name);
    simgpu::Device dev;
    (void)entry.run(dev, values, 10, Algo::kAirTopk);
    EXPECT_EQ(dev.sanitizer(), nullptr);
  }
}

TEST_F(SimcheckEnv, SetEnablesTheSanitizerOnTheDevice) {
  ::setenv("TOPK_SIMCHECK", "1", 1);
  EXPECT_TRUE(simcheck_env_enabled());

  const auto values = data::uniform_values(1000, 6);
  for (const NamedEntry& entry : kSelectEntries) {
    SCOPED_TRACE(entry.name);
    simgpu::Device dev;
    const SelectResult r = entry.run(dev, values, 10, Algo::kGridSelect);
    EXPECT_TRUE(verify_topk(values, 10, r).empty());
    ASSERT_NE(dev.sanitizer(), nullptr);
    EXPECT_TRUE(dev.sanitizer()->snapshot().clean());
  }
}

TEST_F(SimcheckEnv, PreexistingIssuesDoNotAbortALaterSelection) {
  ::setenv("TOPK_SIMCHECK", "1", 1);
  const auto values = data::uniform_values(1000, 7);
  for (const NamedEntry& entry : kSelectEntries) {
    SCOPED_TRACE(entry.name);
    simgpu::Device dev;
    dev.enable_sanitizer();
    // Seed a report entry before the selection; select() must only abort on
    // issues raised by its own launches.
    auto tiny = dev.alloc_zero<float>(2, "tiny");
    simgpu::launch(dev, {"seed issue", 1, 32},
                   [&](simgpu::BlockCtx& ctx) { ctx.store(tiny, 5, 0.0f); });
    ASSERT_EQ(dev.sanitizer()->issue_count(), 1u);
    EXPECT_NO_THROW((void)entry.run(dev, values, 10, Algo::kAirTopk));
  }
}

TEST_F(SimcheckEnv, KeysAreBoundInPlaceUnlessTheSanitizerWatches) {
  // Without a sanitizer the kernels read the caller's keys where they are;
  // with one, the keys are copied into a device allocation the shadow knows.
  const std::size_t n = std::size_t{1} << 16;
  const auto values = data::uniform_values(n, 8);
  const std::size_t input_bytes = n * sizeof(float);
  for (const NamedEntry& entry : kSelectEntries) {
    SCOPED_TRACE(entry.name);
    ::unsetenv("TOPK_SIMCHECK");
    simgpu::Device in_place;
    const SelectResult a = entry.run(in_place, values, 32, Algo::kGridSelect);
    EXPECT_TRUE(verify_topk(values, 32, a).empty());
    EXPECT_LT(in_place.peak_live_bytes(), input_bytes);

    ::setenv("TOPK_SIMCHECK", "1", 1);
    simgpu::Device watched;
    const SelectResult b = entry.run(watched, values, 32, Algo::kGridSelect);
    EXPECT_TRUE(verify_topk(values, 32, b).empty());
    EXPECT_GE(watched.peak_live_bytes(), input_bytes);
  }
}

TEST_F(SimcheckEnv, GuardIsANoOpWithoutTheEnvOrASanitizer) {
  ::unsetenv("TOPK_SIMCHECK");
  simgpu::Device dev;
  const SimcheckGuard guard(dev);
  EXPECT_EQ(guard.sanitizer(), nullptr);
  EXPECT_EQ(dev.sanitizer(), nullptr);
  EXPECT_NO_THROW(guard.check(Algo::kAirTopk));
}

TEST_F(SimcheckEnv, GuardAttachesTheSanitizerBeforeTheRunsIo) {
  ::setenv("TOPK_SIMCHECK", "1", 1);
  simgpu::Device dev;
  const SimcheckGuard guard(dev);
  ASSERT_NE(guard.sanitizer(), nullptr);
  EXPECT_EQ(guard.sanitizer(), dev.sanitizer());
  // IO allocated after the guard opened is known to the shadow, so an
  // out-of-bounds store into it is attributed to this run.
  auto io = dev.alloc_zero<float>(2, "guarded io");
  EXPECT_NO_THROW(guard.check(Algo::kGridSelect));
  simgpu::launch(dev, {"oob kernel", 1, 32},
                 [&](simgpu::BlockCtx& ctx) { ctx.store(io, 7, 0.0f); });
  try {
    guard.check(Algo::kGridSelect);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(algo_name(Algo::kGridSelect)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("guarded io"), std::string::npos) << msg;
  }
}

TEST_F(SimcheckEnv, GuardChecksOnlyIssuesRaisedSinceItOpened) {
  // A sanitizer attached by hand is used even with the env unset; the guard
  // counts only the findings of its own run.
  ::unsetenv("TOPK_SIMCHECK");
  simgpu::Device dev;
  dev.enable_sanitizer();
  auto tiny = dev.alloc_zero<float>(2, "tiny");
  simgpu::launch(dev, {"earlier kernel", 1, 32},
                 [&](simgpu::BlockCtx& ctx) { ctx.store(tiny, 5, 0.0f); });
  ASSERT_EQ(dev.sanitizer()->issue_count(), 1u);

  const SimcheckGuard guard(dev);
  EXPECT_EQ(guard.sanitizer(), dev.sanitizer());
  EXPECT_NO_THROW(guard.check(Algo::kAirTopk));
  simgpu::launch(dev, {"later kernel", 1, 32},
                 [&](simgpu::BlockCtx& ctx) { ctx.store(tiny, 6, 0.0f); });
  EXPECT_THROW(guard.check(Algo::kAirTopk), std::runtime_error);
  const SimcheckGuard reopened(dev);
  EXPECT_NO_THROW(reopened.check(Algo::kAirTopk));
}

TEST(Simcheck, ThrowOnNewIssuesFormatsTheReport) {
  simgpu::Device dev;
  dev.enable_sanitizer();
  auto tiny = dev.alloc_zero<float>(2, "tiny buffer");
  simgpu::launch(dev, {"buggy kernel", 1, 32},
                 [&](simgpu::BlockCtx& ctx) { ctx.store(tiny, 9, 0.0f); });
  const simgpu::Sanitizer& san = *dev.sanitizer();
  ASSERT_EQ(san.issue_count(), 1u);

  // No new issues past the snapshot: no throw.
  EXPECT_NO_THROW(throw_if_new_issues(san, 1, Algo::kAirTopk));

  // New issues: runtime_error carrying the formatted findings.
  try {
    throw_if_new_issues(san, 0, Algo::kAirTopk);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simcheck"), std::string::npos) << msg;
    EXPECT_NE(msg.find("buggy kernel"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tiny buffer"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace topk
