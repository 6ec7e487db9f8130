// Sharded multi-device top-K: coordinator correctness across shard counts,
// algorithms, tie/duplicate boundary cases, capacity validation, the serve
// integration (auto-engage + hints), and static auditability of the plans a
// sharded query executes.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "simgpu/simgpu.hpp"
#include "verify/plan_audit.hpp"

namespace topk {
namespace {

std::vector<float> uniform_data(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1000.f, 1000.f);
  std::vector<float> data(n);
  for (auto& v : data) v = dist(rng);
  return data;
}

/// Exact check of a sharded result: indices valid and distinct, values match
/// data[index], and the value multiset equals the host reference's top-k
/// multiset (ties make the index set non-unique, the multiset is the
/// contract).
void expect_exact(std::span<const float> data, std::size_t k, bool greatest,
                  const SelectResult& r) {
  ASSERT_EQ(r.values.size(), k);
  ASSERT_EQ(r.indices.size(), k);
  std::vector<std::uint32_t> seen(r.indices.begin(), r.indices.end());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "duplicate index in result";
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_LT(r.indices[i], data.size());
    EXPECT_EQ(data[r.indices[i]], r.values[i]) << "index " << i;
  }
  std::vector<float> ref(data.begin(), data.end());
  if (greatest) {
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k) - 1,
                     ref.end(), std::greater<float>());
  } else {
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k) - 1,
                     ref.end());
  }
  std::vector<float> expect(ref.begin(), ref.begin() + static_cast<long>(k));
  std::vector<float> got(r.values.begin(), r.values.end());
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------------------
// Fixed-seed sweep: shard counts x registry algorithms x least/greatest.
// ---------------------------------------------------------------------------

TEST(ShardSweep, AllAlgorithmsAllShardCounts) {
  const std::size_t n = std::size_t{1} << 16;
  const std::size_t k = 100;
  const std::vector<float> data = uniform_data(n, 1234);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{7}}) {
    const std::size_t n_shard = (n + shards - 1) / shards;
    for (const Algo algo : all_algorithms()) {
      if (algo == Algo::kAuto) continue;
      if (k > max_k(algo, n_shard)) continue;
      for (const bool greatest : {false, true}) {
        shard::ShardConfig cfg;
        cfg.devices = 4;
        cfg.shards = shards;
        cfg.algo = algo;
        cfg.options.greatest = greatest;
        const shard::ShardedResult res = shard::sharded_select(data, k, cfg);
        EXPECT_EQ(res.shards, shards);
        EXPECT_EQ(res.shard_algo, algo);
        SCOPED_TRACE(algo_name(algo) + (greatest ? " greatest" : " least") +
                     " shards=" + std::to_string(shards));
        expect_exact(data, k, greatest, res.topk);
      }
    }
  }
}

TEST(ShardSweep, SortedResultsAreBestFirst) {
  const std::vector<float> data = uniform_data(std::size_t{1} << 15, 77);
  for (const bool greatest : {false, true}) {
    shard::ShardConfig cfg;
    cfg.shards = 4;
    cfg.options.greatest = greatest;
    cfg.options.sorted = true;
    const shard::ShardedResult res = shard::sharded_select(data, 64, cfg);
    for (std::size_t i = 1; i < res.topk.values.size(); ++i) {
      if (greatest) {
        EXPECT_GE(res.topk.values[i - 1], res.topk.values[i]);
      } else {
        EXPECT_LE(res.topk.values[i - 1], res.topk.values[i]);
      }
    }
    expect_exact(data, 64, greatest, res.topk);
  }
}

// Duplicate runs deliberately straddling every shard boundary: the global
// top-k is a multiset cut through a tie class, and every shard contributes
// candidates from it.
TEST(ShardSweep, TiesStraddlingShardBoundaries) {
  const std::size_t n = 10007;  // prime: no boundary aligns with the pattern
  const std::size_t k = 64;
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(i % 3);  // huge tie classes 0, 1, 2
  }
  for (const std::size_t shards :
       {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    for (const bool greatest : {false, true}) {
      shard::ShardConfig cfg;
      cfg.shards = shards;
      cfg.options.greatest = greatest;
      const shard::ShardedResult res = shard::sharded_select(data, k, cfg);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   (greatest ? " greatest" : " least"));
      expect_exact(data, k, greatest, res.topk);
    }
  }
}

TEST(ShardSweep, KEqualsShardCapacityEdge) {
  // k equal to a whole shard: max_shards clamps so every shard still holds
  // >= k keys.
  const std::size_t n = 4096, k = 1024;
  const std::vector<float> data = uniform_data(n, 9);
  shard::ShardConfig cfg;
  cfg.shards = 64;  // infeasible; must clamp to n / k = 4
  const shard::ShardedResult res = shard::sharded_select(data, k, cfg);
  EXPECT_LE(res.shards, shard::max_shards(n, k));
  expect_exact(data, k, false, res.topk);
}

TEST(ShardSweep, PlanCacheReusedAcrossQueries) {
  shard::ShardConfig cfg;
  cfg.shards = 4;
  shard::Coordinator coord(cfg);
  const std::vector<float> data = uniform_data(std::size_t{1} << 14, 5);
  const shard::ShardedResult a = coord.select(data, 32);
  const std::size_t misses_after_first = coord.plan_cache_misses();
  const shard::ShardedResult b = coord.select(data, 32);
  EXPECT_EQ(coord.plan_cache_misses(), misses_after_first)
      << "second identical query must be all plan-cache hits";
  EXPECT_GT(coord.plan_cache_hits(), std::size_t{0});
  EXPECT_EQ(a.topk.values, b.topk.values);
  EXPECT_EQ(a.topk.indices, b.topk.indices);
}

// ---------------------------------------------------------------------------
// Capacity validation: the single-device path rejects oversized rows with a
// message pointing at the sharded path, which accepts them.
// ---------------------------------------------------------------------------

TEST(ShardCapacity, SingleDeviceRejectsOversizedSharedAccepts) {
  simgpu::DeviceSpec spec;
  spec.max_select_elems = std::size_t{1} << 12;
  const std::size_t n = std::size_t{1} << 13;
  const std::vector<float> data = uniform_data(n, 21);

  simgpu::Device dev(spec);
  try {
    (void)select(dev, data, 16, Algo::kAuto);
    FAIL() << "select() must reject n beyond max_select_elems";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos)
        << "rejection must name the sharded path: " << e.what();
  }

  shard::ShardConfig cfg;
  cfg.device_spec = spec;
  const shard::ShardedResult res = shard::sharded_select(data, 16, cfg);
  EXPECT_GE(res.shards, shard::min_shards(n, spec));
  expect_exact(data, 16, false, res.topk);
}

TEST(ShardCapacity, MergeCandidateLimitIsEnforced) {
  const std::vector<float> data = uniform_data(std::size_t{1} << 13, 3);
  try {
    (void)shard::sharded_select(data, 3000, {});
    FAIL() << "k beyond the merge candidate limit must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("candidate-list limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardCapacity, InfeasibleShardIntervalThrows) {
  // k so large that a device-sized shard cannot hold it.
  simgpu::DeviceSpec spec;
  spec.max_select_elems = 1024;
  const std::vector<float> data = uniform_data(8192, 4);
  shard::ShardConfig cfg;
  cfg.device_spec = spec;
  EXPECT_THROW((void)shard::sharded_select(data, 2048, cfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard-count recommendation.
// ---------------------------------------------------------------------------

TEST(ShardRecommend, FloorAndCeiling) {
  simgpu::DeviceSpec spec;
  spec.max_select_elems = std::size_t{1} << 22;
  EXPECT_EQ(shard::min_shards(std::size_t{1} << 26, spec), std::size_t{16});
  EXPECT_EQ(shard::min_shards(std::size_t{1} << 20, spec), std::size_t{1});
  EXPECT_EQ(shard::max_shards(1000, 100), std::size_t{10});

  const std::size_t rec =
      shard::recommend_shards(std::size_t{1} << 26, 256, 4, spec);
  EXPECT_GE(rec, std::size_t{16}) << "must at least satisfy the capacity floor";
  EXPECT_LE(rec, shard::max_shards(std::size_t{1} << 26, 256));
}

TEST(ShardRecommend, SmallQueriesStayUnsharded) {
  const simgpu::DeviceSpec spec;  // default: no capacity pressure
  EXPECT_EQ(shard::recommend_shards(std::size_t{1} << 12, 16, 4, spec),
            std::size_t{1})
      << "a tiny row must not pay gather + merge overhead";
}

TEST(ShardRecommend, ShardedCostRaceSpeedsUpLargeQueries) {
  // Modeled 4-shard time at a large shape must beat the 1-shard candidate;
  // the recommender's cost race depends on this ordering.  The shape must
  // be big enough that the per-shard kernel savings clear the fixed PCIe /
  // merge floor (~45us under the default spec) — 2^26 is the acceptance
  // shape, 2^24 sits too close to the floor for a 4x split to pay off.
  const simgpu::DeviceSpec spec;
  const std::size_t n = std::size_t{1} << 26, k = 256;
  const double t1 = shard::estimated_sharded_cost_us(Algo::kAuto, 1, 4, n, k,
                                                     spec);
  const double t4 = shard::estimated_sharded_cost_us(Algo::kAuto, 4, 4, n, k,
                                                     spec);
  EXPECT_LT(t4, t1);
}

TEST(ShardRecommend, HintedRecommendationUsesPerShardShape) {
  // recommend_algorithm with a shard hint evaluates the per-shard length.
  WorkloadHints hints;
  hints.shards = 16;
  const Algo sharded = recommend_algorithm(std::size_t{1} << 26, 64, hints);
  const Algo direct = recommend_algorithm(std::size_t{1} << 22, 64, {});
  EXPECT_EQ(sharded, direct);
  WorkloadHints infeasible;
  infeasible.shards = 4;
  EXPECT_THROW((void)recommend_algorithm(1024, 512, infeasible),
               std::invalid_argument)
      << "k beyond the per-shard length must be rejected";
}

TEST(ShardRecommend, AutoResolvesOneRowAcrossCostPlanAndCoordinator) {
  // kAuto for S shards is the row recommend_algorithm picks at the per-shard
  // length, whether the cost estimate, the planner or the coordinator asks.
  const simgpu::DeviceSpec spec;
  const std::size_t n = std::size_t{1} << 15, k = 64;
  const std::vector<float> data = uniform_data(n, 31);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    WorkloadHints hints;
    hints.shards = shards;
    const Algo expected = recommend_algorithm(spec, n, k, hints);
    EXPECT_EQ(shard::estimated_sharded_cost_us(Algo::kAuto, shards, 4, n, k,
                                               spec),
              shard::estimated_sharded_cost_us(expected, shards, 4, n, k,
                                               spec));
    EXPECT_EQ(shard::plan_sharded(spec, n, k, shards, Algo::kAuto).shard_algo,
              expected);
    shard::ShardConfig cfg;
    cfg.device_spec = spec;
    cfg.shards = shards;
    shard::Coordinator coord(cfg);
    const shard::ShardedResult res = coord.select(data, k);
    EXPECT_EQ(res.shard_algo, expected);
    expect_exact(data, k, false, res.topk);
  }
}

TEST(ShardRecommend, ConcreteAlgoPassesThroughEveryEntryPoint) {
  const simgpu::DeviceSpec spec;
  const std::size_t n = std::size_t{1} << 14, k = 32;
  const std::vector<float> data = uniform_data(n, 32);
  EXPECT_EQ(
      shard::plan_sharded(spec, n, k, 4, Algo::kBlockSelect).shard_algo,
      Algo::kBlockSelect);

  shard::ShardConfig cfg;
  cfg.shards = 4;
  cfg.algo = Algo::kAirTopk;
  shard::Coordinator coord(cfg);
  // A kAuto query takes the configured row; a concrete query overrides it.
  const shard::ShardedResult from_cfg = coord.select(data, k);
  EXPECT_EQ(from_cfg.shard_algo, Algo::kAirTopk);
  expect_exact(data, k, false, from_cfg.topk);
  const shard::ShardedResult overridden =
      coord.select(data, k, 0, Algo::kGridSelect);
  EXPECT_EQ(overridden.shard_algo, Algo::kGridSelect);
  expect_exact(data, k, false, overridden.topk);
}

// ---------------------------------------------------------------------------
// Modeled scale-out: with a pool of 4 devices, 4 shards must be markedly
// faster than 1 shard in modeled time (deterministic, not wall clock).
// ---------------------------------------------------------------------------

TEST(ShardScaling, FourShardsBeatOneShardInModeledTime) {
  // The acceptance shape: N = 2^26 over a 4-device pool.  4 shards must
  // deliver near-linear scaling (>= 2.8x) over the 1-shard baseline in
  // modeled time, and the cross-shard merge (candidate H2D + merge
  // kernels) must stay under 10% of the sharded total.  Scaling is measured
  // for one fixed per-shard algorithm, AIR Top-K; kAuto may pick a faster
  // one per shape, which must not be slower than that.
  const std::size_t n = std::size_t{1} << 26, k = 256;
  const std::vector<float> data = uniform_data(n, 11);

  shard::ShardConfig cfg1;
  cfg1.devices = 4;
  cfg1.shards = 1;
  cfg1.algo = Algo::kAirTopk;
  const double t1 = shard::sharded_select(data, k, cfg1).timing.total_us;

  shard::ShardConfig cfg4;
  cfg4.devices = 4;
  cfg4.shards = 4;
  cfg4.algo = Algo::kAirTopk;
  const shard::ShardedResult r4 = shard::sharded_select(data, k, cfg4);
  shard::ShardConfig auto4 = cfg4;
  auto4.algo = Algo::kAuto;
  EXPECT_LE(shard::sharded_select(data, k, auto4).timing.total_us,
            r4.timing.total_us);
  EXPECT_EQ(r4.devices, std::size_t{4});
  EXPECT_GE(t1 / r4.timing.total_us, 2.8)
      << "t1=" << t1 << "us t4=" << r4.timing.total_us << "us";
  EXPECT_LT(r4.timing.merge_us, r4.timing.total_us * 0.10)
      << "merge overhead must stay under 10% (merge=" << r4.timing.merge_us
      << "us total=" << r4.timing.total_us << "us)";
  const double phase_sum = r4.timing.select_us + r4.timing.gather_us +
                           r4.timing.merge_us + r4.timing.output_us;
  EXPECT_DOUBLE_EQ(r4.timing.total_us, phase_sum)
      << "phase attribution must cover the total";
}

// ---------------------------------------------------------------------------
// Serving integration: hints and the capacity auto-engage.
// ---------------------------------------------------------------------------

TEST(ShardServe, HintRoutesThroughShardedPath) {
  serve::ServiceConfig cfg;
  cfg.shard_devices = 4;
  serve::TopkService svc(cfg);
  WorkloadHints hints;
  hints.shards = 3;
  std::vector<float> keys = uniform_data(std::size_t{1} << 14, 31);
  const std::vector<float> copy = keys;
  auto fut = svc.submit(std::move(keys), 32, std::nullopt, std::nullopt,
                        hints);
  const serve::QueryResult qr = fut.get();
  ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
  EXPECT_EQ(qr.shards, std::size_t{3});
  EXPECT_GT(qr.device_us, 0.0);
  expect_exact(copy, 32, false, qr.topk);
  svc.shutdown();
  const serve::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sharded_queries, std::uint64_t{1});
  EXPECT_GT(stats.sharded_device_us, 0.0);
}

TEST(ShardServe, OversizedRowAutoEngagesSharding) {
  serve::ServiceConfig cfg;
  cfg.device_spec.max_select_elems = std::size_t{1} << 14;
  cfg.shard_devices = 4;
  serve::TopkService svc(cfg);
  const std::size_t n = std::size_t{1} << 16;  // 4x the per-device ceiling
  std::vector<float> keys = uniform_data(n, 13);
  const std::vector<float> copy = keys;
  auto fut = svc.submit(std::move(keys), 50);  // no hints at all
  const serve::QueryResult qr = fut.get();
  ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
  EXPECT_GE(qr.shards, std::size_t{4})
      << "row must be split at least to the capacity floor";
  expect_exact(copy, 50, false, qr.topk);
}

TEST(ShardServe, UnservableShardedRequestFailsGracefully) {
  serve::ServiceConfig cfg;
  cfg.device_spec.max_select_elems = std::size_t{1} << 10;
  serve::TopkService svc(cfg);
  // k cannot fit any device-sized shard: the future must resolve kFailed
  // (not hang, not crash) with the coordinator's diagnostic.
  std::vector<float> keys = uniform_data(std::size_t{1} << 12, 17);
  auto fut = svc.submit(std::move(keys), 2000);
  const serve::QueryResult qr = fut.get();
  EXPECT_EQ(qr.status, serve::QueryStatus::kFailed);
  EXPECT_FALSE(qr.error.empty());
}

// The acceptance shape: one N = 2^26 query on devices capped at 2^22 keys —
// never servable single-device — completes through topk::serve, exact
// against the host reference.
TEST(ShardServe, AcceptanceN26OnCappedDevices) {
  serve::ServiceConfig cfg;
  cfg.device_spec.max_select_elems = std::size_t{1} << 22;
  cfg.shard_devices = 4;
  serve::TopkService svc(cfg);
  const std::size_t n = std::size_t{1} << 26, k = 64;
  std::vector<float> keys = uniform_data(n, 42);
  const std::vector<float> copy = keys;
  auto fut = svc.submit(std::move(keys), k);
  const serve::QueryResult qr = fut.get();
  ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
  EXPECT_GE(qr.shards, std::size_t{16});
  expect_exact(copy, k, false, qr.topk);
}

// ---------------------------------------------------------------------------
// Static auditability: every plan a sharded query executes walks the same
// auditor that gates single-device plans, and walks it clean.
// ---------------------------------------------------------------------------

TEST(ShardAudit, ShardedPlansAuditClean) {
  simgpu::DeviceSpec spec;
  spec.max_select_elems = std::size_t{1} << 22;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{16}}) {
    const shard::ShardedPlan sp = shard::plan_sharded(
        spec, std::size_t{1} << 26, 256, shards, Algo::kAuto);
    EXPECT_GE(sp.shards, std::size_t{16});
    ASSERT_FALSE(sp.plans.empty());
    bool saw_merge = false;
    for (const auto& [label, plan] : sp.plans) {
      const verify::AuditReport report = verify::audit_plan(plan);
      EXPECT_TRUE(report.clean()) << label << ": " << verify::to_json(report);
      saw_merge = saw_merge || label.find("merge") != std::string::npos;
    }
    EXPECT_TRUE(saw_merge) << "multi-shard plan set must include the merge";
  }
}

}  // namespace
}  // namespace topk
