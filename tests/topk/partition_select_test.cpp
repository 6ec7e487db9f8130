#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"

namespace topk {
namespace {

using test::expect_correct;

TEST(QuickSelect, SortedInputDoesNotBreakMedianOfThree) {
  simgpu::Device dev;
  std::vector<float> asc(20000), desc(20000);
  for (std::size_t i = 0; i < asc.size(); ++i) {
    asc[i] = static_cast<float>(i);
    desc[i] = static_cast<float>(asc.size() - i);
  }
  expect_correct(dev, asc, 100, Algo::kQuickSelect);
  expect_correct(dev, desc, 100, Algo::kQuickSelect);
}

TEST(QuickSelect, PivotEqualsKthValue) {
  simgpu::Device dev;
  std::vector<float> values(9999, 7.0f);
  values[0] = 1.0f;
  values[1] = 2.0f;
  expect_correct(dev, values, 2, Algo::kQuickSelect);
  expect_correct(dev, values, 3, Algo::kQuickSelect);
  expect_correct(dev, values, 9999, Algo::kQuickSelect);
}

TEST(QuickSelect, HostRoundTripsEveryIteration) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 16, 21);
  dev.clear_events();
  (void)select(dev, values, 500, Algo::kQuickSelect);
  std::size_t d2h = 0;
  for (const auto& e : dev.events()) {
    if (const auto* m = std::get_if<simgpu::MemcpyEvent>(&e)) {
      d2h += (m->dir == simgpu::MemcpyEvent::Dir::kDeviceToHost) ? 1u : 0u;
    }
  }
  // At least a pivot probe and a counter readback per iteration.
  EXPECT_GE(d2h, 4u);
}

TEST(BucketSelect, NarrowValueRangeStillSplits) {
  // The radix-adversarial distribution is NOT adversarial for BucketSelect:
  // linear interpolation splits any min<max range.
  simgpu::Device dev;
  const auto values = data::radix_adversarial_values(1 << 16, 20, 3);
  expect_correct(dev, values, 1000, Algo::kBucketSelect);
}

TEST(BucketSelect, ExtremeOutliersCrowdTheBuckets) {
  // One huge outlier squeezes everything else into bucket 0; the algorithm
  // must keep iterating and still terminate correctly.
  simgpu::Device dev;
  auto values = data::uniform_values(50000, 9);
  values[12345] = 1e30f;
  values[321] = -1e30f;
  expect_correct(dev, values, 77, Algo::kBucketSelect);
}

TEST(BucketSelect, AllEqualCandidatesAfterFirstSplit) {
  simgpu::Device dev;
  std::vector<float> values(30000, 5.0f);
  for (std::size_t i = 0; i < 10; ++i) values[i * 7] = 1.0f;
  expect_correct(dev, values, 100, Algo::kBucketSelect);
}

TEST(BucketSelect, RejectsInfiniteKeysInBothOrders) {
  // An infinite min or max leaves the interpolation nothing to split, so the
  // row rejects the input instead of iterating forever.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const auto base = data::uniform_values(4096, 31);
  auto five_neg = base;
  auto five_pos = base;
  for (std::size_t i = 0; i < 5; ++i) {
    five_neg[i * 512] = -kInf;
    five_pos[i * 512 + 7] = kInf;
  }
  std::vector<float> all_pos_but_one(base.size(), kInf);
  all_pos_but_one[100] = 0.5f;
  for (const std::vector<float>* values : {&five_neg, &five_pos,
                                           &all_pos_but_one}) {
    for (const bool greatest : {false, true}) {
      simgpu::Device dev;
      SelectOptions opt;
      opt.greatest = greatest;
      try {
        (void)select(dev, *values, 32, Algo::kBucketSelect, opt);
        ADD_FAILURE() << "no throw, greatest=" << greatest;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("BucketSelect"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SampleSelect, DuplicateDominatedInputTriggersPivotFallback) {
  simgpu::Device dev;
  std::vector<float> values(50000, 3.0f);
  values[100] = 1.0f;
  values[200] = 2.0f;
  values[300] = 4.0f;
  expect_correct(dev, values, 50, Algo::kSampleSelect);
}

TEST(SampleSelect, SmallInputUsesOnChipSort) {
  simgpu::Device dev;
  const auto values = data::normal_values(3000, 17);
  expect_correct(dev, values, 123, Algo::kSampleSelect);
}

TEST(SampleSelect, UploadsSplittersOverPcie) {
  simgpu::Device dev;
  const auto values = data::uniform_values(1 << 17, 23);
  dev.clear_events();
  (void)select(dev, values, 100, Algo::kSampleSelect);
  bool h2d = false;
  for (const auto& e : dev.events()) {
    if (const auto* m = std::get_if<simgpu::MemcpyEvent>(&e)) {
      h2d |= (m->dir == simgpu::MemcpyEvent::Dir::kHostToDevice);
    }
  }
  EXPECT_TRUE(h2d) << "SampleSelect uploads splitters each level";
}

TEST(Sort, OutputIsFullySortedAscending) {
  // Unlike the selection methods, the sort baseline returns the top K in
  // ascending order; the benchmark relies only on set correctness but the
  // sort itself must be right.
  simgpu::Device dev;
  const auto values = data::normal_values(40000, 41);
  const SelectResult r = select(dev, values, 1000, Algo::kSort);
  EXPECT_TRUE(verify_topk(values, 1000, r).empty());
  for (std::size_t i = 1; i < r.values.size(); ++i) {
    EXPECT_LE(r.values[i - 1], r.values[i]) << i;
  }
}

TEST(Sort, StableOrderForEqualKeys) {
  // LSD radix sort with per-block sequential scatter must be stable: equal
  // values keep their original index order.
  simgpu::Device dev;
  std::vector<float> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i % 10);
  }
  const SelectResult r = select(dev, values, 3000, Algo::kSort);
  EXPECT_TRUE(verify_topk(values, 3000, r).empty());
  for (std::size_t i = 1; i < r.values.size(); ++i) {
    if (r.values[i - 1] == r.values[i]) {
      EXPECT_LT(r.indices[i - 1], r.indices[i]) << "instability at " << i;
    }
  }
}

TEST(Sort, TrafficScalesWithFullInputNotK) {
  simgpu::Device dev;
  const auto bytes_for = [&](std::size_t n, std::size_t k) {
    const auto values = data::uniform_values(n, 51);
    dev.clear_events();
    (void)select(dev, values, k, Algo::kSort);
    std::uint64_t bytes = 0;
    for (const auto& e : dev.events()) {
      if (const auto* ke = std::get_if<simgpu::KernelEvent>(&e)) {
        bytes += ke->stats.bytes_total();
      }
    }
    return bytes;
  };
  const auto small_k = bytes_for(1 << 16, 8);
  const auto large_k = bytes_for(1 << 16, 1 << 14);
  EXPECT_LT(static_cast<double>(large_k) / static_cast<double>(small_k), 1.2)
      << "sort cost must be K-oblivious";
  const auto big_n = bytes_for(1 << 17, 8);
  EXPECT_GT(static_cast<double>(big_n) / static_cast<double>(small_k), 1.8)
      << "sort cost must scale with N";
}

}  // namespace
}  // namespace topk
