// Batched-correctness sweep: every registry algorithm is driven through
// select_batch over a grid of serving-shaped micro-batches — the many-row /
// small-n regime the fused row-wise family targets — in both selection
// orders.  The single-problem matrix in all_algorithms_test covers depth in
// n and k; this sweep covers width in batch, where the row loop (or the
// fused single launch) is the code under test.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "topk/key_codec.hpp"
#include "topk/registry.hpp"

namespace topk {
namespace {

struct SweepCase {
  Algo algo;
  std::size_t batch;
  std::size_t n;
  std::size_t k;
  bool greatest;
};

std::string sweep_case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = algo_name(info.param.algo);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_b" + std::to_string(info.param.batch) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
         (info.param.greatest ? "_greatest" : "_least");
}

/// Per-row verification that honors the selection order: indices in range
/// and distinct, values faithful to data[index], and the selected value
/// multiset equal to the reference multiset under the requested comparator.
std::string verify_row(std::span<const float> row, std::size_t k,
                       bool greatest, const SelectResult& r) {
  if (r.values.size() != k || r.indices.size() != k) {
    return "result size mismatch";
  }
  std::vector<bool> seen(row.size(), false);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t idx = r.indices[i];
    if (idx >= row.size()) return "index out of range";
    if (seen[idx]) return "duplicate index";
    seen[idx] = true;
    if (row[idx] != r.values[i]) return "value does not match data[index]";
  }
  std::vector<float> want(row.begin(), row.end());
  if (greatest) {
    std::partial_sort(want.begin(), want.begin() + k, want.end(),
                      std::greater<>());
  } else {
    std::partial_sort(want.begin(), want.begin() + k, want.end());
  }
  want.resize(k);
  std::vector<float> got = r.values;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) return "selected multiset differs from reference";
  return {};
}

class BatchedSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BatchedSweep, EveryRowCorrectInBothOrders) {
  simgpu::Device dev;
  const auto [algo, batch, n, k, greatest] = GetParam();
  ASSERT_LE(k, max_k(algo, n)) << "bad test case";
  const auto values =
      data::uniform_values(batch * n, 0x5EED0000u + batch + n + k);
  SelectOptions opt;
  opt.greatest = greatest;
  const auto results = select_batch(dev, values, batch, n, k, algo, opt);
  ASSERT_EQ(results.size(), batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const float> row(values.data() + b * n, n);
    const std::string err = verify_row(row, k, greatest, results[b]);
    ASSERT_TRUE(err.empty()) << algo_name(algo) << " row " << b << " (batch="
                             << batch << ", n=" << n << ", k=" << k
                             << (greatest ? ", greatest" : ", least")
                             << "): " << err;
  }
}

std::vector<SweepCase> sweep_cases() {
  // batch=64 sweeps n across the fused-warp band and past it; batch=1000 is
  // pinned to the serving acceptance shape (n=2^12) so the whole sweep stays
  // inside CI budget.  k brackets the thread-queue regime.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {64, std::size_t{1} << 10},
      {64, std::size_t{1} << 12},
      {64, std::size_t{1} << 14},
      {1000, std::size_t{1} << 12},
  };
  std::vector<SweepCase> cases;
  for (Algo algo : all_algorithms()) {
    for (const auto& [batch, n] : shapes) {
      for (std::size_t k : {std::size_t{8}, std::size_t{64}}) {
        if (k > max_k(algo, n)) continue;
        for (bool greatest : {false, true}) {
          cases.push_back({algo, batch, n, k, greatest});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Registry, BatchedSweep,
                         ::testing::ValuesIn(sweep_cases()), sweep_case_name);

// ---- dtype x payload matrix -----------------------------------------------
// The same batched sweep through the typed entry points: every KeyType on a
// representative algorithm of each carrier family, with every PayloadKind
// (none / u32 / u64), verified per row in the key's ordinal domain.

struct TypedSweepCase {
  Algo algo;
  KeyType dtype;
  PayloadKind payload;  // kNone = no payload view passed
  std::size_t batch;
  std::size_t n;
  std::size_t k;
  bool greatest;
};

std::string typed_case_name(
    const ::testing::TestParamInfo<TypedSweepCase>& info) {
  std::string name = algo_name(info.param.algo) + "_" +
                     std::string(key_type_name(info.param.dtype));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const char* pay = info.param.payload == PayloadKind::kNone  ? "nopay"
                    : info.param.payload == PayloadKind::kU32 ? "pay32"
                                                              : "pay64";
  return name + "_" + pay + "_b" + std::to_string(info.param.batch) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
         (info.param.greatest ? "_greatest" : "_least");
}

/// 64-bit monotone ordinal of a key's storage bits, per dtype.
std::uint64_t bits_ordinal(KeyType t, std::uint32_t bits) {
  switch (t) {
    case KeyType::kF32:
      return RadixTraits<float>::to_radix(std::bit_cast<float>(bits));
    case KeyType::kF16:
      return RadixTraits<half>::to_radix(
          half::from_bits(static_cast<std::uint16_t>(bits)));
    case KeyType::kBF16:
      return RadixTraits<bf16>::to_radix(
          bf16::from_bits(static_cast<std::uint16_t>(bits)));
    case KeyType::kI32:
      return RadixTraits<std::int32_t>::to_radix(
          std::bit_cast<std::int32_t>(bits));
    case KeyType::kU32:
      return bits;
  }
  return 0;
}

class TypedBatchedSweep : public ::testing::TestWithParam<TypedSweepCase> {};

TEST_P(TypedBatchedSweep, EveryRowCorrectInOrdinalDomain) {
  simgpu::Device dev;
  const auto [algo, dtype, payload_kind, batch, n, k, greatest] = GetParam();
  const std::size_t total = batch * n;
  // Generate floats, then store per dtype; keep each key's storage bits.
  const auto values =
      data::uniform_values(total, 0x7E57u + total + k + (greatest ? 1 : 0));
  std::vector<half> f16;
  std::vector<bf16> b16;
  std::vector<std::int32_t> i32;
  std::vector<std::uint32_t> u32;
  std::vector<std::uint32_t> bits(total);
  KeyView kv;
  switch (dtype) {
    case KeyType::kF32:
      for (std::size_t i = 0; i < total; ++i) {
        bits[i] = std::bit_cast<std::uint32_t>(values[i]);
      }
      kv = KeyView::of(std::span<const float>(values));
      break;
    case KeyType::kF16:
      for (std::size_t i = 0; i < total; ++i) {
        f16.emplace_back(values[i]);
        bits[i] = f16.back().bits();
      }
      kv = KeyView::of(std::span<const half>(f16));
      break;
    case KeyType::kBF16:
      for (std::size_t i = 0; i < total; ++i) {
        b16.emplace_back(values[i]);
        bits[i] = b16.back().bits();
      }
      kv = KeyView::of(std::span<const bf16>(b16));
      break;
    case KeyType::kI32:
      for (std::size_t i = 0; i < total; ++i) {
        i32.push_back(
            static_cast<std::int32_t>(std::bit_cast<std::uint32_t>(values[i])));
        bits[i] = std::bit_cast<std::uint32_t>(i32.back());
      }
      kv = KeyView::of(std::span<const std::int32_t>(i32));
      break;
    case KeyType::kU32:
      for (std::size_t i = 0; i < total; ++i) {
        u32.push_back(std::bit_cast<std::uint32_t>(values[i]));
        bits[i] = u32.back();
      }
      kv = KeyView::of(std::span<const std::uint32_t>(u32));
      break;
  }
  std::vector<std::uint32_t> pay32;
  std::vector<std::uint64_t> pay64;
  PayloadView pv;
  if (payload_kind == PayloadKind::kU32) {
    pay32.resize(total);
    for (std::size_t i = 0; i < total; ++i) {
      pay32[i] = static_cast<std::uint32_t>(i * 7 + 3);
    }
    pv = PayloadView::of(std::span<const std::uint32_t>(pay32));
  } else if (payload_kind == PayloadKind::kU64) {
    pay64.resize(total);
    for (std::size_t i = 0; i < total; ++i) {
      pay64[i] = (static_cast<std::uint64_t>(i) << 33) | 1u;
    }
    pv = PayloadView::of(std::span<const std::uint64_t>(pay64));
  }

  SelectOptions opt;
  opt.greatest = greatest;
  const auto results = select_batch(dev, kv, batch, n, k, algo, opt, pv);
  ASSERT_EQ(results.size(), batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const SelectResult& r = results[b];
    ASSERT_EQ(r.dtype, dtype);
    ASSERT_EQ(r.indices.size(), k);
    std::vector<bool> seen(n, false);
    std::vector<std::uint64_t> got(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t idx = r.indices[i];
      ASSERT_LT(idx, n) << "row " << b;
      ASSERT_FALSE(seen[idx]) << "row " << b << ": duplicate index";
      seen[idx] = true;
      const std::uint32_t rb = dtype == KeyType::kF32
                                   ? std::bit_cast<std::uint32_t>(r.values[i])
                                   : r.values_bits[i];
      ASSERT_EQ(rb, bits[b * n + idx]) << "row " << b << " position " << i;
      got[i] = bits_ordinal(dtype, rb);
      if (payload_kind == PayloadKind::kU32) {
        ASSERT_EQ(r.payload[i], pay32[b * n + idx]) << "row " << b;
      } else if (payload_kind == PayloadKind::kU64) {
        ASSERT_EQ(r.payload[i], pay64[b * n + idx]) << "row " << b;
      } else {
        ASSERT_TRUE(r.payload.empty()) << "row " << b;
      }
    }
    std::vector<std::uint64_t> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = bits_ordinal(dtype, bits[b * n + i]);
    }
    if (greatest) {
      std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                       want.end(), std::greater<>());
    } else {
      std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                       want.end());
    }
    want.resize(k);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "row " << b << ": ordinal multiset differs";
  }
}

std::vector<TypedSweepCase> typed_sweep_cases() {
  // One algorithm per execution family runs the full shape x payload matrix:
  // radixselect runs both carriers, air covers the iteration-fused path,
  // fused-warp the single-launch row-wise path (float family only by its
  // dtype mask).  Every other concrete registry row, ablations included,
  // runs one shape without payload on each dtype its mask declares, so
  // every i32/u32-capable row executes on the u32 carrier via run_select.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {16, std::size_t{1} << 10},
      {64, std::size_t{1} << 12},
  };
  const std::vector<PayloadKind> payloads = {
      PayloadKind::kNone, PayloadKind::kU32, PayloadKind::kU64};
  const std::vector<std::pair<std::size_t, std::size_t>> one_shape = {
      shapes.front()};
  const std::vector<PayloadKind> no_payload = {PayloadKind::kNone};
  std::vector<TypedSweepCase> cases;
  for (const AlgoRow& row : kAlgoTable) {
    if (row.plan == nullptr) continue;  // kAuto resolves to a concrete row
    const bool full_matrix = row.algo == Algo::kRadixSelect ||
                             row.algo == Algo::kAirTopk ||
                             row.algo == Algo::kFusedWarpRowwise;
    for (std::size_t ti = 0; ti < kNumKeyTypes; ++ti) {
      const auto dtype = static_cast<KeyType>(ti);
      if (!algo_supports_dtype(row.algo, dtype)) continue;
      for (const PayloadKind pk : full_matrix ? payloads : no_payload) {
        for (const auto& [batch, n] : full_matrix ? shapes : one_shape) {
          for (const bool greatest : {false, true}) {
            cases.push_back({row.algo, dtype, pk, batch, n, 32, greatest});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DtypePayloadMatrix, TypedBatchedSweep,
                         ::testing::ValuesIn(typed_sweep_cases()),
                         typed_case_name);

}  // namespace
}  // namespace topk
