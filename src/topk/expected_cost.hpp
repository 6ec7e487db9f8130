#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simgpu/event.hpp"
#include "simgpu/kernel.hpp"
#include "topk/bitonic.hpp"
#include "topk/partial_sort_common.hpp"

/// Expected-case kernel charges on uniform random input, for the plan
/// functions that price their KernelSchedule (predict_us).
///
/// Data-oblivious charges (input sweeps, output writes, merge networks) are
/// exact closed forms of the launch shape, built from the same helpers the
/// kernels charge with (bitonic_sort_ops, merge_prune_ops,
/// kEmptyRoundLaneOps, thread_queue_len).  The one data-dependent quantity
/// of the queue engines — how many elements beat the list threshold — is
/// the classic expectation for an iid stream: every element is a candidate
/// while the list fills, and afterwards the threshold sits at the k-th
/// order statistic of the prefix merged so far, so the candidate rate at
/// stream position i is k / i between flushes.  Radix survivors are one
/// calibrated factor per row (see air_topk.hpp / radix_select.hpp).
namespace topk {

/// Round an expected count to the integral counter a KernelStats holds.
[[nodiscard]] inline std::uint64_t expected_count(double x) {
  return x > 0.0 ? static_cast<std::uint64_t>(std::llround(x)) : 0;
}

/// Expected KernelStats of one launch from its totals and its heaviest
/// block (name and launch shape come from the schedule step).
[[nodiscard]] inline simgpu::KernelStats expected_stats(
    double bytes_read, double bytes_written, double lane_ops,
    double block_bytes, double block_lane_ops) {
  simgpu::KernelStats s;
  s.bytes_read = expected_count(bytes_read);
  s.bytes_written = expected_count(bytes_written);
  s.lane_ops = expected_count(lane_ops);
  s.max_block_bytes = expected_count(block_bytes);
  s.max_block_lane_ops = expected_count(block_lane_ops);
  return s;
}

/// Lane ops one TopkList merge of `count` staged candidates charges.
[[nodiscard]] inline double list_merge_ops(double count, std::size_t cap) {
  if (count < 1.0) return 0.0;
  const std::size_t q = next_pow2(static_cast<std::size_t>(std::ceil(count)));
  return static_cast<double>(bitonic_sort_ops(q) +
                             ((q + cap - 1) / cap) * merge_prune_ops(cap));
}

/// Expected lane ops of one SharedQueueEngine (GridSelect's 32-entry shared
/// queue) scanning `m` uniform elements for the best `k`, finalize included.
[[nodiscard]] inline double expected_shared_queue_ops(std::size_t m,
                                                      std::size_t k) {
  constexpr double kQueue = simgpu::kWarpSize;
  const std::size_t cap = next_pow2(k);
  const double mm = static_cast<double>(m);
  const double kk = static_cast<double>(k);
  const double rounds = std::ceil(mm / kQueue);
  // Fill phase: every element is a candidate until ceil(k/32) flushes have
  // merged k real keys; each of its rounds inserts a full warp and flushes,
  // so the overflow step re-charges the round's 32 inserts.
  const double fill = std::min(mm, kQueue * std::ceil(kk / kQueue));
  double cands = fill;
  double extra = fill;
  if (mm > fill) {
    // Between flushes the threshold is the k-th of the prefix merged so
    // far: a flush at position i comes 32*i/k elements after the last.
    const double cycles = std::log(mm / fill) / std::log1p(kQueue / kk);
    cands += kQueue * cycles;
    extra += cycles;
  }
  const double full_flushes = std::floor(cands / kQueue);
  const double tail = cands - full_flushes * kQueue;
  return rounds * static_cast<double>(kEmptyRoundLaneOps) + cands + extra +
         full_flushes * list_merge_ops(kQueue, cap) +
         list_merge_ops(tail, cap);
}

/// Expected number of uniform lane picks until one of the 32 thread queues
/// of depth `qlen` fills (Poissonized balls-into-bins first-full time).
[[nodiscard]] inline double expected_first_full(std::size_t qlen) {
  const double q = static_cast<double>(qlen);
  const double lanes = simgpu::kWarpSize;
  double total = 0.0;
  for (double t = 0.0; t < lanes * (q - 1.0) + 1.0; t += 1.0) {
    // P(every lane holds < q after t picks) ~ P(Poisson(t/32) < q)^32.
    const double lambda = t / lanes;
    double term = std::exp(-lambda);
    double below = 0.0;
    for (std::size_t j = 0; j < qlen; ++j) {
      below += term;
      term *= lambda / static_cast<double>(j + 1);
    }
    total += std::pow(std::min(1.0, below), lanes);
  }
  return std::max(1.0, total);
}

/// Expected lane ops of one WarpSelectEngine (per-lane register queues of
/// depth thread_queue_len(k)) scanning `m` uniform elements contiguously or
/// strided, finalize included.
[[nodiscard]] inline double expected_thread_queue_ops(std::size_t m,
                                                      std::size_t k) {
  const double lanes = simgpu::kWarpSize;
  const std::size_t qlen = thread_queue_len(k);
  const std::size_t cap = next_pow2(k);
  const double mm = static_cast<double>(m);
  const double kk = static_cast<double>(k);
  const double shift = lanes * static_cast<double>(qlen);  // per insert round
  const double rounds = std::ceil(mm / lanes);
  double ops = rounds * static_cast<double>(kEmptyRoundLaneOps);
  // Fill phase: every lane inserts every round, so the queues fill together
  // and flush full until the list holds k real keys.
  const double per_flush_fill = lanes * static_cast<double>(qlen);
  const double fill = std::min(mm, per_flush_fill * std::ceil(kk / per_flush_fill));
  ops += std::ceil(fill / lanes) * shift;
  ops += std::floor(fill / per_flush_fill) * list_merge_ops(per_flush_fill, cap);
  double pending = fill - std::floor(fill / per_flush_fill) * per_flush_fill;
  // Steady phase: a flush after every `first_full` candidates; the rate is
  // k/i per element, so a cycle starting at position i spans
  // first_full*i/k elements, and a round inserts when any lane's element
  // beats the threshold.
  static const std::array<double, 17> kFirstFull = [] {
    std::array<double, 17> t{};
    for (std::size_t q = 1; q < t.size(); ++q) t[q] = expected_first_full(q);
    return t;
  }();
  const double batch = kFirstFull[std::min<std::size_t>(qlen, 16)];
  for (double i = fill; i < mm;) {
    const double rate = std::min(1.0, kk / i);
    const double len = std::min(mm - i, batch / rate);
    const double insert_rounds =
        (len / lanes) * (1.0 - std::pow(1.0 - rate, lanes));
    ops += insert_rounds * shift;
    if (len < batch / rate) {
      pending += len * rate;
    } else {
      ops += list_merge_ops(batch, cap);
    }
    i += len;
  }
  return ops + list_merge_ops(pending, cap);
}

}  // namespace topk
