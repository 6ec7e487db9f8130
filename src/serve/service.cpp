#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "shard/shard.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/key_codec.hpp"

namespace topk::serve {

namespace {

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// A request executes with its bucket's padded k; cut the padded result back
/// down to the request's own k.  The k best of the bucket's k_exec best are
/// exactly the k best of the whole row, so trimming preserves correctness.
SelectResult trim_result(SelectResult&& r, std::size_t k, bool greatest,
                         bool sorted) {
  if (r.values.size() <= k) return std::move(r);
  if (sorted) {
    // Already ordered best-first by select_batch; the prefix is the answer.
    r.values.resize(k);
    r.indices.resize(k);
    return std::move(r);
  }
  std::vector<std::uint32_t> order(r.values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + static_cast<long>(k) - 1,
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return greatest ? r.values[a] > r.values[b]
                                     : r.values[a] < r.values[b];
                   });
  SelectResult out;
  out.values.reserve(k);
  out.indices.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.values.push_back(r.values[order[i]]);
    out.indices.push_back(r.indices[order[i]]);
  }
  return out;
}

double percentile(const std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_samples.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted_samples[std::min(idx, sorted_samples.size() - 1)];
}

/// Latency sample cap: enough for any realistic soak/bench run while
/// bounding service memory under sustained traffic.
constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;

}  // namespace

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kTimedOut: return "timed-out";
    case QueryStatus::kFailed: return "failed";
  }
  return "unknown";
}

/// One cached micro-batch shape: the algorithm's ExecutionPlan plus the IO
/// layout (input row block and the two output blocks) the worker's io
/// workspace binds for it.  Cached per worker in a std::map, whose node
/// stability keeps the layouts alive for as long as they stay bound.
struct PlanEntry {
  ExecutionPlan plan;
  simgpu::WorkspaceLayout io;
  std::size_t seg_vals = 0;
  std::size_t seg_idx = 0;
};

struct TopkService::Worker {
  simgpu::Device dev;
  /// Algorithm scratch (the plan's layout) — persists across flushes, so a
  /// steady stream of same-shaped batches binds it with zero allocations.
  simgpu::Workspace algo_ws;
  /// Input/output blocks for the assembled micro-batch, same reuse story.
  simgpu::Workspace io_ws;
  /// (n, k_exec, requested algo, rows, recall SLO, dtype) -> planned
  /// execution.
  std::map<std::tuple<std::size_t, std::size_t, Algo, std::size_t, double,
                      KeyType>,
           PlanEntry>
      plans;
  /// Multi-device coordinator for sharded requests, built lazily on the
  /// first one (it owns ServiceConfig::shard_devices simulated devices of
  /// its own); driven only by this worker's thread.  The *_seen cursors
  /// track how much of its cumulative plan-cache traffic has already been
  /// folded into the service counters.
  std::unique_ptr<shard::Coordinator> shard_coord;
  std::size_t shard_plan_hits_seen = 0;
  std::size_t shard_plan_misses_seen = 0;

  explicit Worker(const simgpu::DeviceSpec& spec)
      : dev(spec), algo_ws(dev), io_ws(dev) {}
};

TopkService::TopkService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.num_devices == 0) {
    throw std::invalid_argument("TopkService: num_devices must be > 0");
  }
  if (cfg_.max_batch == 0) {
    throw std::invalid_argument("TopkService: max_batch must be > 0");
  }
  if (cfg_.admission_capacity == 0) {
    throw std::invalid_argument("TopkService: admission_capacity must be > 0");
  }
  worker_counters_.resize(cfg_.num_devices);
  batcher_ = std::thread([this] { batcher_loop(); });
  workers_.reserve(cfg_.num_devices);
  for (std::size_t i = 0; i < cfg_.num_devices; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TopkService::~TopkService() { shutdown(); }

void TopkService::shutdown() {
  {
    std::scoped_lock lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  batcher_cv_.notify_all();
  worker_cv_.notify_all();
  // Joins are guarded by joinable(): a second shutdown() (e.g. explicit call
  // followed by the destructor) finds the threads already reaped.  Callers
  // must not race two shutdown() calls from different threads.
  if (batcher_.joinable()) batcher_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<QueryResult> TopkService::submit(
    std::vector<float> keys, std::size_t k,
    std::optional<std::chrono::microseconds> deadline,
    std::optional<Algo> algo, std::optional<WorkloadHints> hints) {
  return submit_carrier(std::move(keys), KeyType::kF32, k, deadline, algo,
                        hints);
}

std::future<QueryResult> TopkService::submit(
    KeyView keys, std::size_t k,
    std::optional<std::chrono::microseconds> deadline,
    std::optional<Algo> algo, std::optional<WorkloadHints> hints) {
  if (key_type_is_integer(keys.dtype)) {
    std::ostringstream err;
    err << "TopkService::submit: dtype " << key_type_name(keys.dtype)
        << " is not supported by the float-carrier serving path";
    throw std::invalid_argument(err.str());
  }
  if (keys.size == 0) {
    throw std::invalid_argument("TopkService::submit: keys must be non-empty");
  }
  // Encode into the carrier row the bucket stages; the worker decodes the
  // executed batch back per request.  For f32 this is a plain copy — the
  // same one std::vector<float>'s move-in submit avoids, which is why the
  // float overload stays the fast path.
  std::vector<float> carrier(keys.size);
  codec::encode_keys_f32(keys, carrier.data());
  return submit_carrier(std::move(carrier), keys.dtype, k, deadline, algo,
                        hints);
}

std::future<QueryResult> TopkService::submit_carrier(
    std::vector<float> keys, KeyType dtype, std::size_t k,
    std::optional<std::chrono::microseconds> deadline,
    std::optional<Algo> algo, std::optional<WorkloadHints> hints) {
  const std::size_t n = keys.size();
  if (n == 0) {
    throw std::invalid_argument("TopkService::submit: keys must be non-empty");
  }
  if (k == 0) {
    throw std::invalid_argument("TopkService::submit: k must be >= 1");
  }
  if (k > n) {
    std::ostringstream err;
    err << "TopkService::submit: k=" << k << " exceeds row length n=" << n;
    throw std::invalid_argument(err.str());
  }

  const double recall_target = hints ? hints->recall_target : 1.0;
  if (!(recall_target > 0.0) || recall_target > 1.0) {
    std::ostringstream err;
    err << "TopkService::submit: recall_target must be in (0, 1], got "
        << recall_target << " (1.0 = exact)";
    throw std::invalid_argument(err.str());
  }

  // Sharded routing: an explicit multi-shard hint, or a row no single
  // device can hold — the shape the coalesced path could never serve.
  const std::size_t shard_hint = hints ? hints->shards : 0;
  const bool sharded =
      shard_hint > 1 || n > cfg_.device_spec.max_select_elems;

  const Clock::time_point now = Clock::now();
  Request req;
  req.k = k;
  req.shard_hint = shard_hint;
  req.submit_time = now;
  if (deadline) req.deadline = now + *deadline;
  std::future<QueryResult> fut = req.promise.get_future();

  BucketKey key;
  key.n = n;
  // Sharded requests never coalesce, so k is executed exactly, unpadded.
  key.k_exec = sharded ? k : std::min(n, std::bit_ceil(k));
  key.algo = algo.value_or(cfg_.default_algo);
  key.dtype = dtype;
  // Sharded requests stay exact: the cross-shard merge assumes each shard
  // returns its true local top-k, so a sub-1.0 SLO only applies to the
  // coalesced single-device path.
  key.recall = sharded ? 1.0 : recall_target;

  std::optional<std::string> reject;
  bool notify_worker = false;
  bool notify_batcher = false;
  {
    std::scoped_lock lock(mu_);
    ++submitted_;
    if (!accepting_) {
      ++rejected_;
      reject = "service is shut down";
    } else if (queued_ >= cfg_.admission_capacity) {
      ++rejected_;
      std::ostringstream err;
      err << "admission queue full (capacity " << cfg_.admission_capacity
          << ")";
      reject = err.str();
    } else if (sharded) {
      ++accepted_;
      ++queued_;
      // Straight to the ready queue as its own single-row batch; the row
      // vector itself becomes the staged buffer (no copy).
      Batch b;
      b.key = key;
      b.staged = std::move(keys);
      b.reqs.push_back(std::move(req));
      b.sharded = true;
      ready_.push_back(std::move(b));
      notify_worker = true;
    } else {
      ++accepted_;
      ++queued_;
      Bucket& b = buckets_[key];
      if (b.reqs.empty()) {
        b.oldest = now;
        b.earliest_due = now + cfg_.max_wait;
        if (!staged_spares_.empty()) {
          b.staged = std::move(staged_spares_.back());
          staged_spares_.pop_back();
          b.staged.clear();  // keeps the (warm) capacity
        }
        b.staged.reserve(cfg_.max_batch * n);
        notify_batcher = true;  // new bucket: the flush timer must arm
      }
      if (req.deadline && *req.deadline < b.earliest_due) {
        b.earliest_due = *req.deadline;
        notify_batcher = true;  // deadline tightened: timer must re-arm
      }
      // Stage the row into the bucket's contiguous buffer here, so the
      // worker can bind the batch input with no gather pass.  The copy is
      // one row (admission-rate work, bounded by n) and runs under mu_;
      // submission is already serialized on the lock either way.
      b.staged.insert(b.staged.end(), keys.begin(), keys.end());
      b.reqs.push_back(std::move(req));
      if (b.reqs.size() >= cfg_.max_batch) {
        ready_.push_back(Batch{key, std::move(b.reqs), std::move(b.staged)});
        buckets_.erase(key);
        notify_worker = true;
        // A filled bucket leaves nothing for the flush timer to track; the
        // batcher re-derives its wait from the surviving buckets on its own.
        notify_batcher = false;
      }
    }
  }
  if (reject) {
    QueryResult qr;
    qr.status = QueryStatus::kRejected;
    qr.error = *reject;
    qr.wall_us = us_between(now, Clock::now());
    req.promise.set_value(std::move(qr));
  }
  if (notify_worker) worker_cv_.notify_one();
  if (notify_batcher) batcher_cv_.notify_one();
  return fut;
}

void TopkService::batcher_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    if (stopping_) {
      // Graceful drain: everything still bucketed becomes a final wave of
      // (possibly partial) batches for the workers to run.
      for (auto& [key, bucket] : buckets_) {
        ready_.push_back(
            Batch{key, std::move(bucket.reqs), std::move(bucket.staged)});
      }
      buckets_.clear();
      batcher_done_ = true;
      lock.unlock();
      worker_cv_.notify_all();
      return;
    }
    if (buckets_.empty()) {
      batcher_cv_.wait(lock, [&] { return stopping_ || !buckets_.empty(); });
      continue;
    }
    Clock::time_point due = buckets_.begin()->second.earliest_due;
    for (const auto& [key, bucket] : buckets_) {
      due = std::min(due, bucket.earliest_due);
    }
    const Clock::time_point now = Clock::now();
    if (now >= due) {
      bool flushed = false;
      for (auto it = buckets_.begin(); it != buckets_.end();) {
        if (now >= it->second.earliest_due) {
          ready_.push_back(Batch{it->first, std::move(it->second.reqs),
                                 std::move(it->second.staged)});
          it = buckets_.erase(it);
          flushed = true;
        } else {
          ++it;
        }
      }
      if (flushed) worker_cv_.notify_all();
      continue;
    }
    batcher_cv_.wait_until(lock, due);
  }
}

void TopkService::worker_loop(std::size_t worker_id) {
  // The Device is created and driven entirely by this thread, honoring the
  // substrate's single-driver contract; execute_batch attaches the simcheck
  // sanitizer to it when TOPK_SIMCHECK requests one.  The plan cache and
  // pooled workspaces in the Worker live for the thread's whole life, which
  // is what makes repeat shapes zero-allocation.
  Worker w(cfg_.device_spec);
  for (;;) {
    Batch batch;
    {
      std::unique_lock lock(mu_);
      worker_cv_.wait(lock, [&] {
        return !ready_.empty() || (stopping_ && batcher_done_);
      });
      if (ready_.empty()) return;  // stopped and fully drained
      batch = std::move(ready_.front());
      ready_.pop_front();
      queued_ -= batch.reqs.size();
    }
    if (batch.sharded) {
      execute_sharded(w, worker_id, std::move(batch));
    } else {
      execute_batch(w, worker_id, std::move(batch));
    }
  }
}

void TopkService::execute_sharded(Worker& w, std::size_t /*worker_id*/,
                                  Batch batch) {
  const Clock::time_point dispatch = Clock::now();
  Request req = std::move(batch.reqs.front());
  QueryResult qr;
  const bool expired = req.deadline && *req.deadline <= dispatch;
  if (expired) {
    qr.status = QueryStatus::kTimedOut;
    qr.error = "deadline expired before dispatch";
    qr.wall_us = us_between(req.submit_time, dispatch);
  } else {
    if (w.shard_coord == nullptr) {
      shard::ShardConfig scfg;
      scfg.devices = cfg_.shard_devices;
      scfg.device_spec = cfg_.device_spec;
      scfg.options.greatest = cfg_.greatest;
      scfg.options.sorted = cfg_.sorted_results;
      w.shard_coord = std::make_unique<shard::Coordinator>(scfg);
    }
    try {
      shard::ShardedResult res = w.shard_coord->select(
          std::span<const float>(batch.staged), batch.key.k_exec,
          req.shard_hint, batch.key.algo);
      // The staged row is carrier-encoded (exact for f16/bf16 ordinals);
      // decode the merged winners back to the request's dtype.
      codec::decode_result_f32(batch.key.dtype, res.topk);
      qr.status = QueryStatus::kOk;
      qr.topk = std::move(res.topk);
      qr.algo = res.shard_algo;
      qr.batch_rows = 1;
      qr.shards = res.shards;
      qr.device_us = res.timing.total_us;
    } catch (const std::exception& e) {
      qr.status = QueryStatus::kFailed;
      qr.error = e.what();
    }
    qr.wall_us = us_between(req.submit_time, Clock::now());
  }

  {
    std::scoped_lock lock(mu_);
    if (expired) {
      ++timed_out_;
    } else if (qr.status == QueryStatus::kOk) {
      ++completed_;
      ++batches_;
      ++batch_rows_histogram_[1];
      modeled_device_us_ += qr.device_us;
      ++sharded_queries_;
      sharded_device_us_ += qr.device_us;
      if (latency_us_.size() < kMaxLatencySamples) {
        latency_us_.push_back(qr.wall_us);
      }
    } else {
      failed_ += 1;
    }
    // Fold the coordinator's cumulative plan-cache traffic into the service
    // counters (delta since the last fold), success or not.
    if (w.shard_coord != nullptr) {
      plan_cache_hits_ +=
          w.shard_coord->plan_cache_hits() - w.shard_plan_hits_seen;
      plan_cache_misses_ +=
          w.shard_coord->plan_cache_misses() - w.shard_plan_misses_seen;
      w.shard_plan_hits_seen = w.shard_coord->plan_cache_hits();
      w.shard_plan_misses_seen = w.shard_coord->plan_cache_misses();
    }
  }
  req.promise.set_value(std::move(qr));
}

void TopkService::execute_batch(Worker& w, std::size_t worker_id,
                                Batch batch) {
  simgpu::Device& dev = w.dev;
  const Clock::time_point dispatch = Clock::now();
  std::vector<Request> live;
  std::vector<Request> expired;
  live.reserve(batch.reqs.size());
  // Staged rows are positional: dropping an expired request compacts the
  // survivors' rows down so live[i]'s keys stay at staged[i * n].
  for (std::size_t i = 0; i < batch.reqs.size(); ++i) {
    Request& r = batch.reqs[i];
    if (r.deadline && *r.deadline <= dispatch) {
      expired.push_back(std::move(r));
    } else {
      if (live.size() != i) {
        std::memmove(batch.staged.data() + live.size() * batch.key.n,
                     batch.staged.data() + i * batch.key.n,
                     batch.key.n * sizeof(float));
      }
      live.push_back(std::move(r));
    }
  }

  const std::size_t n = batch.key.n;
  const std::size_t k_exec = batch.key.k_exec;
  const std::size_t rows = live.size();
  std::vector<SelectResult> results;
  Algo planned = batch.key.algo;
  double model_us = 0.0;
  std::string fail;
  bool plan_cache_hit = false;
  bool plan_looked_up = false;
  if (!live.empty()) {
    try {
      // Plans are keyed on the micro-batch bucket (row length, padded k,
      // requested algorithm, recall SLO, dtype) plus the assembled row
      // count; a repeat shape reuses the cached ExecutionPlan and both
      // pooled workspaces. Recall is part of the key so a 0.9-SLO plan
      // (smaller per-bucket keep) can never be replayed for an exact
      // request; dtype so an f16-ordinal plan never serves raw f32 rows.
      // The key holds every input of the kAuto cost race and the worker's
      // spec is fixed, so the race runs only on a miss and the cached plan
      // carries its resolved algorithm.
      const auto key = std::make_tuple(n, k_exec, batch.key.algo, rows,
                                       batch.key.recall, batch.key.dtype);
      plan_looked_up = true;
      auto it = w.plans.find(key);
      plan_cache_hit = it != w.plans.end();
      if (!plan_cache_hit) {
        planned = resolve_algo(dev.spec(), batch.key.algo, n, k_exec, rows,
                               batch.key.recall, batch.key.dtype);
        if (k_exec > max_k(planned, n)) {
          std::ostringstream err;
          err << "plan " << algo_name(planned) << " cannot serve k=" << k_exec
              << " at n=" << n << " (max " << max_k(planned, n) << ")";
          throw std::invalid_argument(err.str());
        }
        SelectOptions opt;
        opt.greatest = cfg_.greatest;
        opt.sorted = cfg_.sorted_results;
        opt.recall_target = batch.key.recall;
        opt.dtype = batch.key.dtype;
        PlanEntry e;
        e.plan = plan_select(dev.spec(), rows, n, k_exec, planned, opt);
        e.seg_vals = e.io.add<float>("serve output vals", rows * k_exec);
        e.seg_idx = e.io.add<std::uint32_t>("serve output idx", rows * k_exec);
        it = w.plans.emplace(key, std::move(e)).first;
      }
      const PlanEntry& entry = it->second;
      planned = entry.plan.algo();

      // Opened before the IO segments bind, as in select_batch.
      const SimcheckGuard simcheck(dev);
      w.io_ws.bind(entry.io);
      // The batch input IS the bucket's staged buffer: rows were laid out
      // contiguously at submit time, so the device binds them in place —
      // no per-row gather copy on the execution critical path.
      simgpu::DeviceBuffer<float> in(batch.staged.data(), rows * n);
      if (simgpu::Sanitizer* const san = simcheck.sanitizer()) {
        // Introduce the externally owned staging storage to the shadow and
        // mark it initialized, exactly as an upload into a fresh device
        // allocation would be.
        dev.register_region(in.data(), rows * n, sizeof(float),
                            "serve staged input");
        san->mark_initialized(in.data(), rows * n * sizeof(float));
      }
      simgpu::DeviceBuffer<float> out_vals =
          w.io_ws.get<float>(entry.seg_vals);
      simgpu::DeviceBuffer<std::uint32_t> out_idx =
          w.io_ws.get<std::uint32_t>(entry.seg_idx);

      dev.clear_events();
      run_select(dev, entry.plan, w.algo_ws, in, out_vals, out_idx);
      simcheck.check(planned);
      model_us = simgpu::CostModel(dev.spec()).total_us(dev.events());

      results.resize(rows);
      std::vector<std::uint32_t> order;  // permutation scratch, shared by rows
      for (std::size_t b = 0; b < rows; ++b) {
        SelectResult& r = results[b];
        r.values.assign(out_vals.data() + b * k_exec,
                        out_vals.data() + (b + 1) * k_exec);
        r.indices.assign(out_idx.data() + b * k_exec,
                         out_idx.data() + (b + 1) * k_exec);
        if (cfg_.sorted_results) {
          sort_result_best_first(r, cfg_.greatest, order);
        }
      }
    } catch (const std::exception& e) {
      fail = e.what();
    }
  }

  // Build every outcome first, fold it into the counters, and only then
  // resolve the promises: a caller observing a resolved future must see
  // counters that already account for it.
  std::vector<QueryResult> outcomes;
  outcomes.reserve(batch.reqs.size());
  for (Request& r : expired) {
    QueryResult qr;
    qr.status = QueryStatus::kTimedOut;
    qr.error = "deadline expired before dispatch";
    qr.wall_us = us_between(r.submit_time, dispatch);
    outcomes.push_back(std::move(qr));
  }
  const double device_share =
      live.empty() ? 0.0 : model_us / static_cast<double>(live.size());
  const Clock::time_point resolved = Clock::now();
  for (std::size_t i = 0; i < live.size(); ++i) {
    Request& r = live[i];
    QueryResult qr;
    if (!fail.empty()) {
      qr.status = QueryStatus::kFailed;
      qr.error = fail;
    } else {
      qr.status = QueryStatus::kOk;
      qr.algo = planned;
      qr.batch_rows = live.size();
      qr.device_us = device_share;
      qr.topk = trim_result(std::move(results[i]), r.k, cfg_.greatest,
                            cfg_.sorted_results);
      // Trim compares carrier values (carrier order equals key order, so
      // the cut is exact for f16/bf16); decode only the surviving k.
      codec::decode_result_f32(batch.key.dtype, qr.topk);
    }
    qr.wall_us = us_between(r.submit_time, resolved);
    outcomes.push_back(std::move(qr));
  }

  {
    std::scoped_lock lock(mu_);
    // Retire the staging buffer into the spare pool (bounded) so the next
    // bucket starts on warm pages.  The batch input wrap died with
    // run_select above; nothing references this storage anymore.
    if (batch.staged.capacity() > 0 &&
        staged_spares_.size() <= workers_.size()) {
      staged_spares_.push_back(std::move(batch.staged));
    }
    timed_out_ += expired.size();
    if (plan_looked_up) {
      if (plan_cache_hit) {
        ++plan_cache_hits_;
      } else {
        ++plan_cache_misses_;
      }
    }
    // Publish this worker's cumulative pool/alloc counters; stats() sums
    // the per-worker snapshots.
    WorkerCounters& wc = worker_counters_[worker_id];
    const simgpu::MemoryPool::Stats ps = dev.memory_pool().stats();
    wc.pool_hits = ps.hits;
    wc.pool_misses = ps.misses;
    wc.pool_high_water = ps.high_water;
    wc.device_allocs = dev.alloc_calls();
    if (!live.empty()) {
      if (!fail.empty()) {
        failed_ += live.size();
      } else {
        completed_ += live.size();
        if (planned == Algo::kBucketApprox) approx_queries_ += live.size();
        ++batches_;
        ++batch_rows_histogram_[live.size()];
        modeled_device_us_ += model_us;
        for (const QueryResult& qr : outcomes) {
          if (qr.status == QueryStatus::kOk &&
              latency_us_.size() < kMaxLatencySamples) {
            latency_us_.push_back(qr.wall_us);
          }
        }
      }
    }
  }

  std::size_t next = 0;
  for (Request& r : expired) r.promise.set_value(std::move(outcomes[next++]));
  for (Request& r : live) r.promise.set_value(std::move(outcomes[next++]));
}

ServiceStats TopkService::stats() const {
  ServiceStats s;
  std::vector<double> samples;
  {
    std::scoped_lock lock(mu_);
    s.submitted = submitted_;
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.completed = completed_;
    s.failed = failed_;
    s.batches = batches_;
    s.modeled_device_us = modeled_device_us_;
    s.batch_rows_histogram = batch_rows_histogram_;
    s.plan_cache_hits = plan_cache_hits_;
    s.plan_cache_misses = plan_cache_misses_;
    s.sharded_queries = sharded_queries_;
    s.sharded_device_us = sharded_device_us_;
    s.approx_queries = approx_queries_;
    for (const WorkerCounters& wc : worker_counters_) {
      s.pool_hits += wc.pool_hits;
      s.pool_misses += wc.pool_misses;
      s.pool_high_water += wc.pool_high_water;
      s.device_allocs += wc.device_allocs;
    }
    samples = latency_us_;
  }
  std::sort(samples.begin(), samples.end());
  s.latency.count = samples.size();
  s.latency.p50_us = percentile(samples, 0.50);
  s.latency.p95_us = percentile(samples, 0.95);
  s.latency.p99_us = percentile(samples, 0.99);
  s.latency.max_us = samples.empty() ? 0.0 : samples.back();
  s.latency.mean_us =
      samples.empty()
          ? 0.0
          : std::accumulate(samples.begin(), samples.end(), 0.0) /
                static_cast<double>(samples.size());
  return s;
}

}  // namespace topk::serve
