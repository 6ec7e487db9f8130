#include "simgpu/scratch_alloc.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <mutex>
#include <new>

#include "simgpu/thread_pool.hpp"

namespace simgpu::scratch_detail {

namespace {

// 2^6 .. 2^31 byte classes; anything larger is served class 31-equivalent
// by index clamping below (no engine scratch approaches that size).  The
// smallest class holds the intrusive next pointer of a free block.
constexpr std::size_t kMinShift = 6;
constexpr std::size_t kNumClasses = 26;

std::size_t size_class(std::size_t bytes) {
  const std::size_t rounded =
      std::bit_ceil(bytes | (std::size_t{1} << kMinShift));
  const auto cls =
      static_cast<std::size_t>(std::countr_zero(rounded)) - kMinShift;
  return cls < kNumClasses ? cls : kNumClasses - 1;
}

std::size_t class_bytes(std::size_t cls) {
  return std::size_t{1} << (cls + kMinShift);
}

/// LIFO of free blocks linked through their first word.
struct Stack {
  void* head = nullptr;
  std::size_t count = 0;

  void push(void* p) noexcept {
    *static_cast<void**>(p) = head;
    head = p;
    ++count;
  }
  void* pop() noexcept {
    void* p = head;
    head = *static_cast<void**>(p);
    --count;
    return p;
  }
};

struct Depot {
  std::mutex mu;
  std::array<Stack, kNumClasses> free;
  /// Blocks of each class ever allocated (free in the depot, cached by a
  /// thread, or live).
  std::array<std::size_t, kNumClasses> provisioned{};
  /// Most blocks of each class one thread has held live at once.
  std::array<std::atomic<std::size_t>, kNumClasses> peak{};
  /// Threads that can hold blocks at once: the pool's workers plus the
  /// launching thread.
  const std::size_t threads = ThreadPool::instance().size();
};

/// Never destroyed: pool workers return their caches at thread exit, which
/// can run after static destruction has begun.
Depot& depot() {
  static Depot* const d = new Depot;
  return *d;
}

struct Cache {
  std::array<Stack, kNumClasses> free;
  std::array<std::size_t, kNumClasses> live{};

  Cache() = default;
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  ~Cache() {
    Depot& d = depot();
    const std::scoped_lock lock(d.mu);
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      while (free[cls].count != 0) d.free[cls].push(free[cls].pop());
    }
  }
};

Cache& cache() {
  thread_local Cache c;
  return c;
}

/// A thread holds `live` blocks of `cls`: if that is a new peak, top the
/// depot up to `threads` x peak blocks.
void raise_peak(Depot& d, std::size_t cls, std::size_t live) {
  const std::scoped_lock lock(d.mu);
  if (live <= d.peak[cls].load(std::memory_order_relaxed)) return;
  d.peak[cls].store(live, std::memory_order_relaxed);
  const std::size_t target = d.threads * live;
  while (d.provisioned[cls] < target) {
    d.free[cls].push(::operator new(class_bytes(cls)));
    ++d.provisioned[cls];
  }
}

}  // namespace

void* Freelist::take(std::size_t bytes) {
  const std::size_t cls = size_class(bytes);
  Cache& c = cache();
  Depot& d = depot();
  const std::size_t live = ++c.live[cls];
  if (live > d.peak[cls].load(std::memory_order_relaxed)) {
    raise_peak(d, cls, live);
  }
  if (c.free[cls].count != 0) return c.free[cls].pop();
  {
    const std::scoped_lock lock(d.mu);
    if (d.free[cls].count != 0) return d.free[cls].pop();
    // More threads than the pool hold blocks at once (e.g. several host
    // threads launching concurrently): serve the overflow from the heap.
    ++d.provisioned[cls];
  }
  return ::operator new(class_bytes(cls));
}

void Freelist::give(void* p, std::size_t bytes) noexcept {
  const std::size_t cls = size_class(bytes);
  Cache& c = cache();
  Depot& d = depot();
  // A block freed on another thread than the one that took it only skews
  // the per-thread live counts, never the depot's accounting.
  if (c.live[cls] != 0) --c.live[cls];
  if (c.live[cls] + c.free[cls].count <
      d.peak[cls].load(std::memory_order_relaxed)) {
    c.free[cls].push(p);
    return;
  }
  const std::scoped_lock lock(d.mu);
  d.free[cls].push(p);
}

}  // namespace simgpu::scratch_detail
