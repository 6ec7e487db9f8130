#pragma once

#include <cstddef>
#include <vector>

namespace simgpu {

namespace scratch_detail {

/// Freelist of power-of-two byte blocks backing the engines' host-side
/// scratch vectors (TopkList's merge scratch, the warp engines' staging
/// queues).  Those vectors are short-lived — constructed inside a kernel
/// body and destroyed when the block retires — so without pooling every
/// simulated block pays host-allocator round trips on the hot path, and the
/// two-phase run() contract (zero allocations in steady state, gated by
/// bench_substrate's operator-new hook) could never hold for the
/// partial-sorting family.
///
/// Blocks live in a process-wide depot fronted by a per-thread cache.  A
/// thread's live + cached blocks of one size class never exceed `peak`, the
/// most any single thread has held live at once, and the depot is
/// provisioned with ThreadPool::size() x `peak` blocks of the class the
/// moment a new peak is reached.  Block-to-thread assignment is
/// nondeterministic, so the provisioning must not depend on which pool
/// threads happened to run during warm-up: once one execution of a shape
/// has reached its per-block peak on any thread, every thread of the pool
/// can run it again concurrently without touching the heap.  Free blocks
/// are chained through their own first word, so caching and returning a
/// block never allocates either.
class Freelist {
 public:
  static void* take(std::size_t bytes);
  static void give(void* p, std::size_t bytes) noexcept;
};

}  // namespace scratch_detail

/// Allocator routing through the scratch freelist above.  Used
/// for the short-lived per-block scratch vectors of the selection engines so
/// repeated kernel executions of the same shape perform no host allocations
/// after warm-up.  Stateless: all instances are interchangeable.
template <typename T>
struct ScratchAlloc {
  using value_type = T;

  ScratchAlloc() = default;
  template <typename U>
  ScratchAlloc(const ScratchAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(scratch_detail::Freelist::take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    scratch_detail::Freelist::give(p, n * sizeof(T));
  }

  friend bool operator==(const ScratchAlloc&, const ScratchAlloc&) {
    return true;
  }
};

/// A std::vector drawing from the scratch freelist.
template <typename T>
using ScratchVec = std::vector<T, ScratchAlloc<T>>;

}  // namespace simgpu
