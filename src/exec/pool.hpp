// of::exec — deterministic multi-threaded execution (DESIGN.md §8).
//
// A fixed-worker, work-stealing-free thread pool with one invariant above
// all others: results never depend on the thread count or on runtime
// timing. parallel_for writes disjoint ranges, so its output is bytewise
// identical to the serial loop however it is chunked; run_chunks and
// parallel_reduce fix their chunk tree by (n, grain) and combine partials
// in chunk order, so their results are bitwise identical for threads=1 and
// threads=N. That invariant is what lets the determinism property tests
// pin down the bugfix satellites at any thread count.
//
// This module alone decides whether a region is worth dispatching. Callers
// state the work per item in element operations; a region that does not
// fill two chunks of kChunkWork runs inline on the caller. Code outside
// src/exec/ never gates on threads() or keeps its own cutoff
// (tests/check_exec_policy.sh).
//
// Execution model: the process owns one Pool (Pool::global()), configured
// from the `exec:` config group by the Engine before node threads start.
// `threads` counts total concurrency — the pool spawns threads-1 workers
// and the calling thread claims chunks alongside them, so threads=1 means
// zero workers and pure inline execution. Calls from inside a pool region
// (nested parallelism, or a worker's own chunk function) run inline, which
// both avoids deadlock and keeps the chunk tree identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "config/node.hpp"
#include "refl/refl.hpp"
#include "simd/simd.hpp"

namespace of::exec {

// The `exec:` config group (configs/exec/{serial,parallel}.yaml):
//   exec: {threads: N, grain: M, simd: auto|off}
// threads=0 asks for one thread per hardware core. `grain` is the minimum
// work per chunk in element operations (see kChunkWork). `simd` selects the
// of::simd kernel table (auto binds AVX2 when the CPU has it; results are
// bitwise identical either way — see simd/simd.hpp).
struct ExecConfig {
  std::size_t threads = 1;
  std::size_t grain = 4096;
  simd::Mode simd = simd::Mode::Auto;

  static ExecConfig from_config(const config::ConfigNode& node, bool strict = true);
};

// The dispatch gate, in element operations: one multiply-add of a matmul
// row, one float of an elementwise kernel. Sized against
// BM_ExecRegionOverhead on a 4-core AVX2 host (GCC 12, RelWithDebInfo):
// dispatching a minimal region costs the caller 1.6 us at 2 threads and
// 3.8 us at 4, and a region whose chunks each take 50 us finishes after
// 69-73 us, so a sleeping worker needs about 20 us to wake and join.
// 2^18 multiply-adds are about 40 us of AVX2 matmul on one thread
// (BM_ExecMatmul, 6.3 G multiply-adds/s): while the caller runs the first
// chunk, the worker that takes the second has time to wake. A region that
// fills fewer than two such chunks runs inline.
inline constexpr std::size_t kChunkWork = std::size_t{1} << 18;

class Pool {
 public:
  // The process-wide pool every parallel kernel submits to.
  static Pool& global();

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool();

  // (Re)build the worker set: threads-1 workers + the participating caller.
  // threads=0 → hardware concurrency. `grain` is the minimum work per chunk
  // in element operations, so for element loops the minimum items per
  // chunk; below kChunkWork it has no effect. Joins any previous workers
  // first; call only while no parallel region is in flight (the Engine
  // configures before spawning its node threads).
  void configure(std::size_t threads, std::size_t grain = 4096);

  std::size_t threads() const noexcept { return threads_; }
  std::size_t grain() const noexcept { return grain_; }

  using ChunkFn = std::function<void(std::size_t chunk, std::size_t begin, std::size_t end)>;

  // Disjoint-write loop over [0, n) whose items each cost `work_per_item`
  // element operations. Each chunk gets enough items to carry
  // max(kChunkWork, grain()) operations; a loop that fills fewer than two
  // chunks runs inline as fn(0, n). The output is bytewise identical to
  // the serial loop for any thread count, so the chunking is free to follow
  // the work.
  template <typename RangeFn>
  void parallel_for(std::size_t n, std::size_t work_per_item, RangeFn&& fn) {
    if (n == 0) return;
    const std::size_t g = chunk_items(work_per_item);
    if (n <= g || runs_inline()) {
      const InlineRegion region;
      fn(std::size_t{0}, n);
      return;
    }
    dispatch(n, g, [&fn](std::size_t, std::size_t b, std::size_t e) { fn(b, e); });
  }

  // Run fn(chunk, begin, end) for every chunk of [0, n), chunks =
  // ceil(n / grain) (grain is clamped to >= 1). The chunk tree depends only
  // on (n, grain); the pool dispatches it when it spans at least two chunks
  // and its items fill two chunks of the parallel_for work target,
  // otherwise the chunks run inline in order. Chunks are claimed by the
  // caller and the workers via an atomic counter: which thread runs a chunk
  // is unspecified, *what* each chunk covers is not. The first exception
  // thrown by any chunk is rethrown to the caller after the region drains
  // (remaining chunks are skipped).
  template <typename Fn>
  void run_chunks(std::size_t n, std::size_t grain, std::size_t work_per_item, Fn&& fn) {
    if (n == 0) return;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t chunks = (n + g - 1) / g;
    if (chunks == 1 || n <= chunk_items(work_per_item) || runs_inline()) {
      const InlineRegion region;
      for (std::size_t c = 0; c < chunks; ++c) fn(c, c * g, std::min(n, (c + 1) * g));
      return;
    }
    dispatch(n, g, fn);
  }

  // Deterministic chunked reduction: one partial per chunk, combined in
  // ascending chunk order. The chunk tree depends only on (n, grain), so
  // the result is bitwise identical for threads=1 and threads=N whether or
  // not the region is dispatched.
  template <typename T, typename PartialFn, typename CombineFn>
  T parallel_reduce(std::size_t n, std::size_t grain, std::size_t work_per_item, T init,
                    PartialFn&& partial, CombineFn&& combine) {
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t chunks = n == 0 ? 0 : (n + g - 1) / g;
    if (chunks == 1) {
      const InlineRegion region;
      return combine(init, partial(std::size_t{0}, n));
    }
    std::vector<T> partials(chunks, init);
    run_chunks(n, g, work_per_item, [&](std::size_t c, std::size_t b, std::size_t e) {
      partials[c] = partial(b, e);
    });
    T acc = init;
    for (const T& p : partials) acc = combine(acc, p);
    return acc;
  }

  // True while the calling thread is inside a pool region (worker chunk,
  // dispatching caller, or inline region); such callers execute further
  // regions inline.
  static bool in_parallel_region() noexcept;

 private:
  struct Job {
    const ChunkFn* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};  // next chunk to claim
    std::atomic<std::size_t> done{0};  // chunks finished
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first exception, guarded by mu
    std::mutex mu;
    std::condition_variable cv;
  };

  // Marks the calling thread as inside a region for its lifetime, so calls
  // nested in an inline region also run inline.
  class InlineRegion {
   public:
    InlineRegion() noexcept;
    ~InlineRegion();
    InlineRegion(const InlineRegion&) = delete;
    InlineRegion& operator=(const InlineRegion&) = delete;

   private:
    bool was_in_region_;
  };

  // Items per chunk for a work target of max(kChunkWork, grain_) element
  // operations.
  std::size_t chunk_items(std::size_t work_per_item) const noexcept {
    const std::size_t w = work_per_item == 0 ? 1 : work_per_item;
    const std::size_t target = grain_ > kChunkWork ? grain_ : kChunkWork;
    return (target + w - 1) / w;
  }

  // Serial pool or nested region: no dispatch whatever the work.
  bool runs_inline() const noexcept { return workers_.empty() || in_parallel_region(); }

  // Hand ceil(n / grain) chunks to the workers; the caller claims chunks
  // alongside them and returns once all have finished.
  void dispatch(std::size_t n, std::size_t grain, const ChunkFn& fn);

  void worker_loop();
  void execute(Job& job);
  void stop_workers();

  std::size_t threads_ = 1;
  std::size_t grain_ = 4096;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace of::exec

// threads=0 means "one per hardware core", grain 0 is clamped to 1 by
// from_config, so both accept 0.
template <>
struct of::refl::Reflect<of::exec::ExecConfig> {
  OF_REFL_FIELDS(field("threads", &of::exec::ExecConfig::threads, 1),
                 field("grain", &of::exec::ExecConfig::grain, 2),
                 field("simd", &of::exec::ExecConfig::simd, 3))
};
