#include "exec/pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "refl/config_io.hpp"

namespace of::exec {
namespace {

// Set while a thread is executing chunks (worker or participating caller):
// any parallel region entered from such a thread runs inline, both to avoid
// deadlocking the fixed worker set and to keep the chunk tree identical.
thread_local bool t_in_region = false;

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("exec.queue_depth");
  return g;
}

obs::Counter& jobs_counter() {
  static obs::Counter& c = obs::Registry::global().counter("exec.jobs");
  return c;
}

obs::Histogram& job_latency_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram("exec.job_ns");
  return h;
}

}  // namespace

ExecConfig ExecConfig::from_config(const config::ConfigNode& node, bool strict) {
  // A scalar here is a group selection that never reached a file (e.g. an
  // `exec=parallel` override composed without its config directory);
  // strict parsing rejects it instead of running serial defaults.
  if (!strict && !node.is_map()) return ExecConfig{};
  ExecConfig c = refl::from_node<ExecConfig>(node, "exec", {}, strict);
  if (c.grain == 0) c.grain = 1;
  return c;
}

Pool& Pool::global() {
  static Pool pool;
  return pool;
}

Pool::~Pool() { stop_workers(); }

bool Pool::in_parallel_region() noexcept { return t_in_region; }

void Pool::configure(std::size_t threads, std::size_t grain) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  stop_workers();
  threads_ = threads;
  grain_ = grain == 0 ? 1 : grain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
    queue_.clear();
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Pool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void Pool::worker_loop() {
  obs::Profiler::set_thread_name("exec-worker");
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = queue_.front();
      if (job->next.load(std::memory_order_relaxed) >= job->chunks) {
        // Exhausted job still parked at the front: retire it and re-check.
        queue_.pop_front();
        continue;
      }
    }
    execute(*job);
  }
}

void Pool::execute(Job& job) {
  t_in_region = true;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) break;
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.fn)(c, c * job.grain, std::min(job.n, (c + 1) * job.grain));
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mu);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    // acq_rel: each finisher publishes its chunk's writes; the final value
    // read with acquire in run_chunks sees them all through the RMW chain.
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.chunks) {
      std::lock_guard<std::mutex> lock(job.mu);
      job.cv.notify_all();
    }
  }
  t_in_region = false;
}

Pool::InlineRegion::InlineRegion() noexcept : was_in_region_(t_in_region) {
  t_in_region = true;
}

Pool::InlineRegion::~InlineRegion() { t_in_region = was_in_region_; }

void Pool::dispatch(std::size_t n, std::size_t grain, const ChunkFn& fn) {
  const std::size_t chunks = (n + grain - 1) / grain;
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->grain = grain;
  job->chunks = chunks;

  jobs_counter().inc();
  queue_depth_gauge().add(1);
  obs::ScopedSpan span(obs::Name::ExecJob, -1, 0, chunks);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
  }
  cv_.notify_all();

  execute(*job);  // the caller claims chunks alongside the workers
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->chunks;
    });
  }
  queue_depth_gauge().sub(1);
  job_latency_hist().observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace of::exec
