// Scaling study for the of::exec pool (DESIGN.md §8): the same kernels and
// the same one-round federated step, swept over pool thread counts. Each
// benchmark re-configures the global pool from its Threads argument, so a
// single binary produces the serial baseline and the parallel points in one
// run. EXPERIMENTS.md records the measured scaling table — read the numbers
// together with the host core count (the hw_cores counter); on a
// single-core host the parallel points measure pool overhead, not speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "core/payload.hpp"
#include "exec/pool.hpp"
#include "nn/loss.hpp"
#include "nn/zoo.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using of::exec::Pool;
using of::tensor::Rng;
using of::tensor::Tensor;

// --- dispatch cost ---------------------------------------------------------------

// One region of one chunk per pool thread, each chunk costed as a full
// chunk of work so the pool dispatches it (at Threads:1 it runs inline).
// With ChunkUs:0 the chunks are empty: the time is the bare dispatch cost
// on the caller, who may well run every chunk before a worker wakes. With
// ChunkUs:50 each chunk busy-waits 50 us, so a worker must take one for the
// region to finish in 50 us; the time beyond 50 us is the wake latency.
// These two numbers are what exec::kChunkWork is sized against.
void BM_ExecRegionOverhead(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::chrono::microseconds busy(state.range(1));
  Pool::global().configure(threads);
  for (auto _ : state) {
    Pool::global().run_chunks(threads, 1, of::exec::kChunkWork,
                              [&](std::size_t, std::size_t, std::size_t) {
                                const auto t0 = std::chrono::steady_clock::now();
                                while (std::chrono::steady_clock::now() - t0 < busy) {
                                }
                                benchmark::ClobberMemory();
                              });
  }
  state.counters["hw_cores"] = static_cast<double>(std::thread::hardware_concurrency());
  Pool::global().configure(1);
}
BENCHMARK(BM_ExecRegionOverhead)
    ->ArgNames({"Threads", "ChunkUs"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({2, 50})
    ->Args({4, 50})
    ->UseRealTime();

// --- raw kernels -----------------------------------------------------------------

void BM_ExecMatmul(benchmark::State& state) {
  Pool::global().configure(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 192;
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b).data());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
  state.counters["pool_threads"] = static_cast<double>(Pool::global().threads());
  Pool::global().configure(1);
}
BENCHMARK(BM_ExecMatmul)->ArgName("Threads")->Arg(1)->Arg(2)->Arg(4);

void BM_ExecReduce(benchmark::State& state) {
  Pool::global().configure(static_cast<std::size_t>(state.range(0)));
  Rng rng(2);
  const Tensor t = Tensor::randn({1 << 20}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(t.l2_norm_squared());
  state.SetBytesProcessed(state.iterations() * (1 << 20) * 4);
  Pool::global().configure(1);
}
BENCHMARK(BM_ExecReduce)->ArgName("Threads")->Arg(1)->Arg(2)->Arg(4);

// --- aggregation (mean_updates over 8 client frames) ------------------------------

void BM_ExecAggregation(benchmark::State& state) {
  Pool::global().configure(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  const int k = 8;
  std::vector<of::tensor::Bytes> frames;
  for (int i = 0; i < k; ++i) {
    std::vector<Tensor> payload{Tensor::randn({1 << 18}, rng)};
    frames.push_back(of::core::encode_update(payload, 1.0, {}, i, k));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(of::core::mean_updates(frames, nullptr, nullptr));
  state.SetBytesProcessed(state.iterations() * k * (1 << 18) * 4);
  Pool::global().configure(1);
}
BENCHMARK(BM_ExecAggregation)->ArgName("Threads")->Arg(1)->Arg(2)->Arg(4);

// --- model step (fwd+bwd, the per-client inner loop) -------------------------------

void BM_ExecModelStep(benchmark::State& state) {
  Pool::global().configure(static_cast<std::size_t>(state.range(0)));
  auto model = of::nn::zoo::make_model("resnet18_mini", 64, 10, 1);
  Rng rng(4);
  const Tensor x = Tensor::randn({32, 64}, rng);
  std::vector<std::size_t> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  for (auto _ : state) {
    model.zero_grad();
    const Tensor logits = model.forward(x);
    const auto lg = of::nn::softmax_cross_entropy(logits, labels);
    model.backward(lg.grad);
    benchmark::DoNotOptimize(lg.loss);
  }
  state.counters["hw_cores"] = static_cast<double>(std::thread::hardware_concurrency());
  Pool::global().configure(1);
}
BENCHMARK(BM_ExecModelStep)->ArgName("Threads")->Arg(1)->Arg(2)->Arg(4);

// The fig2_compute shape: three node threads, each stepping its own
// resnet18_mini at batch 32, sharing one pool. The real time is wall-clock
// time over the steps of all three callers.
void BM_ExecModelStepConcurrent(benchmark::State& state) {
  // The loop start and end are barriers across the benchmark threads, so
  // thread 0 reconfigures the pool while no caller is in a region.
  if (state.thread_index() == 0)
    Pool::global().configure(static_cast<std::size_t>(state.range(0)));
  auto model = of::nn::zoo::make_model("resnet18_mini", 64, 10, 1);
  Rng rng(4 + static_cast<std::uint64_t>(state.thread_index()));
  const Tensor x = Tensor::randn({32, 64}, rng);
  std::vector<std::size_t> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  for (auto _ : state) {
    model.zero_grad();
    const Tensor logits = model.forward(x);
    const auto lg = of::nn::softmax_cross_entropy(logits, labels);
    model.backward(lg.grad);
    benchmark::DoNotOptimize(lg.loss);
  }
  if (state.thread_index() == 0) Pool::global().configure(1);
}
BENCHMARK(BM_ExecModelStepConcurrent)
    ->ArgName("Threads")
    ->Arg(1)
    ->Arg(4)
    ->Threads(3)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
