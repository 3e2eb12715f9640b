// Per-round cost of the update pipeline (encode on every client + aggregate
// on the server) for the payload modes the paper's evaluation sweeps: plain,
// sparsified (TopK), quantized (QSGD) and DP-protected. Beyond wall time,
// each benchmark reports the number of heap allocations a steady-state round
// performs — the figure the zero-copy/pooled-buffer refactor is judged by
// (EXPERIMENTS.md "payload pipeline" table).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "compression/quantize.hpp"
#include "compression/sparsify.hpp"
#include "core/payload.hpp"
#include "nn/zoo.hpp"
#include "privacy/dp.hpp"
#include "simd/simd.hpp"

// --- global allocation counter -----------------------------------------------
// Replacing operator new in this TU counts every heap allocation the round
// makes, library internals included. Counts, not bytes: the pool's win is
// fewer allocator round-trips per round.

static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using of::core::PayloadPlugins;
using of::tensor::Bytes;
using of::tensor::Rng;
using of::tensor::Tensor;

enum class Mode { Plain, PlainF16, TopK, Qsgd, Dp };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Plain: return "plain";
    case Mode::PlainF16: return "plain_f16";
    case Mode::TopK: return "topk";
    case Mode::Qsgd: return "qsgd";
    case Mode::Dp: return "dp";
  }
  return "?";
}

// A small-MLP-sized update (~51k params, ~200 KiB on the wire) — big enough
// that per-element work dominates, small enough for a fast smoke run.
std::vector<Tensor> make_update(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({784, 64}, rng));
  ts.push_back(Tensor::randn({64}, rng));
  ts.push_back(Tensor::randn({64, 10}, rng));
  ts.push_back(Tensor::randn({10}, rng));
  return ts;
}

struct Pipeline {
  std::unique_ptr<of::compression::Compressor> compressor;
  std::unique_ptr<of::privacy::PrivacyMechanism> privacy;

  explicit Pipeline(Mode m) {
    switch (m) {
      case Mode::Plain: break;
      case Mode::PlainF16: break;  // plain pipeline, f16 wire repr
      case Mode::TopK:
        compressor = std::make_unique<of::compression::TopK>(/*factor=*/100.0, true);
        break;
      case Mode::Qsgd:
        compressor = std::make_unique<of::compression::QSGD>(8, /*seed=*/7);
        break;
      case Mode::Dp:
        privacy = std::make_unique<of::privacy::DifferentialPrivacy>(
            of::privacy::DpParams{/*epsilon=*/8.0, /*delta=*/1e-5, /*clip_norm=*/10.0},
            /*seed=*/11);
        break;
    }
  }
  PayloadPlugins plugins() { return {compressor.get(), privacy.get()}; }
};

// One full round: every client encodes, the server aggregates. Frames live
// in a FramePool, exactly like a NodeRuntime's round loop: after the warmup
// round their capacity is in the pool and steady-state rounds recycle it.
struct Round {
  Pipeline pipe;
  int clients;
  std::vector<Tensor> update;
  of::core::WireRepr repr;
  of::core::FramePool pool;
  std::vector<of::core::FramePool::Handle> frames;

  Round(Mode m, int k)
      : pipe(m),
        clients(k),
        update(make_update(42)),
        repr(m == Mode::PlainF16 ? of::core::WireRepr::F16
                                 : of::core::WireRepr::F32) {}

  std::size_t update_numel() const {
    std::size_t n = 0;
    for (const auto& t : update) n += t.numel();
    return n;
  }

  void encode_all() {
    frames.clear();  // handles return their buffers to the pool first
    for (int c = 0; c < clients; ++c) {
      auto h = pool.acquire();
      of::core::encode_update_into(update, /*weight_scale=*/1.0, pipe.plugins(), c,
                                   clients, pool, *h, repr);
      frames.push_back(std::move(h));
    }
  }

  std::vector<Bytes> frame_copies() const {
    std::vector<Bytes> out;
    out.reserve(frames.size());
    for (const auto& h : frames) out.push_back(*h);
    return out;
  }

  std::vector<Tensor> aggregate(const std::vector<Bytes>& fs) {
    return of::core::mean_updates(fs, pipe.compressor.get(), pipe.privacy.get(), &pool);
  }
};

// Every row runs in both simd tables (auto = AVX2 when the CPU has it, off
// = the scalar reference) and reports bytes/s over the *input* update bytes
// (clients × numel × 4) — the throughput number the ≥4× encode/aggregate
// acceptance criterion is stated over.
void BM_EncodeRound(benchmark::State& state, Mode m, of::simd::Mode simd) {
  of::simd::configure(simd);
  Round round(m, static_cast<int>(state.range(0)));
  round.encode_all();  // warmup: populate pool / codec state
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    round.encode_all();
    benchmark::DoNotOptimize(round.frames.data());
  }
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(a1 - a0) / static_cast<double>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(round.update_numel() * sizeof(float)) *
      state.range(0));
  of::simd::configure(of::simd::Mode::Auto);
}

void BM_AggregateRound(benchmark::State& state, Mode m, of::simd::Mode simd) {
  of::simd::configure(simd);
  Round round(m, static_cast<int>(state.range(0)));
  round.encode_all();
  const std::vector<Bytes> frames = round.frame_copies();
  benchmark::DoNotOptimize(round.aggregate(frames).data());  // warmup
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto mean = round.aggregate(frames);
    benchmark::DoNotOptimize(mean.data());
  }
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(a1 - a0) / static_cast<double>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(round.update_numel() * sizeof(float)) *
      state.range(0));
  of::simd::configure(of::simd::Mode::Auto);
}

// The hub's model frame for vgg11_mini (~677 KB): `fresh` packs into a new
// buffer per call; `reused` clears and refills one buffer that keeps its
// capacity, as every hub does once per model version (DESIGN.md §6).
void BM_ModelPack(benchmark::State& state, bool reused) {
  const std::vector<Tensor> model =
      of::nn::zoo::make_model("vgg11_mini", 16, 4, 1).parameter_values();
  Bytes frame;
  of::core::pack_tensors_into(model, frame);  // warmup: capacity for `reused`
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    if (reused) {
      frame.clear();
      of::core::pack_tensors_into(model, frame);
      benchmark::DoNotOptimize(frame.data());
    } else {
      Bytes fresh = of::core::pack_tensors(model);
      benchmark::DoNotOptimize(fresh.data());
    }
    benchmark::ClobberMemory();
  }
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs_per_pack"] = benchmark::Counter(
      static_cast<double>(a1 - a0) / static_cast<double>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}

}  // namespace

#define OF_PIPELINE_BENCH_ONE(fn, mode, level, simd_name)                        \
  BENCHMARK_CAPTURE(fn, mode##_##level, Mode::mode, of::simd::Mode::level)       \
      ->Name(#fn "/" + std::string(mode_name(Mode::mode)) + "/" simd_name)       \
      ->Arg(8)                                                                   \
      ->Arg(64)                                                                  \
      ->Unit(benchmark::kMillisecond)

#define OF_PIPELINE_BENCH(fn, mode)                                              \
  OF_PIPELINE_BENCH_ONE(fn, mode, Off, "scalar");                                \
  OF_PIPELINE_BENCH_ONE(fn, mode, Auto, "simd")

OF_PIPELINE_BENCH(BM_EncodeRound, Plain);
OF_PIPELINE_BENCH(BM_EncodeRound, PlainF16);
OF_PIPELINE_BENCH(BM_EncodeRound, TopK);
OF_PIPELINE_BENCH(BM_EncodeRound, Qsgd);
OF_PIPELINE_BENCH(BM_EncodeRound, Dp);
OF_PIPELINE_BENCH(BM_AggregateRound, Plain);
OF_PIPELINE_BENCH(BM_AggregateRound, PlainF16);
OF_PIPELINE_BENCH(BM_AggregateRound, TopK);
OF_PIPELINE_BENCH(BM_AggregateRound, Qsgd);
OF_PIPELINE_BENCH(BM_AggregateRound, Dp);
BENCHMARK_CAPTURE(BM_ModelPack, fresh, false)->Name("BM_ModelPack/fresh")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ModelPack, reused, true)->Name("BM_ModelPack/reused")->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
