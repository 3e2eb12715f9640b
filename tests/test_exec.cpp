// of::exec pool tests: chunk coverage, the determinism invariant (bitwise
// identical results for threads=1 and threads=N), exception propagation,
// nested regions, and concurrent callers (the TSan presets run this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "compression/quantize.hpp"
#include "config/yaml.hpp"
#include "core/payload.hpp"
#include "exec/pool.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/zoo.hpp"
#include "obs/registry.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using of::exec::ExecConfig;
using of::exec::kChunkWork;
using of::exec::Pool;
using of::tensor::Rng;
using of::tensor::Tensor;

// Every test leaves the global pool serial so test order cannot matter.
struct PoolGuard {
  ~PoolGuard() { Pool::global().configure(1); }
};

// Regions the pool has dispatched to its workers so far (inline regions
// are not counted).
std::uint64_t jobs() { return of::obs::Registry::global().counter("exec.jobs").value(); }

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool bitwise_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bitwise_equal(a[i], b[i])) return false;
  return true;
}

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

TEST(ExecConfig, FromConfigParsesThreadsAndGrain) {
  const auto node = of::config::parse_yaml("threads: 3\ngrain: 128\n");
  const auto cfg = ExecConfig::from_config(node);
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(cfg.grain, 128u);
}

TEST(ExecConfig, DefaultsAreSerial) {
  const auto cfg = ExecConfig::from_config(of::config::ConfigNode::map());
  EXPECT_EQ(cfg.threads, 1u);
  EXPECT_EQ(cfg.grain, 4096u);
}

TEST(ExecPool, RunChunksCoversRangeExactlyOnce) {
  PoolGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Pool::global().configure(threads);
    const std::size_t n = 10'001;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    const std::uint64_t before = jobs();
    // One item is a full chunk of work, so threads=4 must dispatch.
    Pool::global().run_chunks(n, 97, kChunkWork, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with threads=" << threads;
    EXPECT_EQ(jobs() - before, threads > 1 ? 1u : 0u) << "threads=" << threads;
  }
}

TEST(ExecPool, ChunkIndicesMatchFixedDecomposition) {
  PoolGuard guard;
  Pool::global().configure(4);
  const std::size_t n = 1000, grain = 128;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  Pool::global().run_chunks(n, grain, kChunkWork, [&](std::size_t c, std::size_t b, std::size_t e) {
    ranges[c] = {b, e};
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[c].first, c * grain);
    EXPECT_EQ(ranges[c].second, std::min(n, (c + 1) * grain));
  }
}

TEST(ExecPool, EmptyRangeAndOversizedGrain) {
  PoolGuard guard;
  Pool::global().configure(4);
  int calls = 0;
  Pool::global().run_chunks(0, 16, kChunkWork, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  Pool::global().run_chunks(5, 1'000'000, kChunkWork, [&](std::size_t c, std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ExecPool, ReduceBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto values = random_values(1 << 19, 0xC0FFEE);
  const auto partial = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += static_cast<double>(values[i]);
    return acc;
  };
  const auto combine = [](double a, double b) { return a + b; };

  Pool::global().configure(1);
  const float serial = static_cast<float>(Pool::global().parallel_reduce(
      values.size(), 4096, 1, 0.0, partial, combine));
  Pool::global().configure(4);
  const std::uint64_t before = jobs();
  const float parallel = static_cast<float>(Pool::global().parallel_reduce(
      values.size(), 4096, 1, 0.0, partial, combine));
  EXPECT_EQ(jobs() - before, 1u);  // 2^19 items fill two chunks of work

  std::uint32_t sbits = 0, pbits = 0;
  std::memcpy(&sbits, &serial, sizeof(sbits));
  std::memcpy(&pbits, &parallel, sizeof(pbits));
  EXPECT_EQ(sbits, pbits);
}

// One forward + backward of a zoo model: the logits and every gradient.
std::vector<Tensor> model_step(const std::string& name, std::size_t dim, std::size_t batch) {
  auto model = of::nn::zoo::make_model(name, dim, 10, 1);
  Rng rng(9);
  const Tensor x = Tensor::randn({batch, dim}, rng);
  std::vector<std::size_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) labels[i] = i % 10;
  model.zero_grad();
  const Tensor logits = model.forward(x);
  model.backward(of::nn::softmax_cross_entropy(logits, labels).grad);
  std::vector<Tensor> out{logits};
  for (const auto* p : model.parameters()) out.push_back(p->grad);
  return out;
}

// mean_updates over three client frames of `n` coordinates, plain f32 or
// QSGD 8-bit.
std::vector<Tensor> mean_of_three(std::size_t n, bool qsgd) {
  Rng rng(11);
  std::vector<of::tensor::Bytes> frames;
  for (int c = 0; c < 3; ++c) {
    of::compression::QSGD codec(8, 100 + static_cast<std::uint64_t>(c));
    of::core::PayloadPlugins plugins;
    if (qsgd) plugins.compressor = &codec;
    frames.push_back(of::core::encode_update({Tensor::randn({n}, rng)}, 1.0, plugins, c, 3));
  }
  of::compression::QSGD decoder(8, 0);
  return of::core::mean_updates(frames, qsgd ? &decoder : nullptr, nullptr);
}

// Every kernel on the exec pool, once below and once above its dispatch
// gate: the outputs at threads=1 and threads=4 must be bitwise identical,
// and at threads=4 the below-gate shape must run inline while the
// above-gate shape dispatches exactly `jobs` regions.
TEST(ExecPool, TensorKernelsBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto matmul = [](std::size_t m, std::size_t k, std::size_t n) {
    Rng rng(42);
    const Tensor a = Tensor::randn({m, k}, rng);
    return std::vector<Tensor>{a.matmul(Tensor::randn({k, n}, rng))};
  };
  const auto transpose = [](std::size_t r, std::size_t c) {
    Rng rng(43);
    return std::vector<Tensor>{Tensor::randn({r, c}, rng).transpose2d()};
  };
  // Ten elementwise kernels in a chain: ten regions above the gate.
  const auto elementwise = [](std::size_t n) {
    Rng rng(44);
    const Tensor y = Tensor::randn({n}, rng);
    const Tensor z = Tensor::uniform({n}, rng, 0.5f, 2.0f);
    Tensor t = Tensor::randn({n}, rng);
    t.add_(y).sub_(z).mul_(y).div_(z).add_scalar_(0.25f).scale_(1.5f);
    t.add_scaled_(y, -0.5f).clamp_(-2.0f, 2.0f);
    Tensor u = t;
    u.abs_();
    Tensor v = t;
    v.sign_();
    return std::vector<Tensor>{t, u, v};
  };
  // Three reductions over 2^15-element chunks: one region each above.
  const auto reductions = [](std::size_t n) {
    Rng rng(45);
    const Tensor t = Tensor::randn({n}, rng);
    return std::vector<Tensor>{Tensor::from_vector({t.sum(), t.l2_norm_squared(), t.dot(t)})};
  };

  struct Case {
    const char* name;
    std::function<std::vector<Tensor>()> run;
    std::uint64_t jobs;  // regions dispatched at threads=4
  };
  const std::vector<Case> cases = {
      // resnet18_mini's hidden layer at batch 32: 205k multiply-adds.
      {"matmul 32x80x80", [&] { return matmul(32, 80, 80); }, 0},
      {"matmul 192^3", [&] { return matmul(192, 192, 192); }, 1},
      {"transpose 64x512", [&] { return transpose(64, 512); }, 0},
      {"transpose 1536x512", [&] { return transpose(1536, 512); }, 1},
      {"elementwise 2560", [&] { return elementwise(2560); }, 0},
      {"elementwise 2^20", [&] { return elementwise(1 << 20); }, 10},
      {"reductions 2^16", [&] { return reductions(1 << 16); }, 0},
      {"reductions 2^20", [&] { return reductions(1 << 20); }, 3},
      // cnn_mini on 4x4 images at batch 16 stays inline; on 28x28 both
      // convolutions dispatch forward and backward while its small head
      // stays inline.
      {"cnn_mini 4x4 batch 16", [] { return model_step("cnn_mini", 16, 16); }, 0},
      {"cnn_mini 28x28 batch 32", [] { return model_step("cnn_mini", 784, 32); }, 4},
      {"mean_updates plain 31k", [] { return mean_of_three(31'000, false); }, 0},
      {"mean_updates plain 2^18", [] { return mean_of_three(1 << 18, false); }, 1},
      // Compressed frames decode one at a time; each accumulate is a region.
      {"mean_updates qsgd 31k", [] { return mean_of_three(31'000, true); }, 0},
      {"mean_updates qsgd 2^19", [] { return mean_of_three(1 << 19, true); }, 3},
  };

  for (const auto& c : cases) {
    Pool::global().configure(1);
    const std::uint64_t serial_before = jobs();
    const auto serial = c.run();
    EXPECT_EQ(jobs() - serial_before, 0u) << c.name << " dispatched on a serial pool";

    Pool::global().configure(4);
    const std::uint64_t before = jobs();
    const auto parallel = c.run();
    EXPECT_EQ(jobs() - before, c.jobs) << c.name;
    EXPECT_TRUE(bitwise_equal(serial, parallel)) << c.name << " differs across thread counts";
  }
}

// The fig2 shape: a resnet18_mini train step at batch 32 is too small for
// any region to pay for its dispatch, so a 4-thread pool runs it all inline.
TEST(ExecPool, Resnet18MiniTrainStepDispatchesNothing) {
  PoolGuard guard;
  Pool::global().configure(4);
  auto model = of::nn::zoo::make_model("resnet18_mini", 64, 10, 1);
  of::nn::SGD opt(model.parameters(), 0.1f, 0.9f);
  Rng rng(4);
  const Tensor x = Tensor::randn({32, 64}, rng);
  std::vector<std::size_t> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  const std::uint64_t before = jobs();
  model.zero_grad();
  const Tensor logits = model.forward(x);
  model.backward(of::nn::softmax_cross_entropy(logits, labels).grad);
  opt.step();
  EXPECT_EQ(jobs() - before, 0u);
}

TEST(ExecPool, ExceptionPropagatesAndPoolSurvives) {
  PoolGuard guard;
  Pool::global().configure(4);
  EXPECT_THROW(
      Pool::global().run_chunks(1000, 10, kChunkWork,
                                [&](std::size_t c, std::size_t, std::size_t) {
                                  if (c == 3) throw std::runtime_error("chunk 3 failed");
                                }),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<std::size_t> covered{0};
  const std::uint64_t before = jobs();
  Pool::global().parallel_for(128, kChunkWork, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(jobs() - before, 1u);
  EXPECT_EQ(covered.load(), 128u);
}

TEST(ExecPool, NestedRegionsRunInline) {
  PoolGuard guard;
  Pool::global().configure(4);
  std::atomic<std::size_t> inner_total{0};
  const std::uint64_t before = jobs();
  Pool::global().parallel_for(8, kChunkWork, [&](std::size_t b, std::size_t e) {
    EXPECT_TRUE(Pool::in_parallel_region());
    for (std::size_t i = b; i < e; ++i) {
      // Must not deadlock and must still cover its range.
      Pool::global().parallel_for(100, kChunkWork, [&](std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 800u);
  EXPECT_EQ(jobs() - before, 1u);  // only the outer region dispatched
  EXPECT_FALSE(Pool::in_parallel_region());
}

TEST(ExecPool, ConcurrentCallersShareThePool) {
  PoolGuard guard;
  Pool::global().configure(4);
  // Several node threads submitting regions at once — the shape the Engine
  // produces, and the scenario the TSan preset checks for races.
  constexpr int kCallers = 4;
  std::vector<std::vector<float>> results(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &results] {
      const auto values = random_values(1 << 15, 77 + static_cast<std::uint64_t>(t));
      results[static_cast<std::size_t>(t)].assign(values.size(), 0.0f);
      auto& out = results[static_cast<std::size_t>(t)];
      for (int rep = 0; rep < 10; ++rep) {
        // 64 chunks of 512 items, each costed as a full chunk of work.
        Pool::global().run_chunks(values.size(), 512, kChunkWork,
                                  [&](std::size_t, std::size_t b, std::size_t e) {
                                    for (std::size_t i = b; i < e; ++i) out[i] = values[i] * 2.0f;
                                  });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) {
    const auto values = random_values(1 << 15, 77 + static_cast<std::uint64_t>(t));
    for (std::size_t i = 0; i < values.size(); ++i)
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i], values[i] * 2.0f);
  }
}

TEST(ExecPool, ConfigureZeroMeansHardwareConcurrency) {
  PoolGuard guard;
  Pool::global().configure(0);
  EXPECT_GE(Pool::global().threads(), 1u);
}

}  // namespace
