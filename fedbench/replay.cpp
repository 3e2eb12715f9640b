#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "algorithms/algorithm.hpp"
#include "comm/star.hpp"
#include "common/nonfinite.hpp"
#include "compression/compressor.hpp"
#include "core/engine.hpp"
#include "core/payload.hpp"
#include "data/partition.hpp"
#include "exec/pool.hpp"
#include "nn/zoo.hpp"
#include "obs/telemetry.hpp"
#include "serve/buffer.hpp"
#include "serve/sampler.hpp"

namespace fedbench {
namespace {

namespace core = of::core;
namespace comm = of::comm;
using of::tensor::Bytes;
using of::tensor::Tensor;
using Clock = std::chrono::steady_clock;

constexpr int kTagModel = 11;
constexpr int kTagUpdate = 12;
constexpr int kTagEcho = 13;
// Round id of the probe spans, which lie outside every replayed round.
constexpr std::uint64_t kProbe = std::numeric_limits<std::uint64_t>::max();
const char* const kFedAvg = "src.omnifed.algorithm.FedAvg";

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t hw_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

void use_pool(std::size_t threads) {
  of::exec::Pool::global().configure(threads ? threads : hw_threads(), 4096);
}

// One star of communicators: rank 0 is the hub. Built through
// OwnedComm::make exactly like a node thread builds its links.
struct Star {
  std::unique_ptr<comm::InProcGroup> group;
  std::vector<core::OwnedComm> ends;

  comm::Communicator& at(int r) { return *ends[static_cast<std::size_t>(r)].use; }
  int world() const { return static_cast<int>(ends.size()); }
};

Star make_star(bool tcp, int world, std::optional<comm::LinkModel> link) {
  Star s;
  s.ends.resize(static_cast<std::size_t>(world));
  core::CommSpec spec;
  spec.world = world;
  spec.link = link;
  spec.delay_mode = comm::DelayMode::Virtual;
  if (!tcp) {
    s.group = std::make_unique<comm::InProcGroup>(world);
    spec.backend = core::CommSpec::Backend::InProc;
    spec.group = s.group.get();
    for (int r = 0; r < world; ++r) {
      spec.rank = r;
      s.ends[static_cast<std::size_t>(r)] = core::OwnedComm::make(spec);
    }
    return s;
  }
  spec.backend = core::CommSpec::Backend::Tcp;
  spec.port = fresh_port();
  // The server blocks in accept until every client has connected.
  std::exception_ptr server_error;
  std::thread server([&] {
    try {
      core::CommSpec hub = spec;
      hub.rank = 0;
      s.ends[0] = core::OwnedComm::make(hub);
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  std::exception_ptr client_error;
  try {
    for (int r = 1; r < world; ++r) {
      spec.rank = r;
      s.ends[static_cast<std::size_t>(r)] = core::OwnedComm::make(spec);
    }
  } catch (...) {
    client_error = std::current_exception();
  }
  server.join();
  if (server_error) std::rethrow_exception(server_error);
  if (client_error) std::rethrow_exception(client_error);
  return s;
}

struct Trainer {
  of::nn::Model model;
  std::unique_ptr<of::nn::Optimizer> optimizer;
  std::unique_ptr<of::data::DataLoader> loader;
  std::unique_ptr<of::algorithms::Algorithm> algo;
  std::unique_ptr<of::compression::Compressor> codec;  // client-link codec
  of::tensor::Rng rng;
  of::algorithms::TrainContext ctx;
  core::FramePool pool;
  Bytes frame;
  double weight_scale = 1.0;
  int cohort = 0;
  int cohort_size = 1;
  double last_loss = 0.0;
  std::size_t update_bytes = 0;  // f32 bytes of one update
};

class Replay {
 public:
  Replay(const Workload& w, std::uint64_t seed, SpanRecorder& rec)
      : w_(w), seed_(seed), rec_(rec) {}

  void setup();
  void round(std::uint64_t r);
  void probes(double budget_s);
  // Median duration (µs) of the spans called `name`.
  double us(const std::string& name) const { return median(rec_.durations(name)) * 1e6; }

  std::vector<Metric> metrics_;
  bool ok_ = true;
  std::uint64_t updates_ = 0;
  std::uint64_t errors_ = 0;

 private:
  using Scope = SpanRecorder::Scope;
  Scope span(const char* name, std::uint64_t r) { return rec_.scope(name, r); }

  void client_round(Trainer& t, comm::Communicator& end, std::uint64_t r);
  void central_round(std::uint64_t r);
  void serve_round(std::uint64_t r);
  void hier_round(std::uint64_t r);
  std::unique_ptr<of::compression::Compressor> make_codec() const;
  // Loops `fn` until `n` iterations or `budget_s` seconds, at least once.
  static void repeat(int n, double budget_s, const std::function<void()>& fn);
  void note_peak(std::size_t bytes) { stream_peak_ = std::max(stream_peak_, bytes); }

  const Workload& w_;
  std::uint64_t seed_;
  SpanRecorder& rec_;

  of::data::TrainTest data_;
  std::vector<std::unique_ptr<Trainer>> trainers_;
  of::nn::Model server_model_;
  std::unique_ptr<of::algorithms::Algorithm> server_algo_;
  of::algorithms::ServerState state_;
  core::FramePool root_pool_;
  std::unique_ptr<of::compression::Compressor> root_codec_;  // decode side
  std::vector<Bytes> frames_;
  std::size_t stream_peak_ = 0;

  // Central / Serve: one star of trainers. Hier: inner stars per group plus
  // the outer star of leaders.
  std::unique_ptr<Star> star_;
  std::vector<std::unique_ptr<Star>> inner_;
  std::unique_ptr<Star> outer_;
  std::vector<std::unique_ptr<core::FramePool>> group_pools_;
  std::vector<std::unique_ptr<core::StreamingSum>> group_sums_;
  std::vector<std::unique_ptr<of::compression::Compressor>> leader_codecs_;
  std::vector<double> partial_scale_;
  std::vector<Bytes> partials_;
  std::unique_ptr<core::StreamingSum> root_sum_;

  // Serve.
  std::unique_ptr<of::serve::ClientSampler> sampler_;
  std::unique_ptr<of::serve::StalenessBuffer> buffer_;
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> invited_;
  std::vector<bool> in_flight_;
  std::deque<int> queue_;
};

std::unique_ptr<of::compression::Compressor> Replay::make_codec() const {
  return of::compression::make_compressor(codec_config(w_));
}

void Replay::setup() {
  use_pool(w_.exec_threads);
  auto spec = of::data::preset(w_.preset);
  if (w_.train_per_class) spec.train_per_class = w_.train_per_class;
  data_ = of::data::make_synthetic(spec, seed_);
  const auto T = static_cast<std::size_t>(w_.trainers());
  const auto parts = of::data::make_partition("iid", data_.train, T, 0.5, seed_ + 1);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  const bool hier = w_.shape == Shape::Hier;
  const bool plain_link = hier || w_.codec_yaml.empty();

  for (std::size_t i = 0; i < T; ++i) {
    auto t = std::make_unique<Trainer>();
    const std::uint64_t node_seed = seed_ + 1000 + i + 1;
    t->model = of::nn::zoo::make_model(w_.model, spec.dim, spec.classes, seed_);
    t->optimizer = std::make_unique<of::nn::SGD>(t->model.parameters(),
                                                 static_cast<float>(w_.lr), 0.9f, 1e-4f);
    t->loader = std::make_unique<of::data::DataLoader>(data_.train, parts[i], w_.batch_size,
                                                       true, node_seed + 7);
    t->algo = of::algorithms::make_algorithm(kFedAvg);
    if (!plain_link) t->codec = make_codec();
    t->rng.reseed(node_seed);
    t->ctx.model = &t->model;
    t->ctx.optimizer = t->optimizer.get();
    t->ctx.loader = t->loader.get();
    t->ctx.local_epochs = w_.local_epochs;
    t->ctx.rng = &t->rng;
    t->ctx.params = of::config::ConfigNode::map();
    if (hier) {
      const int g = static_cast<int>(i) / w_.trainers_per_group;
      std::size_t gs = 0;
      for (int m = 0; m < w_.trainers_per_group; ++m)
        gs += parts[static_cast<std::size_t>(g * w_.trainers_per_group + m)].size();
      t->cohort = static_cast<int>(i) % w_.trainers_per_group;
      t->cohort_size = w_.trainers_per_group;
      t->weight_scale = static_cast<double>(parts[i].size()) * w_.trainers_per_group /
                        static_cast<double>(gs);
    } else {
      t->cohort = static_cast<int>(i);
      t->cohort_size = static_cast<int>(T);
      // The serve tier's staleness weights replace the sample pre-scale.
      t->weight_scale = w_.shape == Shape::Serve
                            ? 1.0
                            : static_cast<double>(parts[i].size()) * static_cast<double>(T) /
                                  static_cast<double>(total);
    }
    t->ctx.client_id = t->cohort;
    t->ctx.num_clients = t->cohort_size;
    trainers_.push_back(std::move(t));
  }
  server_model_ = of::nn::zoo::make_model(w_.model, spec.dim, spec.classes, seed_);
  server_algo_ = of::algorithms::make_algorithm(kFedAvg);
  state_.params = of::config::ConfigNode::map();
  state_.global = server_algo_->initial_global(server_model_);
  if (!plain_link) root_codec_ = make_codec();
  frames_.resize(T);

  if (!hier) {
    star_ = std::make_unique<Star>(make_star(w_.tcp, static_cast<int>(T) + 1, std::nullopt));
  } else {
    for (int g = 0; g < w_.groups; ++g) {
      inner_.push_back(std::make_unique<Star>(
          make_star(false, w_.trainers_per_group + 1, comm::LinkModel{50e-6, 10e9 / 8})));
      group_pools_.push_back(std::make_unique<core::FramePool>());
      group_sums_.push_back(std::make_unique<core::StreamingSum>(*group_pools_.back()));
      leader_codecs_.push_back(make_codec());
      std::size_t gs = 0;
      for (int m = 0; m < w_.trainers_per_group; ++m)
        gs += parts[static_cast<std::size_t>(g * w_.trainers_per_group + m)].size();
      partial_scale_.push_back(static_cast<double>(gs) * static_cast<double>(T) /
                               (w_.trainers_per_group * static_cast<double>(total)));
    }
    partials_.resize(static_cast<std::size_t>(w_.groups));
    outer_ = std::make_unique<Star>(
        make_star(w_.tcp, w_.groups, comm::LinkModel{20e-3, 100e6 / 8}));
    root_codec_ = make_codec();
    root_sum_ = std::make_unique<core::StreamingSum>(root_pool_, root_codec_.get());
  }
  if (w_.shape == Shape::Serve) {
    sampler_ = std::make_unique<of::serve::ClientSampler>(seed_ ^ 0x5E1EC7ULL);
    buffer_ = std::make_unique<of::serve::StalenessBuffer>(root_pool_, root_codec_.get(), 2,
                                                           4, 0.6);
    invited_.assign(T + 1, 0);
    in_flight_.assign(T + 1, false);
  }
}

void Replay::client_round(Trainer& t, comm::Communicator& end, std::uint64_t r) {
  Bytes g;
  {
    auto s = span("comm.recv", r);
    g = end.recv_bytes(0, kTagModel);
  }
  std::vector<Tensor> global;
  {
    auto s = span("payload.model_unpack", r);
    global = core::unpack_tensors(g);
  }
  {
    auto s = span("algorithms.apply_global", r);
    if (r == 0) t.algo->on_train_start(t.ctx);
    t.ctx.round = r;
    t.algo->apply_global(t.ctx, global);
    t.algo->on_round_start(t.ctx);
  }
  for (std::size_t b = 0; b < t.loader->num_batches(); ++b) {
    auto s = span("data.batch", r);
    (void)t.loader->batch(b);
  }
  of::algorithms::TrainStats stats;
  {
    auto s = span("nn.local_train", r);
    stats = t.algo->local_train(t.ctx);
  }
  t.last_loss = stats.mean_loss();
  std::vector<Tensor> update;
  {
    auto s = span("algorithms.client_update", r);
    update = t.algo->client_update(t.ctx);
    t.algo->on_round_end(t.ctx);
    // The serve tier's wire carries the delta against the model trained from.
    if (w_.shape == Shape::Serve)
      for (std::size_t i = 0; i < update.size(); ++i) update[i].sub_(global[i]);
  }
  t.update_bytes = 0;
  for (const auto& x : update) t.update_bytes += x.numel() * sizeof(float);
  {
    auto s = span("payload.encode", r);
    if (t.codec) t.codec->set_stream(r, static_cast<std::uint64_t>(t.cohort));
    const core::PayloadPlugins plugins{t.codec.get(), nullptr};
    try {
      core::encode_update_into(update, t.weight_scale, plugins, t.cohort, t.cohort_size,
                               t.pool, t.frame);
    } catch (const of::NonFiniteUpdateError&) {
      ++errors_;
      ok_ = false;
      t.frame = core::encode_skip_update();
    }
  }
  {
    auto s = span("comm.send", r);
    end.send_bytes(0, kTagUpdate, t.frame);
  }
  ++updates_;
}

void Replay::central_round(std::uint64_t r) {
  Star& st = *star_;
  Bytes gbytes;
  {
    auto s = span("payload.model_pack", r);
    gbytes = core::pack_tensors(state_.global);
  }
  {
    auto s = span("comm.send", r);
    for (int k = 1; k < st.world(); ++k) st.at(0).send_bytes(k, kTagModel, gbytes);
  }
  for (int k = 1; k < st.world(); ++k)
    client_round(*trainers_[static_cast<std::size_t>(k - 1)], st.at(k), r);
  {
    auto s = span("comm.recv", r);
    for (int k = 1; k < st.world(); ++k)
      frames_[static_cast<std::size_t>(k - 1)] = st.at(0).recv_bytes(k, kTagUpdate);
  }
  std::vector<Tensor> mean;
  {
    auto s = span("payload.aggregate", r);
    mean = core::mean_updates(frames_, root_codec_.get(), nullptr, &root_pool_);
  }
  auto s = span("algorithms.server_update", r);
  state_.round = r;
  state_.global = server_algo_->server_update(state_, mean);
}

// One aggregation window of the serve loop: sample, invite (one model pack
// per invite, as the serve aggregator does), then fold arriving updates
// into the staleness buffer until it drains.
void Replay::serve_round(std::uint64_t r) {
  Star& st = *star_;
  std::vector<int> alive;
  for (int k = 1; k < st.world(); ++k) alive.push_back(k);
  std::vector<int> sample;
  {
    auto s = span("serve.sample", r);
    sample = sampler_->sample(version_, alive, 1.0);
  }
  for (int k : sample) {
    if (in_flight_[static_cast<std::size_t>(k)]) continue;
    Bytes packed;
    {
      auto s = span("payload.model_pack", r);
      packed = core::pack_tensors(state_.global);
    }
    {
      auto s = span("comm.send", r);
      st.at(0).send_bytes(k, kTagModel, packed);
    }
    invited_[static_cast<std::size_t>(k)] = version_;
    in_flight_[static_cast<std::size_t>(k)] = true;
    queue_.push_back(k);
  }
  while (!queue_.empty()) {
    const int k = queue_.front();
    queue_.pop_front();
    in_flight_[static_cast<std::size_t>(k)] = false;
    client_round(*trainers_[static_cast<std::size_t>(k - 1)], st.at(k), r);
    Bytes frame;
    {
      auto s = span("comm.recv", r);
      frame = st.at(0).recv_bytes(k, kTagUpdate);
    }
    {
      auto s = span("serve.admit", r);
      (void)buffer_->offer(frame, version_ - invited_[static_cast<std::size_t>(k)]);
    }
    if (buffer_->ready()) {
      auto s = span("serve.drain", r);
      const auto mean = buffer_->drain();
      for (std::size_t i = 0; i < mean.size(); ++i) state_.global[i].add_scaled_(mean[i], 1.0f);
      ++version_;
      break;
    }
  }
  note_peak(buffer_->peak_bytes());
}

void Replay::hier_round(std::uint64_t r) {
  const int G = w_.groups;
  const int M = w_.trainers_per_group;
  Bytes gbytes;
  {
    auto s = span("payload.model_pack", r);
    gbytes = core::pack_tensors(state_.global);
  }
  {
    auto s = span("comm.send", r);
    for (int g = 1; g < G; ++g) outer_->at(0).send_bytes(g, kTagModel, gbytes);
  }
  for (int g = 0; g < G; ++g) {
    Bytes gb = gbytes;
    if (g > 0) {
      auto s = span("comm.recv", r);
      gb = outer_->at(g).recv_bytes(0, kTagModel);
    }
    auto s = span("comm.send", r);
    for (int m = 1; m <= M; ++m) inner_[static_cast<std::size_t>(g)]->at(0).send_bytes(m, kTagModel, gb);
  }
  for (int g = 0; g < G; ++g)
    for (int m = 1; m <= M; ++m)
      client_round(*trainers_[static_cast<std::size_t>(g * M + m - 1)],
                   inner_[static_cast<std::size_t>(g)]->at(m), r);
  for (int g = 0; g < G; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    auto& sum = *group_sums_[gi];
    sum.reset();
    for (int m = 1; m <= M; ++m) {
      Bytes f;
      {
        auto s = span("comm.recv", r);
        f = inner_[gi]->at(0).recv_bytes(m, kTagUpdate);
      }
      auto s = span("payload.stream_add", r);
      sum.add(f);
    }
    {
      auto s = span("payload.partial_encode", r);
      leader_codecs_[gi]->set_stream(r, gi);
      sum.encode_partial_into(partial_scale_[gi], leader_codecs_[gi].get(), partials_[gi]);
    }
    note_peak(sum.peak_bytes());
    if (g > 0) {
      auto s = span("comm.send", r);
      outer_->at(g).send_bytes(0, kTagUpdate, partials_[gi]);
    }
  }
  root_sum_->reset();
  {
    auto s = span("payload.partial_add", r);
    root_sum_->add_partial(partials_[0]);
  }
  for (int g = 1; g < G; ++g) {
    Bytes p;
    {
      auto s = span("comm.recv", r);
      p = outer_->at(0).recv_bytes(g, kTagUpdate);
    }
    auto s = span("payload.partial_add", r);
    root_sum_->add_partial(p);
  }
  std::vector<Tensor> mean;
  {
    auto s = span("payload.stream_finish", r);
    mean = root_sum_->finish_mean();
  }
  auto s = span("algorithms.server_update", r);
  state_.round = r;
  state_.global = server_algo_->server_update(state_, mean);
}

void Replay::round(std::uint64_t r) {
  auto s = span("round", r);
  switch (w_.shape) {
    case Shape::Central: central_round(r); break;
    case Shape::Serve: serve_round(r); break;
    case Shape::Hier: hier_round(r); break;
  }
  for (const auto& t : trainers_)
    if (!std::isfinite(t->last_loss)) ok_ = false;
}

void Replay::repeat(int n, double budget_s, const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    fn();
    if (since(t0) > budget_s) break;
  }
}

void Replay::probes(double budget_s) {
  const double each = budget_s / 10.0;
  Trainer& t0 = *trainers_.front();
  const std::size_t T = trainers_.size();
  const of::data::Batch first = t0.loader->batch(0);

  // nn: forward, loss + backward and optimizer step, at the workload's
  // model, batch and pool.
  {
    std::size_t b = 0;
    repeat(40, each, [&] {
      const of::data::Batch batch = t0.loader->batch(b++ % t0.loader->num_batches());
      t0.model.zero_grad();
      Tensor logits;
      {
        auto s = span("nn.forward", kProbe);
        logits = t0.model.forward(batch.x);
      }
      {
        auto s = span("nn.backward", kProbe);
        const auto lg = of::nn::softmax_cross_entropy(logits, batch.y);
        t0.model.backward(lg.grad);
      }
      auto s = span("nn.optimizer", kProbe);
      t0.optimizer->step();
    });
  }

  // tensor: matmul at the model's widest Linear (batch x in x out), with the
  // pool at 1 and at one thread per hardware thread.
  {
    const of::nn::Parameter* widest = nullptr;
    for (const auto* p : t0.model.parameters())
      if (p->value.shape().size() == 2 && (!widest || p->value.numel() > widest->value.numel()))
        widest = p;
    const std::size_t m = first.size();
    const std::size_t k = widest->value.shape()[0];
    const std::size_t n = widest->value.shape()[1];
    of::tensor::Rng rng(seed_);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor bm = Tensor::randn({k, n}, rng);
    const double flop = 2.0 * static_cast<double>(m * k * n);
    for (const auto& [name, threads] : {std::pair<std::string, std::size_t>{"tensor.matmul_1t", 1},
                                        {"tensor.matmul_nt", hw_threads()}}) {
      use_pool(threads);
      repeat(200, each / 2, [&] {
        auto s = rec_.scope(name, kProbe);
        (void)a.matmul(bm);
      });
      metrics_.push_back({name == "tensor.matmul_1t" ? "tensor.matmul_gflops_1t"
                                                     : "tensor.matmul_gflops_nt",
                          flop / (median(rec_.durations(name)) * 1e9), "GFLOP/s"});
    }
    use_pool(w_.exec_threads);
  }

  // exec: local_train at 1 thread over one thread per hardware thread.
  {
    repeat(4, each, [&] {
      use_pool(1);
      {
        auto s = span("exec.local_train_1t", kProbe);
        (void)t0.algo->local_train(t0.ctx);
      }
      use_pool(hw_threads());
      auto s = span("exec.local_train_nt", kProbe);
      (void)t0.algo->local_train(t0.ctx);
    });
    use_pool(w_.exec_threads);
    metrics_.push_back({"exec.speedup", us("exec.local_train_1t") / us("exec.local_train_nt"), "x"});
  }

  // payload: decode one client frame; mean_updates, the weighted stream
  // fold and the partial path over one round's frames, wherever the round
  // itself did not call them.
  std::vector<Bytes> frames;
  for (const auto& t : trainers_) frames.push_back(t->frame);
  repeat(40, each, [&] {
    auto s = span("payload.decode", kProbe);
    (void)core::decode_update(frames.front(), root_codec_.get());
  });
  if (w_.shape != Shape::Central)
    repeat(20, each, [&] {
      auto s = span("payload.aggregate", kProbe);
      (void)core::mean_updates(frames, root_codec_.get(), nullptr, &root_pool_);
    });
  if (w_.shape != Shape::Hier) {
    core::FramePool pool;
    core::StreamingSum sum(pool, root_codec_.get());
    core::StreamingSum up(pool, nullptr);
    const double weight = w_.shape == Shape::Serve ? 0.6 / 2.0 : 1.0;
    Bytes partial;
    repeat(20, each, [&] {
      sum.reset();
      for (const auto& f : frames) {
        auto s = span("payload.stream_add", kProbe);
        sum.add(f, weight);
      }
      {
        auto s = span("payload.partial_encode", kProbe);
        sum.encode_partial_into(1.0, nullptr, partial);
      }
      {
        up.reset();
        auto s = span("payload.partial_add", kProbe);
        up.add_partial(partial);
      }
      auto s = span("payload.stream_finish", kProbe);
      (void)sum.finish_mean();
    });
    if (w_.shape == Shape::Central) note_peak(sum.peak_bytes());
  }

  // compression: the workload's codec (the reference QSGD 8-bit codec on
  // plain-f32 workloads) over one flattened client update.
  {
    auto codec = make_codec();
    std::vector<float> flat;
    for (const auto& x : t0.algo->client_update(t0.ctx))
      flat.insert(flat.end(), x.data(), x.data() + x.numel());
    std::vector<float> back(flat.size());
    of::compression::Compressed c;
    repeat(40, each, [&] {
      {
        auto s = span("compression.encode", kProbe);
        codec->compress(of::tensor::ConstFloatSpan(flat), c);
      }
      auto s = span("compression.decode", kProbe);
      codec->decompress(of::compression::CompressedView(c), of::tensor::FloatSpan(back));
    });
    metrics_.push_back({"compression.ratio",
                        static_cast<double>(flat.size() * sizeof(float)) /
                            static_cast<double>(std::max<std::size_t>(c.payload.size(), 1)),
                        "x"});
  }

  // comm: echo of one client frame over the workload's TCP link (InProc
  // for InProc workloads); star broadcast and gather of K frames.
  Star& link = w_.shape == Shape::Hier ? *outer_ : *star_;
  repeat(100, each, [&] {
    auto s = span("comm.frame_rtt", kProbe);
    link.at(1).send_bytes(0, kTagEcho, frames.front());
    const Bytes b = link.at(0).recv_bytes(1, kTagEcho);
    link.at(0).send_bytes(1, kTagEcho, b);
    (void)link.at(1).recv_bytes(0, kTagEcho);
  });
  {
    Star& st = w_.shape == Shape::Hier ? *inner_.front() : *star_;
    const int iters = 30;
    Bytes model = core::pack_tensors(state_.global);
    std::vector<std::thread> peers;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(st.world()));
    for (int k = 1; k < st.world(); ++k)
      peers.emplace_back([&, k] {
        try {
          const Bytes& mine = frames[static_cast<std::size_t>(k - 1) % frames.size()];
          for (int i = 0; i < iters; ++i) {
            Bytes b;
            comm::star::broadcast_bytes(st.at(k), b, 0);
            (void)comm::star::gather_bytes(st.at(k), mine, 0);
          }
        } catch (...) {
          errors[static_cast<std::size_t>(k)] = std::current_exception();
        }
      });
    try {
      for (int i = 0; i < iters; ++i) {
        {
          auto s = span("comm.broadcast", kProbe);
          comm::star::broadcast_bytes(st.at(0), model, 0);
        }
        auto s = span("comm.gather", kProbe);
        (void)comm::star::gather_bytes(st.at(0), {}, 0);
      }
    } catch (...) {
      errors[0] = std::current_exception();
    }
    for (auto& p : peers) p.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  // serve: sampling, admission and drain at the workload's population and
  // buffer (lockstep workloads: a buffer of one round's updates).
  {
    std::vector<int> alive;
    for (std::size_t k = 1; k <= T; ++k) alive.push_back(static_cast<int>(k));
    of::serve::ClientSampler sampler(seed_);
    std::uint64_t window = 0;
    repeat(200, each / 2, [&] {
      auto s = span("serve.sample", kProbe);
      (void)sampler.sample(window++, alive, 1.0);
    });
    if (w_.shape != Shape::Serve) {
      core::FramePool pool;
      of::serve::StalenessBuffer buffer(pool, root_codec_.get(), T, 0, 0.6);
      repeat(20, each, [&] {
        for (const auto& f : frames) {
          auto s = span("serve.admit", kProbe);
          (void)buffer.offer(f, 0);
        }
        auto s = span("serve.drain", kProbe);
        (void)buffer.drain();
      });
      const double seen = static_cast<double>(buffer.accepted_total() +
                                              buffer.rejected_stale_total() +
                                              buffer.rejected_full_total());
      metrics_.push_back({"serve.accept_share", seen > 0 ? buffer.accepted_total() / seen : 0.0,
                          "ratio"});
      metrics_.push_back({"serve.mean_staleness",
                          buffer.accepted_total()
                              ? static_cast<double>(buffer.staleness_sum()) /
                                    static_cast<double>(buffer.accepted_total())
                              : 0.0,
                          "versions"});
    }
  }

  // algorithms: the server step, where the round did not call it.
  if (w_.shape == Shape::Serve) {
    const auto mean = core::mean_updates(frames, root_codec_.get(), nullptr, &root_pool_);
    repeat(20, each / 2, [&] {
      auto s = span("algorithms.server_update", kProbe);
      of::algorithms::ServerState st = state_;
      (void)server_algo_->server_update(st, mean);
    });
  }

  const double encode_s = median(rec_.durations("payload.encode"));
  metrics_.push_back({"payload.encode_gbps",
                      encode_s > 0 ? static_cast<double>(t0.update_bytes) / encode_s / 1e9 : 0.0,
                      "GB/s"});
  metrics_.push_back({"payload.stream_peak_kb", static_cast<double>(stream_peak_) / 1024.0,
                      "KiB"});
}

// Self time per layer within the replayed rounds, and how much of each
// round the layer spans cover.
void layer_accounting(const SpanRecorder& rec, std::size_t rounds, Traced& out,
                      std::vector<Metric>& metrics) {
  const auto& spans = rec.spans();
  const auto self = self_times(spans);
  std::map<std::string, double> layer_self;
  double round_total = 0.0, round_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].round == kProbe) continue;
    if (spans[i].name == "round") {
      round_total += spans[i].seconds();
      round_self += self[i];
    } else {
      layer_self[layer_of(spans[i].name)] += self[i];
    }
  }
  const double per_round = rounds ? 1e3 / static_cast<double>(rounds) : 0.0;
  for (const char* layer : {"data", "nn", "payload", "comm", "serve", "algorithms"})
    metrics.push_back({std::string("replay.") + layer + "_self_ms", layer_self[layer] * per_round,
                       "ms/round"});
  metrics.push_back({"bench.span_cover_share",
                     round_total > 0 ? 1.0 - round_self / round_total : 0.0, "ratio"});
  for (const auto& [layer, s] : layer_self)
    if (s > out.largest_share) {
      out.largest_share = s;
      out.largest_layer = layer;
    }
  out.largest_share = round_total > 0 ? out.largest_share / round_total : 0.0;
}

double phase_ms(const std::vector<of::core::RoundRecord>& rounds, double of::core::RoundRecord::*f) {
  double sum = 0.0;
  for (const auto& r : rounds) sum += r.*f;
  return rounds.empty() ? 0.0 : sum * 1e3 / static_cast<double>(rounds.size());
}

std::vector<double> round_seconds(const std::vector<EngineRun>& runs) {
  std::vector<double> out;
  for (const auto& r : runs)
    for (const auto& rec : r.result.rounds) out.push_back(rec.seconds);
  return out;
}

}  // namespace

Traced run_traced(const Workload& w, std::uint64_t seed, double seconds, SpanRecorder& rec) {
  Traced out;
  const auto t0 = Clock::now();
  Replay rp(w, seed, rec);
  bool replay_ok = false;
  try {
    rp.setup();
    // (a) The layer replay: rounds for about a third of the budget, then
    // the single-call probes.
    std::uint64_t r = 0;
    while (r < 3 || since(t0) < seconds * 0.3) rp.round(r++);
    out.replay_rounds = r;
    rp.probes(seconds * 0.25);
    replay_ok = rp.ok_;
  } catch (const std::exception& e) {
    std::cerr << "fedbench: replay failed: " << e.what() << "\n";
  }
  use_pool(w.exec_threads);

  // (b) Engine runs, alternating obs off and on, for the rest of the budget.
  // serve_fedbuff needs `obs: full` for the ServeHealth totals.
  const ObsMode on = w.shape == Shape::Serve ? ObsMode::Full : ObsMode::Trace;
  std::vector<EngineRun> off_runs, on_runs;
  while (off_runs.empty() || since(t0) < seconds) {
    off_runs.push_back(run_engine(w, seed, w.rounds_per_engine, ObsMode::Off));
    on_runs.push_back(run_engine(w, seed, w.rounds_per_engine, on));
  }
  std::vector<EngineRun> all = off_runs;
  all.insert(all.end(), on_runs.begin(), on_runs.end());
  // Tracing must not change the result: on deterministic workloads every
  // run, obs on or off, ends on the same model.
  const bool engines_ok = outputs_agree(w, all);
  out.correct = replay_ok && engines_ok;
  for (const auto& r : all) {
    out.attempted += r.attempted;
    out.failed += r.ok && r.output_ok && engines_ok ? r.errors : r.attempted;
  }
  out.attempted += rp.updates_;
  out.failed += rp.errors_ + (replay_ok ? 0 : 1);
  if (out.failed > out.attempted) out.failed = out.attempted;

  auto& m = out.metrics;
  m.push_back({"data.batch_us", rp.us("data.batch"), "us"});
  m.push_back({"nn.forward_us", rp.us("nn.forward"), "us"});
  m.push_back({"nn.backward_us", rp.us("nn.backward"), "us"});
  m.push_back({"nn.optimizer_us", rp.us("nn.optimizer"), "us"});
  m.push_back({"nn.local_train_ms", rp.us("nn.local_train") / 1e3, "ms"});
  m.push_back({"payload.encode_us", rp.us("payload.encode"), "us"});
  m.push_back({"payload.decode_us", rp.us("payload.decode"), "us"});
  m.push_back({"payload.aggregate_us", rp.us("payload.aggregate"), "us"});
  m.push_back({"payload.stream_add_us", rp.us("payload.stream_add"), "us"});
  m.push_back({"payload.stream_finish_us", rp.us("payload.stream_finish"), "us"});
  m.push_back({"payload.partial_encode_us", rp.us("payload.partial_encode"), "us"});
  m.push_back({"payload.partial_add_us", rp.us("payload.partial_add"), "us"});
  m.push_back({"payload.model_pack_us", rp.us("payload.model_pack"), "us"});
  m.push_back({"payload.model_unpack_us", rp.us("payload.model_unpack"), "us"});
  m.push_back({"compression.encode_us", rp.us("compression.encode"), "us"});
  m.push_back({"compression.decode_us", rp.us("compression.decode"), "us"});
  m.push_back({"comm.frame_rtt_us", rp.us("comm.frame_rtt"), "us"});
  m.push_back({"comm.gather_us", rp.us("comm.gather"), "us"});
  m.push_back({"comm.broadcast_us", rp.us("comm.broadcast"), "us"});
  m.push_back({"serve.sample_us", rp.us("serve.sample"), "us"});
  m.push_back({"serve.admit_us", rp.us("serve.admit"), "us"});
  m.push_back({"serve.drain_us", rp.us("serve.drain"), "us"});
  m.push_back({"algorithms.server_update_us", rp.us("algorithms.server_update"), "us"});
  m.insert(m.end(), rp.metrics_.begin(), rp.metrics_.end());
  layer_accounting(rec, out.replay_rounds, out, m);

  // From the Engine runs: obs off for the pool and comm totals, obs on for
  // its overhead, its phase columns and the serve tier's health.
  double msgs = 0.0, inner_b = 0.0, outer_b = 0.0, modeled = 0.0;
  std::size_t rounds = 0;
  std::vector<double> hit_rates;
  for (const auto& r : off_runs) {
    if (!r.ok) continue;
    const auto& res = r.result;
    msgs += static_cast<double>(res.inner_comm.messages_sent + res.outer_comm.messages_sent);
    inner_b += static_cast<double>(res.inner_comm.bytes_sent);
    outer_b += static_cast<double>(res.outer_comm.bytes_sent);
    modeled += res.inner_comm.modeled_seconds + res.outer_comm.modeled_seconds;
    rounds += res.rounds.size();
    if (res.pool_hit_rate >= 0) hit_rates.push_back(res.pool_hit_rate);
  }
  const double per_round = rounds ? 1.0 / static_cast<double>(rounds) : 0.0;
  m.push_back({"payload.pool_hit_rate", median(hit_rates), "ratio"});
  m.push_back({"comm.msgs_per_round", msgs * per_round, "count"});
  m.push_back({"comm.inner_kb_per_round", inner_b / 1024.0 * per_round, "KiB"});
  m.push_back({"comm.outer_kb_per_round", outer_b / 1024.0 * per_round, "KiB"});
  m.push_back({"comm.modeled_s_per_round", modeled * per_round, "virtual_s"});

  const double off_p50 = percentile(round_seconds(off_runs), 0.5);
  const double on_p50 = percentile(round_seconds(on_runs), 0.5);
  m.push_back({"obs.overhead_share", off_p50 > 0 ? on_p50 / off_p50 - 1.0 : 0.0, "ratio"});
  std::vector<of::core::RoundRecord> on_rounds;
  for (const auto& r : on_runs)
    on_rounds.insert(on_rounds.end(), r.result.rounds.begin(), r.result.rounds.end());
  using RR = of::core::RoundRecord;
  // Waiting: the obs-on runs' recv spans, summed over every node, as a
  // share of the nodes' round time. CommStats.seconds_in_comm would be the
  // root's own figure, but it misses byte collectives (NOTES.md, defect 4).
  double recv_s = 0.0, on_loop_s = 0.0;
  for (const auto& rr : on_rounds) {
    recv_s += rr.recv_s;
    on_loop_s += rr.seconds;
  }
  const double node_s = on_loop_s * static_cast<double>(w.nodes());
  m.push_back({"comm.blocked_share", node_s > 0 ? recv_s / node_s : 0.0, "ratio"});
  m.push_back({"obs.phase_train_ms", phase_ms(on_rounds, &RR::train_s), "ms/round"});
  m.push_back({"obs.phase_encode_ms", phase_ms(on_rounds, &RR::encode_s), "ms/round"});
  m.push_back({"obs.phase_send_ms", phase_ms(on_rounds, &RR::send_s), "ms/round"});
  m.push_back({"obs.phase_recv_ms", phase_ms(on_rounds, &RR::recv_s), "ms/round"});
  m.push_back({"obs.phase_decode_ms", phase_ms(on_rounds, &RR::decode_s), "ms/round"});
  m.push_back({"obs.phase_aggregate_ms", phase_ms(on_rounds, &RR::aggregate_s), "ms/round"});
  m.push_back({"obs.phase_broadcast_ms", phase_ms(on_rounds, &RR::broadcast_s), "ms/round"});
  if (w.shape == Shape::Serve) {
    // The Fleet keeps the last run's totals: the final obs-on run.
    const auto health = of::obs::Fleet::global().serve();
    double share = 0.0;
    if (health) {
      const double seen = static_cast<double>(health->accepted_total +
                                              health->rejected_stale_total +
                                              health->rejected_full_total);
      share = seen > 0 ? static_cast<double>(health->accepted_total) / seen : 0.0;
    }
    const double staleness = on_rounds.empty() ? 0.0 : on_rounds.back().mean_staleness;
    m.push_back({"serve.accept_share", share, "ratio"});
    m.push_back({"serve.mean_staleness", staleness, "versions"});
  }
  return out;
}

}  // namespace fedbench
