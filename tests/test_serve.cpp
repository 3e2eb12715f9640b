// of::serve tests (DESIGN.md §14): the population registry, the seeded
// fraction-fit sampler (fixed-seed reproducibility is the property the
// paper's cross-device story rests on), the FedBuff staleness buffer's
// accept/reject/drain algebra, the zero-survivor edge of the streaming
// gather tiers, and full Engine runs — a churning TCP population that grows
// past the transport world size, and the `serve: sync` no-op guarantee
// (bitwise-identical to a run with no serve group at all).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "comm/inproc.hpp"
#include "comm/star.hpp"
#include "comm/tcp.hpp"
#include "net_util.hpp"
#include "config/compose.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "core/frame_pool.hpp"
#include "core/node.hpp"
#include "core/payload.hpp"
#include "nn/zoo.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "serve/buffer.hpp"
#include "serve/registry.hpp"
#include "serve/sampler.hpp"
#include "serve/serve.hpp"
#include "tensor/rng.hpp"

namespace {

using of::config::ConfigNode;
using of::config::parse_yaml;
using of::core::Engine;
using of::core::FramePool;
using of::core::RunResult;
using of::core::StreamingSum;
using of::core::encode_update;
using of::serve::ClientSampler;
using of::serve::PopulationRegistry;
using of::serve::ServeConfig;
using of::serve::StalenessBuffer;
using of::tensor::Bytes;
using of::tensor::Tensor;

namespace star = of::comm::star;

// --- sampler ------------------------------------------------------------------

TEST(ClientSamplerTest, TargetCountIsCeilOfFractionTimesAlive) {
  EXPECT_EQ(ClientSampler::target_count(0, 0.5), 0u);   // nobody to invite
  EXPECT_EQ(ClientSampler::target_count(1, 0.01), 1u);  // at least one
  EXPECT_EQ(ClientSampler::target_count(10, 0.25), 3u);  // ceil(2.5)
  EXPECT_EQ(ClientSampler::target_count(10, 0.3), 3u);
  EXPECT_EQ(ClientSampler::target_count(10, 1.0), 10u);
  EXPECT_EQ(ClientSampler::target_count(4, 0.5), 2u);
}

TEST(ClientSamplerTest, FixedSeedReproducesTheInvitationSchedule) {
  std::vector<int> alive;
  for (int r = 1; r <= 10; ++r) alive.push_back(r);

  const ClientSampler a(42), b(42), c(43);
  bool some_window_differs_across_seeds = false;
  bool some_window_differs_across_windows = false;
  std::vector<int> prev;
  for (std::uint64_t w = 0; w < 12; ++w) {
    const auto sa = a.sample(w, alive, 0.4);
    const auto sb = b.sample(w, alive, 0.4);
    const auto sc = c.sample(w, alive, 0.4);
    // The property the run-reproducibility guarantee rests on: same seed,
    // same window, same alive set → the identical invitation set.
    EXPECT_EQ(sa, sb) << "window " << w;
    if (sa != sc) some_window_differs_across_seeds = true;
    if (w > 0 && sa != prev) some_window_differs_across_windows = true;
    prev = sa;

    // Structural invariants: sorted, unique, drawn from alive, right size.
    EXPECT_EQ(sa.size(), ClientSampler::target_count(alive.size(), 0.4));
    EXPECT_TRUE(std::is_sorted(sa.begin(), sa.end()));
    const std::set<int> uniq(sa.begin(), sa.end());
    EXPECT_EQ(uniq.size(), sa.size());
    for (int r : sa)
      EXPECT_TRUE(std::find(alive.begin(), alive.end(), r) != alive.end());
  }
  EXPECT_TRUE(some_window_differs_across_seeds);
  EXPECT_TRUE(some_window_differs_across_windows);
}

TEST(ClientSamplerTest, SampleInputOrderDoesNotMatter) {
  const ClientSampler s(7);
  const std::vector<int> sorted_alive{1, 2, 3, 4, 5, 6};
  const std::vector<int> shuffled_alive{4, 1, 6, 2, 5, 3};
  EXPECT_EQ(s.sample(3, sorted_alive, 0.5), s.sample(3, shuffled_alive, 0.5));
}

TEST(ClientSamplerTest, CountDrawIsTheLockstepSchedule) {
  // The `clients_per_round` schedule: an exact count per round, drawn by a
  // partial Fisher–Yates over the cohort seeded from (seed, round). A count
  // is not a fraction — ceil(k/N × N) can come out one too high.
  const std::uint64_t seed = 7 ^ 0x5E1EC7ULL;
  const ClientSampler s(seed);
  for (int n = 1; n <= 24; ++n) {
    std::vector<int> cohort(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) cohort[static_cast<std::size_t>(i)] = i;
    for (std::size_t k = 1; k <= static_cast<std::size_t>(n); ++k) {
      for (std::uint64_t round = 0; round < 3; ++round) {
        std::vector<int> ids = cohort;
        of::tensor::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (round + 1)));
        for (std::size_t i = 0; i < k; ++i)
          std::swap(ids[i], ids[i + rng.next_below(ids.size() - i)]);
        ids.resize(k);
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(s.sample_count(round, cohort, k), ids) << n << " choose " << k;
      }
    }
    // The fraction draw is the count draw at ceil(fraction × alive).
    EXPECT_EQ(s.sample(5, cohort, 0.3),
              s.sample_count(5, cohort, ClientSampler::target_count(cohort.size(), 0.3)));
  }
  EXPECT_EQ(s.sample_count(0, {3, 1, 2}, 10), (std::vector<int>{1, 2, 3}));  // clamped
}

TEST(ClientSamplerTest, ResampleIsDeterministicAndHonorsExclusion) {
  const ClientSampler s(99);
  const std::vector<int> eligible{1, 2, 3, 4, 5, 6};
  const std::vector<int> exclude{2, 4};
  for (std::uint64_t pick = 0; pick < 8; ++pick) {
    const int r = s.resample(5, pick, eligible, exclude);
    EXPECT_EQ(r, s.resample(5, pick, eligible, exclude));
    ASSERT_GE(r, 1);
    EXPECT_TRUE(std::find(eligible.begin(), eligible.end(), r) != eligible.end());
    EXPECT_TRUE(std::find(exclude.begin(), exclude.end(), r) == exclude.end());
  }
  // Everyone excluded → no replacement available.
  EXPECT_EQ(s.resample(5, 0, eligible, eligible), -1);
  EXPECT_EQ(s.resample(5, 0, {}, {}), -1);
}

// --- registry -----------------------------------------------------------------

TEST(PopulationRegistryTest, RejoinIsAFreshIncarnation) {
  PopulationRegistry reg;
  reg.join(1, 0);
  reg.join(2, 0);
  EXPECT_EQ(reg.alive_count(), 2u);
  EXPECT_EQ(reg.population(), 2u);

  // Joining while alive is idempotent (the transport feed and the protocol
  // frames can both report the same connect).
  reg.join(1, 0);
  EXPECT_EQ(reg.population(), 2u);
  EXPECT_EQ(reg.joins_total(), 2u);

  reg.leave(1, 3);
  EXPECT_FALSE(reg.is_alive(1));
  EXPECT_EQ(reg.alive(), (std::vector<int>{2}));
  reg.leave(1, 3);  // idempotent
  EXPECT_EQ(reg.leaves_total(), 1u);

  // The comeback is what grows the population past the transport world:
  // a 2-rank registry with one churn cycle has seen 3 identities.
  reg.join(1, 5);
  EXPECT_TRUE(reg.is_alive(1));
  EXPECT_EQ(reg.entry(1).incarnations, 2u);
  EXPECT_EQ(reg.population(), 3u);
  EXPECT_EQ(reg.joins_total(), 3u);

  reg.seen(2, 7);
  EXPECT_EQ(reg.entry(2).last_seen_version, 7u);
  EXPECT_EQ(reg.alive(), (std::vector<int>{1, 2}));
}

// --- staleness buffer ---------------------------------------------------------

std::vector<Tensor> delta(float a, float b) {
  return {Tensor::full({4}, a), Tensor::full({3}, b)};
}

TEST(StalenessBufferTest, WeightIsAlphaOverOnePlusStaleness) {
  FramePool pool;
  const StalenessBuffer buf(pool, nullptr, 2, 4, 0.6);
  EXPECT_DOUBLE_EQ(buf.weight(0), 0.6);
  EXPECT_DOUBLE_EQ(buf.weight(1), 0.3);
  EXPECT_DOUBLE_EQ(buf.weight(3), 0.15);
}

TEST(StalenessBufferTest, DrainIsTheMeanOfStalenessWeightedUpdates) {
  FramePool pool;
  StalenessBuffer buf(pool, nullptr, 2, 4, 0.6);
  const Bytes f0 = encode_update(delta(1.0f, -2.0f), 1.0, {}, 0, 2);
  const Bytes f1 = encode_update(delta(3.0f, 5.0f), 1.0, {}, 1, 2);

  EXPECT_EQ(buf.offer(f0, 0), StalenessBuffer::Admission::Accepted);
  EXPECT_FALSE(buf.ready());
  EXPECT_EQ(buf.offer(f1, 2), StalenessBuffer::Admission::Accepted);
  ASSERT_TRUE(buf.ready());
  EXPECT_EQ(buf.size(), 2u);

  // mean of {0.6·Δ0, 0.2·Δ1}: weight α/(1+s) with α=0.6, s ∈ {0, 2}.
  const auto mean = buf.drain();
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_NEAR(mean[0][0], (0.6 * 1.0 + 0.2 * 3.0) / 2.0, 1e-6);
  EXPECT_NEAR(mean[1][0], (0.6 * -2.0 + 0.2 * 5.0) / 2.0, 1e-6);

  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.drains_total(), 1u);
  EXPECT_EQ(buf.accepted_total(), 2u);
  EXPECT_EQ(buf.staleness_sum(), 2u);
}

TEST(StalenessBufferTest, RejectsOverflowAndOverStaleUpdates) {
  FramePool pool;
  StalenessBuffer buf(pool, nullptr, 1, 1, 0.5);
  const Bytes f = encode_update(delta(1.0f, 1.0f), 1.0, {}, 0, 1);

  EXPECT_EQ(buf.offer(f, 0), StalenessBuffer::Admission::Accepted);
  ASSERT_TRUE(buf.ready());
  // Caller deferred the drain: the buffer holds the line.
  EXPECT_EQ(buf.offer(f, 0), StalenessBuffer::Admission::RejectedFull);
  (void)buf.drain();

  EXPECT_EQ(buf.offer(f, 2), StalenessBuffer::Admission::RejectedStale);
  EXPECT_EQ(buf.offer(f, 1), StalenessBuffer::Admission::Accepted);  // at the bound

  EXPECT_EQ(buf.accepted_total(), 2u);
  EXPECT_EQ(buf.rejected_full_total(), 1u);
  EXPECT_EQ(buf.rejected_stale_total(), 1u);
  // Rejections leave the staleness stats untouched.
  EXPECT_EQ(buf.staleness_sum(), 1u);
}

TEST(StalenessBufferTest, ZeroMaxStalenessIsUnbounded) {
  FramePool pool;
  StalenessBuffer buf(pool, nullptr, 2, 0, 1.0);
  const Bytes f = encode_update(delta(1.0f, 1.0f), 1.0, {}, 0, 1);
  EXPECT_EQ(buf.offer(f, 1000), StalenessBuffer::Admission::Accepted);
}

// --- serve config -------------------------------------------------------------

TEST(ServeConfigTest, MissingGroupYieldsDisabledDefaults) {
  const ServeConfig c = ServeConfig::from_config(ConfigNode{});
  EXPECT_FALSE(c.enabled);
  EXPECT_EQ(c.mode, of::serve::Mode::Sync);
  EXPECT_DOUBLE_EQ(c.fraction, 1.0);
  EXPECT_EQ(c.buffer_size, 1u);
}

TEST(ServeConfigTest, CrossFieldAndRangeValidation) {
  // Sync mode must not carry buffer knobs — they would silently do nothing.
  EXPECT_THROW(ServeConfig::from_config(
                   parse_yaml("enabled: true\nmode: sync\nbuffer_size: 2")),
               std::runtime_error);
  EXPECT_THROW(ServeConfig::from_config(
                   parse_yaml("enabled: true\nmode: sync\nmax_staleness: 3")),
               std::runtime_error);
  // Per-field ranges from the descriptor.
  EXPECT_THROW(ServeConfig::from_config(parse_yaml("fraction: 0.0")),
               std::runtime_error);
  EXPECT_THROW(ServeConfig::from_config(parse_yaml("fraction: 1.5")),
               std::runtime_error);
  EXPECT_THROW(ServeConfig::from_config(parse_yaml("buffer_size: 0")),
               std::runtime_error);
}

TEST(ServeConfigTest, ConfigGroupsComposeFromConfigsDir) {
  // The Hydra-style one-line switch: `defaults: [- serve: cross_device]`
  // pulls configs/serve/cross_device.yaml in under the serve: key.
  const ConfigNode root =
      of::config::compose_from(parse_yaml("defaults:\n  - serve: cross_device\n"),
                               OF_CONFIGS_DIR);
  const ServeConfig c = ServeConfig::from_config(root.at("serve"));
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.mode, of::serve::Mode::FedBuff);
  EXPECT_DOUBLE_EQ(c.fraction, 0.5);
  EXPECT_EQ(c.buffer_size, 2u);
  EXPECT_EQ(c.max_staleness, 2u);
}

// --- zero-survivor streaming gather (combiner + root tiers) -------------------

TEST(RetryPacing, HostileRetryAfterValuesNeverStallTheTrainer) {
  constexpr double kCap = 60.0;  // the backends' default receive timeout
  EXPECT_EQ(of::serve::retry_wait_seconds(std::numeric_limits<float>::quiet_NaN(), kCap), 0.0);
  EXPECT_EQ(of::serve::retry_wait_seconds(-1.0f, kCap), 0.0);
  EXPECT_EQ(of::serve::retry_wait_seconds(0.0f, kCap), 0.0);
  EXPECT_EQ(of::serve::retry_wait_seconds(std::numeric_limits<float>::infinity(), kCap), 0.0);
  EXPECT_EQ(of::serve::retry_wait_seconds(-std::numeric_limits<float>::infinity(), kCap), 0.0);
  // Finite but far past any duration<nanoseconds> range: capped.
  EXPECT_EQ(of::serve::retry_wait_seconds(1e30f, kCap), kCap);
  EXPECT_EQ(of::serve::retry_wait_seconds(1e30f, 0.5), 0.5);
  // An ordinary pacing value passes through.
  EXPECT_DOUBLE_EQ(of::serve::retry_wait_seconds(0.01f, kCap), static_cast<double>(0.01f));
}

TEST(ZeroSurvivors, EmptyCombinerPartialKeepsRootCountAtZero) {
  // Combiner tier: every group member was cut, so the combiner's partial is
  // a skip body. The root must see it as a non-contribution and fail its
  // drain with the structured no-updates error, not divide by zero.
  FramePool pool;
  StreamingSum combiner(pool);
  Bytes partial;
  combiner.encode_partial_into(1.0, nullptr, partial);

  StreamingSum root(pool);
  root.add_partial(partial);
  EXPECT_EQ(root.count(), 0u);
  try {
    (void)root.finish_mean();
    FAIL() << "finish_mean accepted an empty aggregation";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no client updates to aggregate"),
              std::string::npos);
  }
}

TEST(ZeroSurvivors, StreamingGatherPastDeadlineNeverCallsTheSink) {
  using of::comm::TcpCommunicator;
  std::unique_ptr<TcpCommunicator> server;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });
  auto client = TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  srv.join();

  const Bytes own = encode_update(delta(1.0f, 1.0f), 1.0, {}, 0, 2);
  star::PartialGatherOptions opt;
  opt.min_clients = 0;  // proceed with whatever arrived — possibly nothing
  opt.deadline_seconds = 0.15;
  opt.quorum_timeout_seconds = 0.5;

  std::size_t sunk = 0;
  const auto g = star::gather_bytes_streaming(
      *server, own, [&](int, Bytes&&) { ++sunk; }, opt);
  EXPECT_TRUE(g.participated.empty());
  EXPECT_EQ(g.dropped, (std::vector<int>{1}));
  EXPECT_TRUE(g.deadline_hit);
  EXPECT_EQ(sunk, 0u);

  // A StreamingSum behind that sink holds nothing; the aggregation layer
  // sees the structured error instead of an empty-mean frame.
  FramePool pool;
  StreamingSum sum(pool);
  EXPECT_THROW((void)sum.finish_mean(), std::runtime_error);

  // With a real quorum the hub refuses to proceed, loudly, once the quorum
  // timeout itself passes.
  opt.min_clients = 1;
  opt.deadline_seconds = 0.05;
  opt.quorum_timeout_seconds = 0.2;
  try {
    (void)star::gather_bytes_streaming(*server, own, [](int, Bytes&&) {}, opt);
    FAIL() << "quorum of 1 satisfied by zero survivors";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("partial gather"), std::string::npos);
  }
}

// --- engine integration -------------------------------------------------------

ConfigNode serve_base_config() {
  return parse_yaml(R"(
seed: 7
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 4
  inner_comm:
    _target_: src.omnifed.communicator.TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 3
  local_epochs: 1
  lr: 0.05
  momentum: 0.9
  weight_decay: 1.0e-4
eval_every: 1
)");
}

TEST(EngineServe, SyncModeIsBitwiseIdenticalToNoServeGroup) {
  // `serve: sync` must keep the serving layer entirely out of the data
  // path: same bytes out, same metrics, not just similar accuracy.
  ConfigNode with_serve = serve_base_config();
  with_serve.set_path("defaults", parse_yaml("d:\n  - serve: sync\n").at("d"));
  Engine a(of::config::compose_from(std::move(with_serve), OF_CONFIGS_DIR));
  Engine b(serve_base_config());
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  ASSERT_FALSE(ra.final_model_bytes.empty());
  EXPECT_TRUE(ra.final_model_bytes == rb.final_model_bytes)
      << "serve: sync perturbed the training path";
  EXPECT_EQ(ra.to_metrics_csv(), rb.to_metrics_csv());
}

TEST(EngineServe, MalformedUpFrameIsDroppedAndTheClientReinvited) {
  // One hand-driven client against the serve aggregator over InProc. Its
  // first reply is not an up-frame; the coordinator counts and drops it,
  // frees the invite slot and re-invites, and the run completes on the
  // client's second, well-formed reply.
  constexpr int kServeModel = 105;  // server → client frames
  constexpr int kServeUpdate = 106;  // client → server up-frames
  of::comm::InProcGroup group(2);
  of::core::NodeSetup s;
  s.role = of::core::NodeRole::Aggregator;
  s.mode = "centralized";
  s.serve.enabled = true;
  s.serve.mode = of::serve::Mode::FedBuff;
  s.serve.total_updates = 1;
  s.model = of::nn::zoo::make_model("mlp_tiny", 8, 2, 1);
  s.algorithm = of::algorithms::make_algorithm("FedAvg");
  s.algorithm_params = parse_yaml("lr: 0.1");
  s.inner_spec.backend = of::core::CommSpec::Backend::InProc;
  s.inner_spec.group = &group;
  s.inner_spec.world = 2;

  auto& malformed = of::obs::Registry::global().counter("payload.malformed_dropped");
  const auto malformed0 = malformed.value();
  std::exception_ptr client_error;
  std::thread client([&] {
    try {
      of::comm::Communicator& c = group.comm(1);
      int invites = 0;
      for (;;) {
        const Bytes down = c.recv_bytes(0, kServeModel);
        if (down.at(0) == 2) break;  // Stop
        EXPECT_EQ(down.at(0), 0);    // Invite
        if (invites++ == 0) {
          c.send_bytes(0, kServeUpdate, Bytes{0x09});
          continue;
        }
        auto delta = of::core::unpack_tensors(Bytes(down.begin() + 1, down.end()));
        for (auto& t : delta) t.zero_();
        Bytes up = encode_update(delta, 1.0, {}, 0, 1);
        of::core::append_up_trailer(up, of::core::UpKind::Update, {3.0f, 2.0f});
        c.send_bytes(0, kServeUpdate, up);
      }
      Bytes fin;
      of::core::append_up_trailer(fin, of::core::UpKind::Final, {0.0f, 0.0f, 0.5f, 1.0f});
      c.send_bytes(0, kServeUpdate, fin);
    } catch (...) {
      client_error = std::current_exception();
    }
  });
  of::core::NodeReport report;
  std::exception_ptr hub_error;
  try {
    report = of::core::NodeRuntime(std::move(s)).run();
  } catch (...) {
    hub_error = std::current_exception();
  }
  client.join();
  if (hub_error) std::rethrow_exception(hub_error);
  if (client_error) std::rethrow_exception(client_error);

  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_DOUBLE_EQ(report.rounds[0].train_loss, 1.5);
  EXPECT_FLOAT_EQ(report.rounds[0].accuracy, 0.5f);
  EXPECT_EQ(malformed.value() - malformed0, 1u);
}

TEST(EngineServe, FedBuffGroupLearns) {
  // The stock configs/serve/fedbuff.yaml group, via the one-line switch.
  ConfigNode cfg = serve_base_config();
  cfg.set_path("defaults", parse_yaml("d:\n  - serve: fedbuff\n").at("d"));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(8));
  Engine engine(of::config::compose_from(std::move(cfg), OF_CONFIGS_DIR));
  const RunResult r = engine.run();
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_GT(r.final_accuracy, 0.5f);
}

TEST(EngineServe, ConfigConflictsAreRejected) {
  {
    // The legacy async group and an explicit serve group fight over the
    // same knobs.
    ConfigNode cfg = serve_base_config();
    cfg.set_path("scheduling.mode", ConfigNode::string("async"));
    cfg.set_path("serve.enabled", ConfigNode::boolean(true));
    cfg.set_path("serve.mode", ConfigNode::string("fedbuff"));
    EXPECT_THROW(
        {
          Engine engine(cfg);
          (void)engine.run();
        },
        std::runtime_error);
  }
  {
    // Churn without a serving tier has nobody to churn against.
    ConfigNode cfg = serve_base_config();
    cfg.set_path("fault.churn.enabled", ConfigNode::boolean(true));
    cfg.set_path("fault.churn.leave_probability", ConfigNode::floating(0.2));
    EXPECT_THROW(
        {
          Engine engine(cfg);
          (void)engine.run();
        },
        std::runtime_error);
  }
  {
    // FedBuff needs a hub; a ring has none.
    ConfigNode cfg = serve_base_config();
    cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
    cfg.set_path("topology.num_nodes", ConfigNode::integer(4));
    cfg.set_path("serve.enabled", ConfigNode::boolean(true));
    cfg.set_path("serve.mode", ConfigNode::string("fedbuff"));
    EXPECT_THROW(
        {
          Engine engine(cfg);
          (void)engine.run();
        },
        std::runtime_error);
  }
}

// Pull one numeric field out of the fleet JSON blob.
double fleet_json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing from " << json;
  if (pos == std::string::npos) return -1.0;
  return std::stod(json.substr(pos + needle.size()));
}

TEST(EngineServe, ChurningTcpPopulationGrowsPastWorldSizeWithBackpressure) {
  // The acceptance run: a real-socket star, a sampled fraction training
  // concurrently, one straggler slow enough that its updates blow the
  // staleness bound, and churn that makes invited clients deregister and
  // come back as fresh identities. The run must finish, and the fleet
  // gauges must show a population larger than the transport world plus
  // nonzero rejected and resampled counts.
  ConfigNode cfg = serve_base_config();
  cfg.set_path("topology.inner_comm._target_",
               ConfigNode::string("GrpcCommunicator"));
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(10));
  cfg.set_path("serve", parse_yaml(R"(
enabled: true
mode: fedbuff
fraction: 0.5
buffer_size: 1
max_staleness: 1
alpha: 0.6
retry_seconds: 0.005
)"));
  cfg.set_path("heterogeneity.slowdowns",
               of::config::parse_yaml("v: [1.0, 1.0, 1.0, 6.0]").at("v"));
  cfg.set_path("fault.churn", parse_yaml(R"(
enabled: true
leave_probability: 0.3
down_seconds: 0.02
)"));
  cfg.set_path("obs", parse_yaml("enabled: true\ntelemetry: true\n"));

  Engine engine(cfg);
  const RunResult r = engine.run();
  // 10 rounds × 4 clients = 40 accepted updates, one RoundRecord per 4.
  ASSERT_EQ(r.rounds.size(), 10u);
  EXPECT_GT(r.final_accuracy, 0.3f);

  const std::string json = of::obs::Fleet::global().json_text();
  const auto serve_at = json.find("\"serve\":");
  ASSERT_NE(serve_at, std::string::npos) << json;
  const std::string serve_json = json.substr(serve_at);

  EXPECT_EQ(fleet_json_number(serve_json, "accepted_total"), 40.0);
  // Churn re-registrations grow the identity count past the 5-rank world.
  EXPECT_GT(fleet_json_number(serve_json, "population"), 5.0);
  EXPECT_GT(fleet_json_number(serve_json, "joins_total"), 4.0);
  EXPECT_GE(fleet_json_number(serve_json, "leaves_total"), 1.0);
  // The 6× straggler trains against snapshots that are several drains old:
  // over-stale updates must have been bounced with retry-after...
  EXPECT_GE(fleet_json_number(serve_json, "rejected_stale_total"), 1.0);
  // ...and churned-away invitees must have been replaced deterministically.
  EXPECT_GE(fleet_json_number(serve_json, "resampled_total"), 1.0);
  EXPECT_GT(fleet_json_number(serve_json, "mean_staleness"), 0.0);
}

TEST(EngineServe, FixedSeedTcpRunsReproduceTheSamplingDecisions) {
  // Same seed, same world → the sampler's invitation schedule replays, so
  // both runs absorb the same update count and report identical round
  // structure (per-update arrival order may differ; the decision streams
  // must not).
  const auto run_once = [] {
    ConfigNode cfg = serve_base_config();
    cfg.set_path("algorithm.global_rounds", ConfigNode::integer(6));
    cfg.set_path("serve", parse_yaml(R"(
enabled: true
mode: fedbuff
fraction: 0.5
buffer_size: 2
alpha: 0.6
)"));
    Engine engine(cfg);
    return engine.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.final_model_bytes.size(), b.final_model_bytes.size());
}

}  // namespace
