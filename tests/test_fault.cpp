// Fault-model tests: spec parsing/validation, deterministic injection,
// the rank-ordered deadline gather, the star aggregator's handling of cut and
// malformed clients, and end-to-end faulty Engine runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "algorithms/algorithm.hpp"
#include "comm/inproc.hpp"
#include "comm/star.hpp"
#include "comm/tcp.hpp"
#include "net_util.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "core/node.hpp"
#include "core/payload.hpp"
#include "fault/fault.hpp"
#include "nn/zoo.hpp"
#include "obs/registry.hpp"
#include "privacy/dp.hpp"
#include "privacy/secure_agg.hpp"

namespace {

using of::comm::Communicator;
using of::comm::InProcGroup;
using of::comm::TcpCommunicator;
using of::config::ConfigNode;
using of::config::parse_yaml;
using of::core::Engine;
using of::core::RunResult;
using of::fault::FaultInjector;
using of::fault::FaultKind;
using of::fault::FaultSpec;
using of::tensor::Bytes;

namespace star = of::comm::star;

// --- FaultSpec parsing ---------------------------------------------------------------

TEST(FaultSpec, NullNodeYieldsDisabledSpec) {
  const FaultSpec s = FaultSpec::from_config(ConfigNode());
  EXPECT_FALSE(s.enabled);
  EXPECT_TRUE(s.injections.empty());
}

TEST(FaultSpec, ParsesFullGroup) {
  const ConfigNode n = parse_yaml(R"(
enabled: true
min_clients: 2
round_deadline_seconds: 1.5
quorum_timeout_seconds: 12.0
reconnect:
  max_attempts: 5
  backoff_seconds: 0.01
  backoff_max_seconds: 0.2
injections:
  - kind: crash
    client: 1
    round: 2
  - kind: delay
    probability: 0.5
    delay_seconds: 0.3
  - kind: disconnect
    client: 2
)");
  const FaultSpec s = FaultSpec::from_config(n);
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.min_clients, 2);
  EXPECT_DOUBLE_EQ(s.round_deadline_seconds, 1.5);
  EXPECT_DOUBLE_EQ(s.quorum_timeout_seconds, 12.0);
  EXPECT_EQ(s.reconnect.max_attempts, 5);
  EXPECT_DOUBLE_EQ(s.reconnect.backoff_seconds, 0.01);
  EXPECT_DOUBLE_EQ(s.reconnect.backoff_max_seconds, 0.2);
  ASSERT_EQ(s.injections.size(), 3u);
  EXPECT_EQ(s.injections[0].kind, FaultKind::Crash);
  EXPECT_EQ(s.injections[0].client, 1);
  EXPECT_EQ(s.injections[0].round, 2);
  EXPECT_DOUBLE_EQ(s.injections[0].probability, 1.0);
  EXPECT_EQ(s.injections[1].kind, FaultKind::Delay);
  EXPECT_EQ(s.injections[1].client, -1);  // any client
  EXPECT_EQ(s.injections[1].round, -1);   // every round
  EXPECT_DOUBLE_EQ(s.injections[1].probability, 0.5);
  EXPECT_DOUBLE_EQ(s.injections[1].delay_seconds, 0.3);
  EXPECT_EQ(s.injections[2].kind, FaultKind::Disconnect);
  EXPECT_EQ(s.injections[2].client, 2);
}

TEST(FaultSpec, RejectsOutOfRangeValues) {
  EXPECT_THROW((void)FaultSpec::from_config(parse_yaml(R"(
injections:
  - kind: crash
    probability: 1.5
)")),
               std::runtime_error);
  EXPECT_THROW((void)FaultSpec::from_config(parse_yaml("injections:\n  - kind: meltdown\n")),
               std::runtime_error);
  EXPECT_THROW((void)FaultSpec::from_config(parse_yaml(
                   "round_deadline_seconds: 1.0\nquorum_timeout_seconds: 0.5\n")),
               std::runtime_error);
}

TEST(FaultSpec, ValidateChecksQuorumAndTargets) {
  FaultSpec s;
  s.enabled = true;
  s.min_clients = 3;
  EXPECT_NO_THROW(s.validate(4));  // 3 clients in a world of 4
  s.min_clients = 4;
  EXPECT_THROW(s.validate(4), std::runtime_error);
  s.min_clients = 1;
  s.injections.push_back({FaultKind::Crash, 9, -1, 1.0, 0.0});
  EXPECT_THROW(s.validate(4), std::runtime_error);
}

TEST(FaultSpec, ShippedCrashOneGroupFileParses) {
  const std::string dir = OF_CONFIGS_DIR;
  const FaultSpec s =
      FaultSpec::from_config(of::config::load_yaml_file(dir + "/fault/crash_one.yaml"));
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.min_clients, 2);
  ASSERT_EQ(s.injections.size(), 1u);
  EXPECT_EQ(s.injections[0].kind, FaultKind::Crash);
  EXPECT_EQ(s.injections[0].client, 1);
  EXPECT_EQ(s.injections[0].round, 1);
}

// --- FaultInjector ---------------------------------------------------------------------

TEST(FaultInjector, TargetedCrashFiresExactlyOnce) {
  FaultSpec s;
  s.enabled = true;
  s.injections.push_back({FaultKind::Crash, 1, 2, 1.0, 0.0});
  FaultInjector hit(s, 1, 42);
  FaultInjector miss(s, 2, 42);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(hit.at_round(r).crash, r == 2) << "round " << r;
    EXPECT_FALSE(miss.at_round(r).crash) << "round " << r;
  }
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultSpec s;
  s.enabled = true;
  s.injections.push_back({FaultKind::Delay, -1, -1, 0.5, 0.1});
  s.injections.push_back({FaultKind::Disconnect, -1, -1, 0.3, 0.0});
  FaultInjector a(s, 1, 7);
  FaultInjector b(s, 1, 7);
  FaultInjector other_client(s, 2, 7);
  bool streams_differ = false;
  for (int r = 0; r < 64; ++r) {
    const auto da = a.at_round(r);
    const auto db = b.at_round(r);
    const auto dc = other_client.at_round(r);
    EXPECT_DOUBLE_EQ(da.extra_delay_seconds, db.extra_delay_seconds);
    EXPECT_EQ(da.disconnect, db.disconnect);
    if (da.extra_delay_seconds != dc.extra_delay_seconds || da.disconnect != dc.disconnect)
      streams_differ = true;
  }
  EXPECT_TRUE(streams_differ);  // per-client streams are decorrelated
}

TEST(FaultInjector, DisabledSpecNeverFires) {
  FaultSpec s;  // enabled = false
  s.injections.push_back({FaultKind::Crash, -1, -1, 1.0, 0.0});
  FaultInjector inj(s, 1, 7);
  for (int r = 0; r < 8; ++r) {
    const auto d = inj.at_round(r);
    EXPECT_FALSE(d.crash);
    EXPECT_FALSE(d.disconnect);
    EXPECT_DOUBLE_EQ(d.extra_delay_seconds, 0.0);
  }
}

// --- deadline-based partial gather -----------------------------------------------------

void run_group(InProcGroup& group, const std::function<void(int, Communicator&)>& fn) {
  const int world = group.world_size();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r, group.comm(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

void run_group(int world, const std::function<void(int, Communicator&)>& fn) {
  InProcGroup group(world);
  run_group(group, fn);
}

// The hub's view of a gather through a store-by-rank sink: frames[0] is its
// own contribution, a dropped client's slot stays empty.
struct StoredGather {
  std::vector<Bytes> frames;
  std::vector<int> participated;
  std::vector<int> dropped;
  bool deadline_hit = false;
};

StoredGather gather_stored(Communicator& c, const Bytes& b, const star::GatherOptions& opt) {
  StoredGather out;
  if (c.rank() == 0) {
    out.frames.resize(static_cast<std::size_t>(c.world_size()));
    out.frames[0] = b;
  }
  auto g = star::gather_bytes_streaming(
      c, b,
      [&](int src, Bytes&& frame) {
        out.frames[static_cast<std::size_t>(src)] = std::move(frame);
      },
      opt);
  out.participated = std::move(g.participated);
  out.dropped = std::move(g.dropped);
  out.deadline_hit = g.deadline_hit;
  return out;
}

TEST(DeadlineGather, AllClientsArriveBeforeDeadline) {
  run_group(3, [](int rank, Communicator& c) {
    star::GatherOptions opt{2, 5.0, 10.0};
    const auto out = gather_stored(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
    if (rank == 0) {
      EXPECT_EQ(out.participated, (std::vector<int>{1, 2}));
      EXPECT_TRUE(out.dropped.empty());
      EXPECT_FALSE(out.deadline_hit);
      ASSERT_EQ(out.frames.size(), 3u);
      for (std::uint8_t p = 0; p < 3; ++p)
        EXPECT_EQ(out.frames[p], Bytes{p}) << "rank " << int(p);
    } else {
      EXPECT_TRUE(out.frames.empty());  // clients only send
    }
  });
}

TEST(DeadlineGather, StragglerPastDeadlineIsDropped) {
  run_group(3, [](int rank, Communicator& c) {
    star::GatherOptions opt{1, 0.15, 0.15};
    if (rank == 2) std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const auto out = gather_stored(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
    if (rank == 0) {
      EXPECT_EQ(out.participated, (std::vector<int>{1}));
      EXPECT_EQ(out.dropped, (std::vector<int>{2}));
      EXPECT_TRUE(out.deadline_hit);
    }
  });
}

TEST(DeadlineGather, QuorumOutwaitsTheDeadline) {
  run_group(3, [](int rank, Communicator& c) {
    star::GatherOptions opt{2, 0.05, 10.0};
    if (rank == 2) std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const auto out = gather_stored(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
    if (rank == 0) {
      // The deadline passed with one report, but quorum=2 keeps the hub
      // waiting until the straggler lands.
      EXPECT_EQ(out.participated, (std::vector<int>{1, 2}));
      EXPECT_TRUE(out.dropped.empty());
      EXPECT_TRUE(out.deadline_hit);
    }
  });
}

TEST(DeadlineGather, MissedQuorumTimesOutWithReadableError) {
  EXPECT_THROW(
      run_group(3,
                [](int rank, Communicator& c) {
                  star::GatherOptions opt{2, 0.05, 0.25};
                  if (rank == 2)
                    std::this_thread::sleep_for(std::chrono::seconds(1));
                  (void)gather_stored(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
                }),
      std::runtime_error);
}

TEST(DeadlineGather, DeadPeersFailTheQuorumAtOnce) {
  // Both clients of a TCP hub have closed before the gather starts: the
  // liveness sweep drops them, and the quorum of 2 can no longer be met.
  // The hub must fail right away — not return an empty round as if the
  // quorum held, and not sit out the 30 s deadline either.
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::unique_ptr<TcpCommunicator> server;
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 3); });
  {
    auto c1 = TcpCommunicator::make_client("127.0.0.1", port, 1, 3);
    auto c2 = TcpCommunicator::make_client("127.0.0.1", port, 2, 3);
    srv.join();
  }
  ASSERT_NE(server, nullptr);
  for (int i = 0; i < 500 && (server->peer_alive(1) || server->peer_alive(2)); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_FALSE(server->peer_alive(1));
  ASSERT_FALSE(server->peer_alive(2));

  const star::GatherOptions opt{2, 30.0, 30.0};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)gather_stored(*server, {}, opt);
    FAIL() << "a quorum of 2 was accepted with both clients dead";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("partial gather"), std::string::npos);
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(),
            5.0);
}

TEST(DeadlineGather, SinkSeesFramesInRankOrder) {
  // Clients send in reverse rank order, 3 first; the hub holds 3 and 2
  // until 1 lands and sinks 1, 2, 3.
  std::vector<int> order;
  run_group(4, [&](int rank, Communicator& c) {
    if (rank > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100 * (3 - rank)));
    const auto g = star::gather_bytes_streaming(
        c, Bytes{static_cast<std::uint8_t>(rank)},
        [&](int src, Bytes&& frame) {
          EXPECT_EQ(frame, Bytes{static_cast<std::uint8_t>(src)});
          order.push_back(src);
        },
        star::wait_for_all(c));
    if (rank == 0) {
      EXPECT_EQ(g.participated, (std::vector<int>{1, 2, 3}));
      EXPECT_GT(g.peak_held_bytes, 0u);  // 3 and 2 waited for 1
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  // Rank 1 misses the deadline: the cut releases the held 2 and 3, in order.
  order.clear();
  run_group(4, [&](int rank, Communicator& c) {
    if (rank == 1) std::this_thread::sleep_for(std::chrono::milliseconds(600));
    if (rank == 2) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const auto g = star::gather_bytes_streaming(
        c, Bytes{static_cast<std::uint8_t>(rank)},
        [&](int src, Bytes&&) { order.push_back(src); }, star::GatherOptions{1, 0.3, 0.3});
    if (rank == 0) {
      EXPECT_EQ(g.dropped, (std::vector<int>{1}));
      EXPECT_TRUE(g.deadline_hit);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(DeadlineGather, SlowSinkDoesNotCutAFrameQueuedInTime) {
  // The hub is already waiting when rank 1 lands, and the sink folds it
  // for longer than the deadline. Rank 2 sent while it ran, well inside the
  // deadline: its queued frame must participate, and with nobody left to
  // cut the deadline was not hit.
  run_group(3, [](int rank, Communicator& c) {
    if (rank > 0) std::this_thread::sleep_for(std::chrono::milliseconds(rank == 1 ? 50 : 150));
    std::vector<int> sunk;
    const auto g = star::gather_bytes_streaming(
        c, Bytes{static_cast<std::uint8_t>(rank)},
        [&](int src, Bytes&&) {
          if (src == 1) std::this_thread::sleep_for(std::chrono::milliseconds(500));
          sunk.push_back(src);
        },
        star::GatherOptions{1, 0.25, 0.25});
    if (rank == 0) {
      EXPECT_EQ(g.participated, (std::vector<int>{1, 2}));
      EXPECT_TRUE(g.dropped.empty());
      EXPECT_FALSE(g.deadline_hit);
      EXPECT_EQ(sunk, (std::vector<int>{1, 2}));
    }
  });
}

// --- the star aggregator against hand-driven clients -------------------------------

// Client r's up-frame for `round`, built from the global model it received.
using FrameFn = std::function<Bytes(int r, std::size_t round, const Bytes& global)>;

// A hub run against hand-driven clients: the hub's report, and the global
// model client 1 received each round.
struct HubRun {
  of::core::NodeReport report;
  std::vector<Bytes> globals;
};

of::core::NodeSetup hub_setup(const std::string& mode, std::size_t rounds, int clients) {
  of::core::NodeSetup s;
  s.role = of::core::NodeRole::Aggregator;
  s.mode = mode;
  s.global_rounds = rounds;
  s.cohort_size = clients;
  s.model = of::nn::zoo::make_model("mlp_tiny", 8, 2, 1);
  s.algorithm = of::algorithms::make_algorithm("FedAvg");
  s.algorithm_params = parse_yaml("lr: 0.1");
  return s;
}

// Drive hand clients 1.. of `inner` against `hub`, which runs as rank 0.
void drive_clients(InProcGroup& inner, of::core::NodeSetup& hub, std::size_t rounds,
                   const FrameFn& frame_for, HubRun& out) {
  run_group(inner, [&](int r, Communicator& c) {
    if (r == 0) {
      out.report = of::core::NodeRuntime(std::move(hub)).run();
      return;
    }
    const auto opt = star::wait_for_all(c);
    for (std::size_t round = 0; round < rounds; ++round) {
      Bytes global;
      c.broadcast_bytes(global, 0);
      if (r == 1) out.globals.push_back(global);
      (void)star::gather_bytes_streaming(c, frame_for(r, round, global), {}, opt);
    }
  });
}

HubRun run_star_hub(int world, std::size_t rounds, const FrameFn& frame_for,
                    std::unique_ptr<of::privacy::PrivacyMechanism> privacy = nullptr) {
  InProcGroup group(world);
  of::core::NodeSetup s = hub_setup("centralized", rounds, world - 1);
  s.privacy = std::move(privacy);
  s.inner_spec.backend = of::core::CommSpec::Backend::InProc;
  s.inner_spec.group = &group;
  s.inner_spec.world = world;
  HubRun out;
  drive_clients(group, s, rounds, frame_for, out);
  return out;
}

// An update from client r: the received model scaled by r/2, so every
// client's contribution differs and the fold order shows in the bits.
Bytes scaled_update(int r, const Bytes& global) {
  return of::core::encode_update(of::core::unpack_tensors(global), 0.5 * r, {}, r - 1, 3);
}

// A valid Update trailer over a body 7 bytes short of its manifest.
void truncate_body(Bytes& frame) { frame.resize(frame.size() - 7); }

TEST(StarAggregator, MalformedUpFrameDropsOnlyItsSender) {
  // Hand-driven clients over InProc. In round 0 client 2 sends a
  // well-formed frame of the wrong kind and client 3 a frame shorter than
  // the up-frame trailer; both are dropped for that round and counted, and
  // client 1 alone is aggregated. Round 1 is clean. A fourth client whose
  // every frame is a valid Update trailer over a truncated body is dropped
  // and counted each round, its loss is not summed, and every model the
  // hub sends is bitwise the one from the run without it.
  constexpr std::size_t kRounds = 2;
  const FrameFn frame_for = [](int r, std::size_t round, const Bytes& global) {
    Bytes frame = scaled_update(r, global);
    if (r == 4) truncate_body(frame);
    auto kind = of::core::UpKind::Update;
    if (round == 0 && r == 2) kind = of::core::UpKind::Join;
    of::core::append_up_trailer(frame, kind, {2.0f * static_cast<float>(r), 1.0f});
    if (round == 0 && r == 3) frame = Bytes{0xde, 0xad};
    return frame;
  };

  auto& malformed = of::obs::Registry::global().counter("payload.malformed_dropped");
  auto malformed0 = malformed.value();
  const HubRun clean = run_star_hub(4, kRounds, frame_for);
  const auto& report = clean.report;
  ASSERT_EQ(report.rounds.size(), kRounds);
  EXPECT_EQ(report.rounds[0].participated, 1u);
  EXPECT_EQ(report.rounds[0].dropped_ranks, (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(report.rounds[0].train_loss, 2.0);  // client 1's metrics only
  EXPECT_EQ(report.rounds[1].participated, 3u);
  EXPECT_TRUE(report.rounds[1].dropped_ranks.empty());
  EXPECT_DOUBLE_EQ(report.rounds[1].train_loss, 4.0);
  EXPECT_EQ(malformed.value() - malformed0, 2u);

  malformed0 = malformed.value();
  const HubRun garbage = run_star_hub(5, kRounds, frame_for);
  ASSERT_EQ(garbage.report.rounds.size(), kRounds);
  EXPECT_EQ(garbage.report.rounds[0].participated, 1u);
  EXPECT_EQ(garbage.report.rounds[0].dropped_ranks, (std::vector<int>{2, 3, 4}));
  EXPECT_DOUBLE_EQ(garbage.report.rounds[0].train_loss, 2.0);
  EXPECT_EQ(garbage.report.rounds[1].participated, 3u);
  EXPECT_EQ(garbage.report.rounds[1].dropped_ranks, (std::vector<int>{4}));
  EXPECT_DOUBLE_EQ(garbage.report.rounds[1].train_loss, 4.0);  // not (2+4+6+8)/4
  EXPECT_EQ(malformed.value() - malformed0, 4u);
  EXPECT_TRUE(garbage.globals == clean.globals);
  EXPECT_TRUE(garbage.report.final_model == clean.report.final_model);

  // The hub folds rank 1 first. A well-formed frame from it of another mode
  // (f16 among f32 peers) or another structure (one tensor more) must not
  // fix what ranks 2 and 3 are checked against: rank 1 alone is dropped,
  // and every model is bitwise the one from the run where its body is
  // garbage.
  using BodyFn = std::function<Bytes(const Bytes& global)>;
  const auto rank1_sends = [](const BodyFn& body) {
    return run_star_hub(4, kRounds, [&](int r, std::size_t, const Bytes& global) {
      Bytes frame = r == 1 ? body(global) : scaled_update(r, global);
      of::core::append_up_trailer(frame, of::core::UpKind::Update,
                                  {2.0f * static_cast<float>(r), 1.0f});
      return frame;
    });
  };
  const HubRun without = rank1_sends([](const Bytes& global) {
    Bytes frame = scaled_update(1, global);
    truncate_body(frame);
    return frame;
  });
  const HubRun other_mode = rank1_sends([](const Bytes& global) {
    return of::core::encode_update(of::core::unpack_tensors(global), 0.5, {}, 0, 3,
                                   of::core::WireRepr::F16);
  });
  const HubRun other_shape = rank1_sends([](const Bytes& global) {
    auto payload = of::core::unpack_tensors(global);
    payload.push_back(of::tensor::Tensor({1}, 1.0f));
    return of::core::encode_update(payload, 0.5, {}, 0, 3);
  });
  for (const HubRun* run : {&without, &other_mode, &other_shape}) {
    ASSERT_EQ(run->report.rounds.size(), kRounds);
    for (const auto& rec : run->report.rounds) {
      EXPECT_EQ(rec.participated, 2u);
      EXPECT_EQ(rec.dropped_ranks, (std::vector<int>{1}));
      EXPECT_DOUBLE_EQ(rec.train_loss, 5.0);  // ranks 2 and 3: (4 + 6) / 2
    }
  }
  EXPECT_TRUE(other_mode.globals == without.globals);
  EXPECT_TRUE(other_mode.report.final_model == without.report.final_model);
  EXPECT_TRUE(other_shape.globals == without.globals);
  EXPECT_TRUE(other_shape.report.final_model == without.report.final_model);
}

// A hierarchical root combiner: hand-driven group members on `inner_world`
// and hand-driven leaders on `outer_world` (1 = the root alone). Leader r
// sends leader_frame(r, round, global) up the outer tier.
HubRun run_hier_root(int inner_world, int outer_world, std::size_t rounds,
                     const FrameFn& member_frame, const FrameFn& leader_frame,
                     std::unique_ptr<of::privacy::PrivacyMechanism> privacy = nullptr) {
  InProcGroup inner(inner_world);
  InProcGroup outer(outer_world);
  of::core::NodeSetup s = hub_setup("hierarchical", rounds, inner_world - 1);
  s.privacy = std::move(privacy);
  s.inner_spec.backend = of::core::CommSpec::Backend::InProc;
  s.inner_spec.group = &inner;
  s.inner_spec.world = inner_world;
  s.outer_spec.backend = of::core::CommSpec::Backend::InProc;
  s.outer_spec.group = &outer;
  s.outer_spec.world = outer_world;
  HubRun out;
  std::exception_ptr leader_error, hub_error;
  std::thread leaders([&] {
    try {
      run_group(outer, [&](int r, Communicator& c) {
        if (r == 0) return;  // the root runs inside drive_clients
        const auto opt = star::wait_for_all(c);
        for (std::size_t round = 0; round < rounds; ++round) {
          Bytes global;
          c.broadcast_bytes(global, 0);
          (void)star::gather_bytes_streaming(c, leader_frame(r, round, global), {}, opt);
        }
      });
    } catch (...) {
      leader_error = std::current_exception();
    }
  });
  try {
    drive_clients(inner, s, rounds, member_frame, out);
  } catch (...) {
    hub_error = std::current_exception();
  }
  leaders.join();
  for (const auto& e : {hub_error, leader_error})
    if (e) std::rethrow_exception(e);
  return out;
}

TEST(HierLeader, GarbageBodyDropsOnlyItsSenderInEitherTier) {
  // The root folds group members 1 and 2 (losses 2 and 4). A third member,
  // or a second leader, sends a valid Update trailer over a truncated
  // body: it is dropped and counted each round, its loss is not summed,
  // and every model the root sends is bitwise the one from the run
  // without it.
  constexpr std::size_t kRounds = 2;
  const FrameFn member_frame = [](int r, std::size_t, const Bytes& global) {
    Bytes frame = scaled_update(r, global);
    if (r == 3) truncate_body(frame);
    of::core::append_up_trailer(frame, of::core::UpKind::Update,
                                {2.0f * static_cast<float>(r), 1.0f});
    return frame;
  };
  const FrameFn leader_frame = [](int r, std::size_t, const Bytes& global) {
    of::core::FramePool pool;
    of::core::StreamingSum sum(pool);
    sum.add(scaled_update(r, global));
    Bytes partial;
    sum.encode_partial_into(1.0, nullptr, partial);
    truncate_body(partial);
    of::core::append_up_trailer(partial, of::core::UpKind::Update, {100.0f, 1.0f});
    return partial;
  };

  auto& malformed = of::obs::Registry::global().counter("payload.malformed_dropped");
  const HubRun clean = run_hier_root(3, 1, kRounds, member_frame, leader_frame);
  ASSERT_EQ(clean.report.rounds.size(), kRounds);
  for (const auto& rec : clean.report.rounds) EXPECT_DOUBLE_EQ(rec.train_loss, 3.0);

  for (const bool group_tier : {true, false}) {
    const auto malformed0 = malformed.value();
    const HubRun garbage = group_tier
                               ? run_hier_root(4, 1, kRounds, member_frame, leader_frame)
                               : run_hier_root(3, 2, kRounds, member_frame, leader_frame);
    ASSERT_EQ(garbage.report.rounds.size(), kRounds) << "group tier " << group_tier;
    for (const auto& rec : garbage.report.rounds)
      EXPECT_DOUBLE_EQ(rec.train_loss, 3.0) << "group tier " << group_tier;
    EXPECT_EQ(malformed.value() - malformed0, kRounds) << "group tier " << group_tier;
    EXPECT_TRUE(garbage.globals == clean.globals) << "group tier " << group_tier;
    EXPECT_TRUE(garbage.report.final_model == clean.report.final_model)
        << "group tier " << group_tier;
  }

  // The group tier folds in rank order, so member 1's frame is folded
  // first. A well-formed f16 frame from it must not fix the mode the others
  // are checked against: member 1 alone is dropped, and members 2 and 3,
  // sending what members 1 and 2 send in the clean run, rebuild its models.
  const FrameFn f16_first = [&](int r, std::size_t round, const Bytes& global) {
    if (r != 1) return member_frame(r - 1, round, global);
    Bytes frame = of::core::encode_update(of::core::unpack_tensors(global), 0.5, {}, 0, 3,
                                          of::core::WireRepr::F16);
    of::core::append_up_trailer(frame, of::core::UpKind::Update, {2.0f, 1.0f});
    return frame;
  };
  const auto malformed0 = malformed.value();
  const HubRun other_mode = run_hier_root(4, 1, kRounds, f16_first, leader_frame);
  ASSERT_EQ(other_mode.report.rounds.size(), kRounds);
  for (const auto& rec : other_mode.report.rounds) EXPECT_DOUBLE_EQ(rec.train_loss, 3.0);
  EXPECT_EQ(malformed.value() - malformed0, kRounds);
  EXPECT_TRUE(other_mode.globals == clean.globals);
  EXPECT_TRUE(other_mode.report.final_model == clean.report.final_model);

  // A round in which every member and every leader partial is garbage
  // leaves the root's global model untouched, and the run goes on.
  const FrameFn all_garbage_in_round1 = [&](int r, std::size_t round, const Bytes& global) {
    Bytes frame = scaled_update(r, global);
    if (round == 1) truncate_body(frame);
    of::core::append_up_trailer(frame, of::core::UpKind::Update,
                                {2.0f * static_cast<float>(r), 1.0f});
    return frame;
  };
  const HubRun empty_round = run_hier_root(3, 2, 3, all_garbage_in_round1, leader_frame);
  ASSERT_EQ(empty_round.report.rounds.size(), 3u);
  ASSERT_EQ(empty_round.globals.size(), 3u);
  EXPECT_DOUBLE_EQ(empty_round.report.rounds[1].train_loss, 0.0);  // nothing summed
  EXPECT_TRUE(empty_round.globals[0] == clean.globals[0]);
  EXPECT_TRUE(empty_round.globals[1] == clean.globals[1]);
  EXPECT_TRUE(empty_round.globals[2] == empty_round.globals[1]);
}

TEST(PrivateHub, MalformedSenderFailsTheRoundOnlyUnderFixedCohortMechanisms) {
  // Client 3 of 3 sends a well-formed Join frame, which the centralized hub
  // and the hierarchical group tier both drop. DP sums any subset of the
  // cohort, so the round goes on without client 3; SA's masks cancel only
  // in the full cohort's sum, so both hubs fail the round instead of
  // writing a garbage model.
  using Mechanism = std::unique_ptr<of::privacy::PrivacyMechanism>;
  const auto make = [](bool sa, int seed) -> Mechanism {
    if (sa) return std::make_unique<of::privacy::SecureAggregation>("key", 3);
    return std::make_unique<of::privacy::DifferentialPrivacy>(
        of::privacy::DpParams{}, static_cast<std::uint64_t>(seed));
  };
  const auto frame_for = [&](bool sa) -> FrameFn {
    return [&make, sa](int r, std::size_t, const Bytes& global) {
      const Mechanism mech = make(sa, r);
      Bytes frame = of::core::encode_update(of::core::unpack_tensors(global), 0.5 * r,
                                            {nullptr, mech.get()}, r - 1, 3);
      of::core::append_up_trailer(
          frame, r == 3 ? of::core::UpKind::Join : of::core::UpKind::Update,
          {2.0f * static_cast<float>(r), 1.0f});
      return frame;
    };
  };
  const FrameFn no_leaders = [](int, std::size_t, const Bytes&) { return Bytes{}; };
  const auto run = [&](bool sa, bool hier) {
    return hier ? run_hier_root(4, 1, 1, frame_for(sa), no_leaders, make(sa, 0))
                : run_star_hub(4, 1, frame_for(sa), make(sa, 0));
  };

  for (const bool hier : {false, true}) {
    const HubRun dp = run(false, hier);
    ASSERT_EQ(dp.report.rounds.size(), 1u) << "hierarchical " << hier;
    EXPECT_DOUBLE_EQ(dp.report.rounds[0].train_loss, 3.0) << "hierarchical " << hier;
    if (!hier) {
      EXPECT_EQ(dp.report.rounds[0].participated, 2u);
      EXPECT_EQ(dp.report.rounds[0].dropped_ranks, (std::vector<int>{3}));
    }
    for (const auto& t : of::core::unpack_tensors(dp.report.final_model))
      for (const float v : t.span()) ASSERT_TRUE(std::isfinite(v));

    try {
      (void)run(true, hier);
      ADD_FAILURE() << "SA hub aggregated without rank 3, hierarchical " << hier;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("SecureAggregation needs every sender's body"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- faulty Engine runs ----------------------------------------------------------------

ConfigNode faulty_config(const std::string& fault_block) {
  return parse_yaml(R"(seed: 7
topology:
  _target_: CentralizedTopology
  num_clients: 4
  inner_comm:
    _target_: TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
algorithm:
  _target_: FedAvg
  global_rounds: 3
  local_epochs: 1
  lr: 0.05
  momentum: 0.9
  weight_decay: 1.0e-4
eval_every: 1
)" + fault_block);
}

constexpr const char* kCrashBlock = R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 0.3
  injections:
    - kind: crash
      client: 1
      round: 1
)";

TEST(EngineFault, CrashWithQuorumCompletesAllRounds) {
  Engine engine(faulty_config(kCrashBlock));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_EQ(r.rounds[0].participated, 4u);
  EXPECT_TRUE(r.rounds[0].dropped_ranks.empty());
  for (std::size_t round : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(r.rounds[round].participated, 3u) << "round " << round;
    EXPECT_EQ(r.rounds[round].dropped_ranks, (std::vector<int>{1})) << "round " << round;
    EXPECT_TRUE(r.rounds[round].deadline_hit) << "round " << round;
  }
  EXPECT_GT(r.final_accuracy, 0.5f);

  // Telemetry reaches the CSV export.
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("participated,dropped,deadline_hit,reconnects"), std::string::npos);

  // Losing one of four clients must not wreck convergence on the toy task.
  Engine clean(faulty_config(""));
  const RunResult cr = clean.run();
  EXPECT_NEAR(r.final_accuracy, cr.final_accuracy, 0.15f);
}

TEST(EngineFault, CrashOverTcpBackend) {
  ConfigNode cfg = faulty_config(kCrashBlock);
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
  cfg.set_path("fault.round_deadline_seconds", ConfigNode::floating(1.0));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_EQ(r.rounds[1].dropped_ranks, (std::vector<int>{1}));
  // Round 2: the transport already knows the peer is dead, so it is dropped
  // up front instead of being outwaited.
  EXPECT_EQ(r.rounds[2].participated, 3u);
  EXPECT_FALSE(r.rounds[2].deadline_hit);
  EXPECT_GT(r.final_accuracy, 0.4f);
}

TEST(EngineFault, TransientDisconnectComesBackNextRound) {
  Engine engine(faulty_config(R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 0.3
  injections:
    - kind: disconnect
      client: 3
      round: 0
)"));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  // Over a backend with no severable link the outage is a deadline-length
  // stall: client 3 misses round 0 only.
  EXPECT_EQ(r.rounds[0].dropped_ranks, (std::vector<int>{3}));
  EXPECT_TRUE(r.rounds[0].deadline_hit);
  EXPECT_EQ(r.rounds[1].participated, 4u);
  EXPECT_TRUE(r.rounds[1].dropped_ranks.empty());
}

TEST(EngineFault, DelaySpikesAreOutwaitedOrDropped) {
  Engine engine(faulty_config(R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 0.2
  injections:
    - kind: delay
      client: 2
      delay_seconds: 0.5
)"));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.dropped_ranks, (std::vector<int>{2})) << "round " << rec.round;
    EXPECT_TRUE(rec.deadline_hit) << "round " << rec.round;
    EXPECT_EQ(rec.participated, 3u) << "round " << rec.round;
  }
  EXPECT_GT(r.final_accuracy, 0.4f);
}

TEST(EngineFault, UncutFaultRunMatchesTheNoFaultRun) {
  // Outside fault mode the centralized loop is the deadline loop with a
  // wait-for-all policy. A fault run whose deadline nobody hits is then the
  // same run: same model, and every deterministic metrics column equal,
  // participation and byte counts included.
  Engine faulty(faulty_config(R"(fault:
  enabled: true
  round_deadline_seconds: 30
)"));
  Engine plain(faulty_config(""));
  const RunResult a = faulty.run();
  const RunResult b = plain.run();
  ASSERT_FALSE(a.final_model_bytes.empty());
  EXPECT_TRUE(a.final_model_bytes == b.final_model_bytes);
  EXPECT_EQ(a.to_metrics_csv(), b.to_metrics_csv());
  ASSERT_EQ(b.rounds.size(), 3u);
  EXPECT_EQ(b.rounds[0].participated, 4u);
}

ConfigNode hier_config() {
  ConfigNode cfg = faulty_config("");
  cfg.set_path("topology._target_", ConfigNode::string("HierarchicalTopology"));
  cfg.set_path("topology.groups", ConfigNode::integer(2));
  cfg.set_path("topology.group_size", ConfigNode::integer(3));
  cfg.set_path("topology.outer_comm._target_", ConfigNode::string("TorchDistCommunicator"));
  cfg.set_path("eval_every", ConfigNode::integer(0));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(2));
  return cfg;
}

TEST(EngineFault, HierarchicalStragglerIsCutWithoutBlockingTheRound) {
  // Reference: the whole tree, no combiner deadline. Its mean local-train
  // time calibrates the slowdown that makes the last trainer a straggler of
  // over a second per round.
  const RunResult ref = Engine(hier_config()).run();
  ASSERT_EQ(ref.rounds.size(), 2u);
  double slowdown = 1.0 + 2.0 / std::max(ref.train_seconds / (6.0 * 2.0), 1e-5);

  // The run cannot end before the straggler trained all its rounds, so the
  // wall time bounds its per-round delay from below. The first round's
  // warm-up inflates the calibration mean, so a run that came out too fast
  // is repeated with a larger slowdown.
  RunResult r;
  double straggler_s = 0.0;
  for (int attempt = 0; attempt < 3 && straggler_s <= 1.0; ++attempt, slowdown *= 3.0) {
    ConfigNode cfg = hier_config();
    cfg.set_path("topology.combiner", parse_yaml("deadline_seconds: 0.2\nmin_clients: 1"));
    ConfigNode slowdowns = ConfigNode::list();
    for (int t = 0; t < 5; ++t) slowdowns.push_back(ConfigNode::floating(1.0));
    slowdowns.push_back(ConfigNode::floating(slowdown));
    cfg.set_path("heterogeneity.slowdowns", slowdowns);
    r = Engine(cfg).run();
    straggler_s = r.total_seconds / 2.0;
  }
  ASSERT_EQ(r.rounds.size(), 2u);
  ASSERT_GT(straggler_s, 1.0) << "the slowed trainer was not a straggler";
  for (const auto& rec : r.rounds)
    EXPECT_LT(rec.seconds, 0.5 * straggler_s)
        << "round " << rec.round << " waited for the cut straggler";
  // Round 0 trains every client from the same initial model, so the cut
  // run's round-0 loss equals the reference's only if the cut trainer's
  // loss still got counted.
  EXPECT_NE(r.rounds[0].train_loss, ref.rounds[0].train_loss);
}

TEST(EngineFault, RejectsIncompatibleConfigurations) {
  {
    ConfigNode cfg = faulty_config(kCrashBlock);
    cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
    cfg.set_path("topology.num_nodes", ConfigNode::integer(4));
    Engine engine(cfg);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
  }
  {
    ConfigNode cfg = faulty_config(kCrashBlock);
    cfg.set_path("scheduling.mode", ConfigNode::string("async"));
    Engine engine(cfg);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
  }
  {
    ConfigNode cfg = faulty_config(kCrashBlock);
    cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
    Engine engine(cfg);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
  }
}

}  // namespace
