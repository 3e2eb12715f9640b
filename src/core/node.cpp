#include "core/node.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "comm/star.hpp"
#include "common/check.hpp"
#include "common/nonfinite.hpp"
#include "obs/flightrec.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/buffer.hpp"
#include "serve/registry.hpp"
#include "serve/sampler.hpp"

namespace of::core {
namespace {

using obs::Name;
using obs::ScopedSpan;

using Clock = std::chrono::steady_clock;

obs::Histogram& async_staleness_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram("async.staleness");
  return h;
}

obs::Counter& malformed_dropped() {
  static obs::Counter& c = obs::Registry::global().counter("payload.malformed_dropped");
  return c;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Hub side of the up-frame (payload.hpp): strip the telemetry tail, if any,
// into the fleet registry, then the trailer, leaving the body in `frame`.
// Nothing comes back for a frame the codec rejects.
std::optional<UpTrailer> take_up_frame(tensor::Bytes& frame, bool telemetry) {
  if (telemetry) {
    std::size_t tail = 0;
    if (const auto t =
            obs::TelemetrySummary::parse_tail(frame.data(), frame.size(), &tail)) {
      frame.resize(frame.size() - tail);
      obs::Fleet::global().record(*t);
    }
  }
  return strip_up_trailer(frame);
}

// Star round hubs accept Update frames only; any other frame is malformed
// and drops its sender for the round.
std::optional<UpMetrics> take_update(tensor::Bytes& frame, bool telemetry) {
  const auto up = take_up_frame(frame, telemetry);
  if (up && up->kind == UpKind::Update) return up->metrics;
  malformed_dropped().inc();
  return std::nullopt;
}

// Hub-side metric totals, summed in source-rank order. The centralized and
// serve hubs accumulate in double; the combiner tree sums in float, and a
// leader forwards its group's float sum upward in its own trailer.
template <typename T>
struct MetricSums {
  T loss = 0, steps = 0, acc = 0, acc_n = 0;

  void add(const UpMetrics& m) {
    loss += m.loss_sum;
    steps += m.steps;
    acc += m.acc_sum;
    acc_n += m.acc_n;
  }
  double train_loss() const { return steps > 0 ? static_cast<double>(loss / steps) : 0.0; }
  float accuracy() const { return acc_n > 0 ? static_cast<float>(acc / acc_n) : -1.0f; }
  UpMetrics up() const {
    return {static_cast<float>(loss), static_cast<float>(steps), static_cast<float>(acc),
            static_cast<float>(acc_n)};
  }
};

// Detach the thread-local phase sink on every exit path out of run().
struct PhaseSinkGuard {
  ~PhaseSinkGuard() { obs::set_phase_sink(nullptr); }
};

}  // namespace

OwnedComm OwnedComm::make(const CommSpec& spec) {
  OwnedComm out;
  comm::Communicator* base = nullptr;
  switch (spec.backend) {
    case CommSpec::Backend::InProc:
      OF_CHECK_MSG(spec.group != nullptr, "InProc spec without a group");
      base = &spec.group->comm(spec.rank);
      break;
    case CommSpec::Backend::Tcp:
      if (spec.rank == 0)
        out.tcp = comm::TcpCommunicator::make_server(spec.port, spec.world, spec.tcp_ft);
      else
        out.tcp = comm::TcpCommunicator::make_client(spec.host, spec.port, spec.rank,
                                                     spec.world, spec.tcp_ft);
      base = out.tcp.get();
      break;
    case CommSpec::Backend::Amqp:
      OF_CHECK_MSG(spec.amqp_group != nullptr, "Amqp spec without a group");
      base = &spec.amqp_group->comm(spec.rank);
      break;
    case CommSpec::Backend::None:
      OF_CHECK_MSG(false, "cannot build a communicator from an empty spec");
  }
  if (spec.link.has_value()) {
    out.modeled =
        std::make_unique<comm::ModeledLinkCommunicator>(*base, *spec.link, spec.delay_mode);
    out.use = out.modeled.get();
  } else {
    out.use = base;
  }
  return out;
}

NodeRuntime::NodeRuntime(NodeSetup setup) : s_(std::move(setup)), rng_(s_.seed) {
  ctx_.model = &s_.model;
  ctx_.optimizer = s_.optimizer.get();
  ctx_.scheduler = s_.scheduler.get();
  ctx_.loader = s_.loader.get();
  ctx_.client_id = s_.cohort_index;
  ctx_.num_clients = s_.cohort_size;
  ctx_.local_epochs = s_.local_epochs;
  ctx_.rng = &rng_;
  ctx_.params = s_.algorithm_params;
}

NodeReport NodeRuntime::run() {
  OwnedComm inner = OwnedComm::make(s_.inner_spec);
  tcp_inner_ = inner.tcp.get();
  // Telemetry rides the client→aggregator update frames, so it is only
  // active in the modes whose aggregator strips it back off.
  telem_on_ = s_.obs_telemetry && (s_.mode == "centralized" || s_.mode == "async");
  PhaseSinkGuard sink_guard;
  if (telem_on_ && s_.role == NodeRole::Trainer)
    obs::set_phase_sink(phase_digests_.data());
  NodeReport report;
  // Async mode is the serve loop's FedBuff special case (fraction 1,
  // buffer 1); the Engine maps the scheduling group onto s_.serve.
  OF_CHECK_MSG(s_.mode != "async" || (s_.serve.enabled && s_.serve.mode == serve::Mode::FedBuff),
               "node " << s_.node_id << ": async mode without a serve config");
  if (s_.serve.enabled && s_.serve.mode == serve::Mode::FedBuff) {
    report = s_.role == NodeRole::Aggregator ? run_serve_aggregator(*inner.use)
                                             : run_serve_trainer(*inner.use);
  } else if (s_.mode == "ring") {
    report = run_ring_node(*inner.use);
  } else if (s_.role == NodeRole::Trainer) {
    report = run_star_trainer(*inner.use);
  } else if (s_.mode == "centralized") {
    report = run_star_aggregator(*inner.use);
  } else if (s_.mode == "hierarchical") {
    OwnedComm outer = OwnedComm::make(s_.outer_spec);
    report = run_hier_leader(*inner.use, *outer.use);
    report.comm_outer += outer.use->stats();
  } else {
    OF_CHECK_MSG(false, "node " << s_.node_id << ": unsupported mode '" << s_.mode << "'");
  }
  report.comm_inner += inner.use->stats();
  report.train_seconds = train_seconds_;
  return report;
}

comm::star::PartialGatherOptions NodeRuntime::round_gather_options(
    const comm::Communicator& inner) const {
  if (s_.fault.enabled)
    return {s_.fault.min_clients, s_.fault.round_deadline_seconds,
            s_.fault.quorum_timeout_seconds};
  return comm::star::wait_for_all(inner);
}

void NodeRuntime::simulate_slowdown(double train_seconds_elapsed) {
  if (s_.slowdown <= 1.0) return;
  // The simulated extra compute is train time from the fleet's point of
  // view: span it so phase digests (and critical-path attribution) see it.
  ScopedSpan span(Name::LocalTrain, s_.node_id, ctx_.round);
  std::this_thread::sleep_for(
      std::chrono::duration<double>((s_.slowdown - 1.0) * train_seconds_elapsed));
}

void NodeRuntime::maybe_clock_sync(std::size_t round) {
  if (!telem_on_ || tcp_inner_ == nullptr || tcp_inner_->rank() == 0) return;
  const std::size_t every = s_.obs_clock_sync_every;
  if (round != 0 && (every == 0 || round % every != 0)) return;
  // A short burst at the first round, then one refresh sample per sync
  // point; the estimator keeps the minimum-RTT sample, which carries the
  // least queueing distortion.
  const int samples = round == 0 ? 4 : 1;
  for (int i = 0; i < samples; ++i)
    if (const auto sample = tcp_inner_->ping_server()) offset_est_.add(*sample);
}

void NodeRuntime::append_telemetry(tensor::Bytes& frame, comm::Communicator& inner,
                                   std::size_t round) {
  if (!telem_on_) return;
  obs::TelemetrySummary t;
  t.trace_id = obs::run_trace_id();
  t.rank = static_cast<std::uint32_t>(inner.rank());
  t.round = static_cast<std::uint32_t>(round);
  // The innermost open span here is this client's Round span: the exemplar
  // the coordinator attaches to critical-path attribution (v2 wire only).
  t.round_span_id = obs::current_context().span_id;
  if (offset_est_.valid()) {
    t.clock_offset_ns = offset_est_.offset_ns();
    t.rtt_ns = offset_est_.rtt_ns();
  }
  const auto st = inner.stats();
  t.bytes_sent = st.bytes_sent - telem_prev_sent_;
  t.bytes_received = st.bytes_received - telem_prev_recv_;
  telem_prev_sent_ = st.bytes_sent;
  telem_prev_recv_ = st.bytes_received;
  t.pool_hits = pool_.acquired() - pool_.created();
  t.pool_misses = pool_.created();
  t.reconnects = st.reconnects;
  t.frames_dropped = st.frames_dropped;
  t.faults_injected = telem_faults_;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    t.phases[i] = phase_digests_[i];
    phase_digests_[i] = obs::PhaseDigest{};
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0)
    t.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  if (s_.obs_wire_version >= 2)
    t.serialize_tlv_to(frame);
  else
    t.serialize_to(frame);
}

void NodeRuntime::train_one_round(const std::vector<tensor::Tensor>& global,
                                  std::size_t round, algorithms::TrainStats& stats_out,
                                  tensor::Bytes& frame_out) {
  auto& algo = *s_.algorithm;
  ctx_.round = round;
  if (round == 0) algo.on_train_start(ctx_);
  algo.apply_global(ctx_, global);
  const auto cohort = static_cast<std::size_t>(s_.cohort_size);
  if (s_.clients_per_round > 0 && s_.clients_per_round < cohort) {
    // Same seed + round on every node → identical selection, no coordination.
    std::vector<int> ids(cohort);
    std::iota(ids.begin(), ids.end(), 0);
    const auto picked = serve::ClientSampler(s_.participation_seed)
                            .sample_count(round, ids, s_.clients_per_round);
    if (!std::binary_search(picked.begin(), picked.end(), s_.cohort_index)) {
      stats_out = algorithms::TrainStats{};
      frame_out = encode_skip_update();
      return;
    }
  }
  algo.on_round_start(ctx_);
  const auto t0 = Clock::now();
  algorithms::TrainStats stats;
  {
    ScopedSpan span(Name::LocalTrain, s_.node_id, round);
    stats = algo.local_train(ctx_);
  }
  stats_out = stats;
  const double elapsed = seconds_since(t0);
  train_seconds_ += elapsed;
  simulate_slowdown(elapsed);
  auto payload = algo.client_update(ctx_);
  algo.on_round_end(ctx_);
  if (s_.byzantine) {
    // Fault injection for robust-aggregation experiments.
    for (auto& t : payload) {
      if (s_.byzantine_kind == "noise") {
        for (std::size_t i = 0; i < t.numel(); ++i)
          t[i] += static_cast<float>(rng_.gaussian(0.0, 10.0));
      } else {  // sign_flip (scaled, the classic model-poisoning attack)
        t.scale_(-10.0f);
      }
    }
  }
  const PayloadPlugins plugins{s_.compressor.get(), s_.privacy.get()};
  if (s_.compressor)
    s_.compressor->set_stream(round, static_cast<std::uint64_t>(s_.cohort_index));
  ScopedSpan span(Name::Encode, s_.node_id, round);
  try {
    encode_update_into(payload, s_.weight_scale, plugins, s_.cohort_index,
                       s_.cohort_size, pool_, frame_out, s_.wire_repr);
  } catch (const NonFiniteUpdateError&) {
    // Numeric admission rejected the update (NaN/Inf coordinate). Send a
    // skip frame instead: the aggregator drops this client for the round
    // exactly like a non-participant, rather than letting one poisoned
    // coordinate spread through the aggregate.
    obs::Registry::global().counter("payload.nonfinite_rejected").inc();
    frame_out = encode_skip_update();
  }
  span.set_arg(frame_out.size());
}

UpMetrics NodeRuntime::round_metrics(const algorithms::TrainStats& stats,
                                     std::size_t round) {
  UpMetrics m;
  m.loss_sum = static_cast<float>(stats.loss_sum);
  m.steps = static_cast<float>(stats.steps);
  const bool eval_now = (s_.eval_every > 0 && (round + 1) % s_.eval_every == 0) ||
                        round + 1 == s_.global_rounds;
  if (eval_now && s_.test_set != nullptr) {
    nn::Model* em = s_.algorithm->eval_model(ctx_);
    m.acc_sum = algorithms::evaluate_accuracy(*em, *s_.test_set);
    m.acc_n = 1.0f;
  }
  return m;
}

// --- star round loops ----------------------------------------------------------
//
// Centralized rounds (fault mode or not) and hierarchical group members run
// one trainer loop: receive the global model, train, evaluate, and report
// update + metrics in a single up-frame through the deadline gather. The
// centralized hub runs one aggregator loop; only the gather policy differs
// — the fault spec's deadline and quorum in fault mode, wait-for-all
// otherwise (round_gather_options).

NodeReport NodeRuntime::run_star_trainer(comm::Communicator& inner) {
  // A disabled spec never fires, so this is a no-op outside fault mode.
  fault::FaultInjector injector(s_.fault, inner.rank(), s_.participation_seed);
  const auto opt = round_gather_options(inner);
  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    // Parent this round under the aggregator span that sent the broadcast
    // we are about to receive — the cross-node edge of the merged trace.
    round_span.link_remote_parent();
    maybe_clock_sync(round);
    tensor::Bytes gbytes;
    {
      ScopedSpan span(Name::Recv, s_.node_id, round);
      inner.broadcast_bytes(gbytes, 0);
      span.set_arg(gbytes.size());
    }
    const auto decision = injector.at_round(static_cast<int>(round));
    if (decision.crash) {  // device powers off mid-run
      if (obs::FlightRecorder::global().armed_for_fault())
        obs::FlightRecorder::global().dump("fault_crash");
      return NodeReport{};
    }
    if (decision.disconnect || decision.extra_delay_seconds > 0.0) ++telem_faults_;
    std::vector<tensor::Tensor> global;
    {
      ScopedSpan span(Name::Decode, s_.node_id, round, gbytes.size());
      global = unpack_tensors(gbytes);
    }
    algorithms::TrainStats stats;
    train_one_round(global, round, stats, frame_buf_);
    if (decision.extra_delay_seconds > 0.0) {
      // An injected straggler is indistinguishable from slow compute on the
      // wire; span the stall as train time so attribution names it `compute`
      // and the flight recorder captures it as this client's final span.
      ScopedSpan delay_span(Name::LocalTrain, s_.node_id, round);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(decision.extra_delay_seconds));
      delay_span.end();
      if (obs::FlightRecorder::global().armed_for_fault())
        obs::FlightRecorder::global().dump("fault_delay");
    }
    if (decision.disconnect) {
      if (tcp_inner_ != nullptr) {
        // Real link loss: the transport reconnects with backoff and replays
        // the queued frame; whether we make the deadline is up to the race.
        tcp_inner_->inject_disconnect(0);
      } else {
        // Backends without a severable link model the outage as an outage-
        // length stall — just past the deadline, so the round is missed.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(s_.fault.round_deadline_seconds + 0.05));
      }
    }
    append_up_trailer(frame_buf_, UpKind::Update, round_metrics(stats, round));
    append_telemetry(frame_buf_, inner, round);
    {
      ScopedSpan span(Name::Send, s_.node_id, round, frame_buf_.size());
      (void)comm::star::gather_bytes_partial(inner, frame_buf_, opt);
    }
  }
  return NodeReport{};
}

NodeReport NodeRuntime::run_star_aggregator(comm::Communicator& inner) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  state.global = algo.initial_global(s_.model);
  const auto opt = round_gather_options(inner);

  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    const auto t0 = Clock::now();
    const auto bytes_sent_before = inner.stats().bytes_sent;
    const auto bytes_recv_before = inner.stats().bytes_received;

    tensor::Bytes gbytes = pack_tensors(state.global);
    {
      ScopedSpan span(Name::Broadcast, s_.node_id, round, gbytes.size());
      inner.broadcast_bytes(gbytes, 0);
    }
    ScopedSpan recv_span(Name::Recv, s_.node_id, round);
    auto partial = comm::star::gather_bytes_partial(inner, {}, opt);
    recv_span.end();
    if (partial.deadline_hit) {
      obs::Registry::global().counter("fault.deadline_cuts").inc();
      obs::instant(Name::DeadlineCut, s_.node_id, round, partial.dropped.size());
      if (obs::FlightRecorder::global().armed_for_deadline_cut())
        obs::FlightRecorder::global().dump("deadline_cut");
    }

    const auto agg_t0 = Clock::now();
    ScopedSpan agg_span(Name::Aggregate, s_.node_id, round,
                        partial.participated.size());
    // Strip each up-frame in place, in rank order, so the metric totals
    // accumulate in the same order for any arrival order and thread count.
    // A malformed frame drops its sender for the round.
    std::vector<tensor::Bytes> frames;
    MetricSums<double> sums;
    double weight_sum = 0.0;
    int contributing = 0;
    for (const int p : partial.participated) {
      tensor::Bytes& f = partial.frames[static_cast<std::size_t>(p)];
      const auto m = take_update(f, telem_on_);
      if (!m) {
        partial.dropped.push_back(p);
        continue;
      }
      sums.add(*m);
      if (!is_skip_update(f)) {
        ++contributing;
        const auto ci = static_cast<std::size_t>(p - 1);  // rank p ↔ cohort index p-1
        if (ci < s_.client_weights.size()) weight_sum += s_.client_weights[ci];
      }
      frames.push_back(std::move(f));
    }
    std::sort(partial.dropped.begin(), partial.dropped.end());

    if (contributing > 0) {
      auto mean = s_.aggregation_rule == AggregationRule::Mean
                      ? mean_updates(frames, s_.compressor.get(), s_.privacy.get(), &pool_)
                      : robust_combine(frames, s_.compressor.get(), s_.aggregation_rule,
                                       s_.aggregation_trim, &pool_);
      // Each update was pre-scaled by n_i·N/total; the uniform mean over the
      // k survivors therefore needs k / (N·Σ w_i) to become the exact
      // weighted mean over the surviving cohort (= 1 at full participation).
      // N is the client count: the hub's own cohort fields describe no cohort.
      if (s_.aggregation_rule == AggregationRule::Mean && !s_.client_weights.empty() &&
          weight_sum > 1e-12) {
        const double corr = static_cast<double>(contributing) /
                            (static_cast<double>(inner.world_size() - 1) * weight_sum);
        if (std::abs(corr - 1.0) > 1e-9)
          for (auto& t : mean) t.scale_(static_cast<float>(corr));
      }
      state.round = round;
      state.global = algo.server_update(state, mean);
    }  // an empty round (quorum of skips) leaves the global model untouched
    agg_span.end();
    const double aggregate_s = seconds_since(agg_t0);

    RoundRecord rec;
    rec.round = round;
    rec.seconds = seconds_since(t0);
    rec.train_loss = sums.train_loss();
    rec.accuracy = sums.accuracy();
    rec.bytes_down = inner.stats().bytes_sent - bytes_sent_before;
    rec.bytes_up = inner.stats().bytes_received - bytes_recv_before;
    rec.participated = frames.size();
    rec.dropped_ranks = partial.dropped;
    rec.deadline_hit = partial.deadline_hit;
    rec.reconnects = inner.stats().reconnects;
    if (telem_on_) {
      obs::Fleet::RoundHealth h;
      h.round = static_cast<std::uint32_t>(round);
      h.participated = static_cast<std::uint32_t>(frames.size());
      h.expected = static_cast<std::uint32_t>(inner.world_size() - 1);
      h.dropped = partial.dropped;
      h.deadline_hit = partial.deadline_hit;
      h.bytes_up = rec.bytes_up;
      h.bytes_down = rec.bytes_down;
      h.seconds = rec.seconds;
      h.aggregate_seconds = aggregate_s;
      obs::Fleet::global().record_round(h);
    }
    report.rounds.push_back(rec);
  }
  report.final_model = pack_tensors(state.global);
  return report;
}

NodeReport NodeRuntime::run_ring_node(comm::Communicator& inner) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  // Decentralized: the "server" state is replicated on every node and
  // evolves deterministically from identical means.
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  state.global = algo.initial_global(s_.model);

  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    const auto t0 = Clock::now();
    algorithms::TrainStats stats;
    ctx_.round = round;
    if (round == 0) algo.on_train_start(ctx_);
    algo.apply_global(ctx_, state.global);
    algo.on_round_start(ctx_);
    const auto tt = Clock::now();
    {
      ScopedSpan span(Name::LocalTrain, s_.node_id, round);
      stats = algo.local_train(ctx_);
    }
    train_seconds_ += seconds_since(tt);
    auto payload = algo.client_update(ctx_);
    algo.on_round_end(ctx_);

    std::vector<tensor::Tensor> mean;
    if (s_.compressor) {
      // Sparse codecs exchange via all-gather (paper §3.4.2).
      const PayloadPlugins plugins{s_.compressor.get(), nullptr};
      s_.compressor->set_stream(round, static_cast<std::uint64_t>(s_.cohort_index));
      {
        ScopedSpan span(Name::Encode, s_.node_id, round);
        try {
          encode_update_into(payload, s_.weight_scale, plugins, s_.cohort_index,
                             s_.cohort_size, pool_, frame_buf_, s_.wire_repr);
        } catch (const NonFiniteUpdateError&) {
          obs::Registry::global().counter("payload.nonfinite_rejected").inc();
          frame_buf_ = encode_skip_update();
        }
        span.set_arg(frame_buf_.size());
      }
      ScopedSpan agg_span(Name::Aggregate, s_.node_id, round);
      const auto frames = inner.allgather_bytes(frame_buf_);
      mean = mean_updates(frames, s_.compressor.get(), nullptr, &pool_);
    } else {
      // Dense path: bandwidth-optimal ring all-reduce on the flat payload.
      ScopedSpan agg_span(Name::Aggregate, s_.node_id, round);
      std::vector<tensor::Tensor> scaled = payload;
      for (auto& t : scaled) t.scale_(static_cast<float>(s_.weight_scale));
      tensor::Tensor flat = tensor::flatten_all(scaled);
      inner.allreduce(flat, comm::ReduceOp::Mean);
      mean = payload;  // reuse shapes
      for (auto& t : mean) t.zero_();
      tensor::unflatten_into(flat, mean);
    }
    state.round = round;
    state.global = algo.server_update(state, mean);

    // Metrics: summed across the ring; rank 0 records.
    const UpMetrics um = round_metrics(stats, round);
    tensor::Tensor m = tensor::Tensor::from_vector({um.loss_sum, um.steps, um.acc_sum, um.acc_n});
    inner.allreduce(m, comm::ReduceOp::Sum);
    if (inner.rank() == 0) {
      RoundRecord rec;
      rec.round = round;
      rec.seconds = seconds_since(t0);
      rec.train_loss = m[1] > 0 ? m[0] / m[1] : 0.0;
      rec.accuracy = m[3] > 0 ? m[2] / m[3] : -1.0f;
      rec.bytes_down = 0;
      rec.bytes_up = 0;
      report.rounds.push_back(rec);
    }
  }
  report.final_model = pack_tensors(state.global);
  return report;
}

// --- serving tier (src/serve/, DESIGN.md §14) ---------------------------------
//
// The coordinator serves a registered population instead of running
// lockstep rounds: fraction-fit sampling keeps ceil(fraction × alive)
// clients training concurrently, arriving updates fold into a bounded
// staleness buffer (the FedBuff shape; Nguyen et al. 2022) that drains into
// the global model every `buffer_size` accepted updates, and over-stale or
// overflow updates are answered with a retry-after control frame instead of
// silently folded. buffer_size = 1 with fraction = 1 reproduces the classic
// FedAsync rule w ← w + α/(1+s)·Δ — the old `scheduling: {mode: async}`
// group maps onto exactly that configuration. Frames:
//   kServeModel  server → client: u8 kind | body
//     kind 0 Invite: packed global tensors
//     kind 1 Retry:  u8 reason (1 = stale, 2 = full) | f32 retry_after_s
//     kind 2 Stop:   (empty)
//   kServeUpdate client → server: the star up-frame (payload.hpp)
//     Update: payload frame body, loss_sum/steps in the trailer
//     Join:   empty body — re-registration after a churn departure
//     Leave:  empty body — voluntary churn departure
//     Final:  empty body, acc_sum/acc_n in the trailer
namespace {
constexpr int kServeModel = 105;
constexpr int kServeUpdate = 106;

constexpr std::uint8_t kDownInvite = 0;
constexpr std::uint8_t kDownRetry = 1;
constexpr std::uint8_t kDownStop = 2;
constexpr std::uint8_t kRetryStale = 1;
constexpr std::uint8_t kRetryFull = 2;

// Detach the transport lifecycle observer on every exit path — the callback
// captures serve-loop locals that die with the stack frame.
struct LifecycleGuard {
  comm::TcpCommunicator* tcp;
  ~LifecycleGuard() {
    if (tcp) tcp->set_peer_lifecycle(nullptr);
  }
};
}  // namespace

NodeReport NodeRuntime::run_serve_aggregator(comm::Communicator& inner) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  state.global = algo.initial_global(s_.model);
  const int clients = inner.world_size() - 1;
  OF_CHECK_MSG(clients >= 1, "the serving tier needs at least one trainer");
  const std::size_t total = s_.serve.total_updates
                                ? s_.serve.total_updates
                                : s_.global_rounds * static_cast<std::size_t>(clients);

  serve::PopulationRegistry registry;
  serve::ClientSampler sampler(s_.participation_seed);
  serve::StalenessBuffer buffer(pool_, s_.compressor.get(), s_.serve.buffer_size,
                                s_.serve.max_staleness, s_.serve.alpha);

  // Server model version = buffer drains so far. Atomic because the
  // transport lifecycle callback below reads it from the event-loop thread.
  std::atomic<std::uint64_t> version{0};

  // Transport liveness feed: a dropped socket marks the client dead the
  // moment the event loop sees it, ahead of any protocol-level timeout; a
  // re-admission marks it alive again. Protocol join/leave frames drive the
  // same registry, so non-TCP backends (InProc/AMQP) churn correctly too.
  LifecycleGuard lifecycle{tcp_inner_};
  if (tcp_inner_)
    tcp_inner_->set_peer_lifecycle([&registry, &version](int rank, bool up) {
      if (up)
        registry.join(rank, version.load(std::memory_order_relaxed));
      else
        registry.leave(rank, version.load(std::memory_order_relaxed));
    });

  // OwnedComm::make blocks until every client connected, so the whole
  // transport world starts registered (idempotent against the feed above).
  for (int c = 1; c <= clients; ++c) registry.join(c, 0);

  std::size_t trace_round = 0;
  std::vector<std::uint64_t> invited_version(static_cast<std::size_t>(clients) + 1, 0);
  std::set<int> in_flight;  // invites outstanding (model sent, no reply yet)
  std::uint64_t resampled = 0;
  std::uint64_t pick_counter = 0;

  auto send_model = [&](int dst) {
    tensor::Bytes frame;
    tensor::append_pod<std::uint8_t>(frame, kDownInvite);
    const tensor::Bytes packed = pack_tensors(state.global);
    frame.insert(frame.end(), packed.begin(), packed.end());
    ScopedSpan span(Name::Send, s_.node_id, trace_round, frame.size());
    inner.send_bytes(dst, kServeModel, frame);
    invited_version[static_cast<std::size_t>(dst)] =
        version.load(std::memory_order_relaxed);
    in_flight.insert(dst);
  };

  std::vector<int> sample = sampler.sample(0, registry.alive(), s_.serve.fraction);

  // Keep the window's concurrency at target: idle sample members first,
  // then deterministic replacement picks for churned-away invitees.
  auto top_up = [&] {
    const auto accepted = static_cast<std::size_t>(buffer.accepted_total());
    if (accepted >= total) return;
    std::size_t target = serve::ClientSampler::target_count(registry.alive_count(),
                                                            s_.serve.fraction);
    // Never keep more clients training than updates still wanted.
    target = std::min(target, total - accepted);
    for (int r : sample) {
      if (in_flight.size() >= target) break;
      if (in_flight.count(r) == 0 && registry.is_alive(r)) send_model(r);
    }
    while (in_flight.size() < target) {
      const std::vector<int> exclude(in_flight.begin(), in_flight.end());
      const int pick = sampler.resample(version.load(std::memory_order_relaxed),
                                        pick_counter++, registry.alive(), exclude);
      if (pick < 0) break;
      send_model(pick);
      ++resampled;
    }
  };

  const auto run_t0 = Clock::now();
  auto group_t0 = Clock::now();
  MetricSums<double> sums;

  auto record_serve_health = [&] {
    if (!telem_on_) return;
    obs::Fleet::ServeHealth h;
    h.version = version.load(std::memory_order_relaxed);
    h.population = registry.population();
    h.alive = static_cast<std::uint32_t>(registry.alive_count());
    h.sampled = static_cast<std::uint32_t>(sample.size());
    h.buffered = static_cast<std::uint32_t>(buffer.size());
    h.buffer_size = static_cast<std::uint32_t>(buffer.capacity());
    h.accepted_total = buffer.accepted_total();
    h.rejected_stale_total = buffer.rejected_stale_total();
    h.rejected_full_total = buffer.rejected_full_total();
    h.resampled_total = resampled;
    h.joins_total = registry.joins_total();
    h.leaves_total = registry.leaves_total();
    h.mean_staleness = buffer.accepted_total() > 0
                           ? static_cast<double>(buffer.staleness_sum()) /
                                 static_cast<double>(buffer.accepted_total())
                           : 0.0;
    h.seconds = seconds_since(run_t0);
    obs::Fleet::global().record_serve(h);
  };

  top_up();
  record_serve_health();

  while (static_cast<std::size_t>(buffer.accepted_total()) < total) {
    ScopedSpan recv_span(Name::Recv, s_.node_id, trace_round);
    auto [src, frame] = inner.recv_bytes_any(kServeUpdate);
    recv_span.set_arg(frame.size());
    recv_span.end();
    const auto up = take_up_frame(frame, telem_on_);
    const std::uint64_t v = version.load(std::memory_order_relaxed);
    if (!up || up->kind != UpKind::Update) {
      // Join/Leave re-shape the population. A malformed frame, or a Final
      // before any Stop, is dropped and counted; like a Leave it frees the
      // sender's invite slot so the window re-fills around it.
      if (up && up->kind == UpKind::Join) {
        registry.join(src, v);
      } else {
        if (up && up->kind == UpKind::Leave)
          registry.leave(src, v);
        else
          malformed_dropped().inc();
        in_flight.erase(src);
      }
      top_up();
      record_serve_health();
      continue;
    }
    registry.seen(src, v);
    in_flight.erase(src);
    const auto staleness =
        static_cast<std::size_t>(v - invited_version[static_cast<std::size_t>(src)]);
    obs::instant(Name::AsyncStaleness, s_.node_id, trace_round, staleness);
    async_staleness_hist().observe(staleness);
    const auto admission = buffer.offer(frame, staleness);
    if (admission == serve::StalenessBuffer::Admission::Accepted) {
      sums.add(up->metrics);
    } else {
      // Backpressure (admission control): answer with a retry-after control
      // frame instead of silently folding or dropping the client's work.
      tensor::Bytes reply;
      tensor::append_pod<std::uint8_t>(reply, kDownRetry);
      tensor::append_pod<std::uint8_t>(
          reply, admission == serve::StalenessBuffer::Admission::RejectedStale
                     ? kRetryStale
                     : kRetryFull);
      tensor::append_pod<float>(reply, static_cast<float>(s_.serve.retry_seconds));
      inner.send_bytes(src, kServeModel, reply);
    }

    if (buffer.ready()) {
      ScopedSpan span(Name::Aggregate, s_.node_id, trace_round, buffer.size());
      const auto mean = buffer.drain();
      OF_CHECK_MSG(mean.size() == state.global.size(), "serve payload size drift");
      for (std::size_t i = 0; i < mean.size(); ++i)
        state.global[i].add_scaled_(mean[i], 1.0f);
      const std::uint64_t nv = version.fetch_add(1, std::memory_order_relaxed) + 1;
      // New aggregation window: a fresh invitation sample over the current
      // alive set.
      sample = sampler.sample(nv, registry.alive(), s_.serve.fraction);
      pick_counter = 0;
    }

    top_up();

    const auto accepted = static_cast<std::size_t>(buffer.accepted_total());
    // One RoundRecord per `clients` accepted updates — the old async loop's
    // cadence, so metrics CSVs stay comparable across modes.
    if (admission == serve::StalenessBuffer::Admission::Accepted &&
        (accepted % static_cast<std::size_t>(clients) == 0 || accepted == total)) {
      RoundRecord rec;
      rec.round = report.rounds.size();
      rec.seconds = seconds_since(group_t0);
      rec.train_loss = sums.train_loss();
      rec.accuracy = -1.0f;
      // Running mean over every accepted update so far, so each virtual
      // round reports staleness; the last record carries the run mean.
      rec.mean_staleness = static_cast<double>(buffer.staleness_sum()) /
                           static_cast<double>(accepted);
      if (telem_on_) {
        obs::Fleet::RoundHealth h;
        h.round = static_cast<std::uint32_t>(rec.round);
        h.participated = static_cast<std::uint32_t>(clients);
        h.expected = static_cast<std::uint32_t>(clients);
        h.seconds = rec.seconds;
        obs::Fleet::global().record_round(h);
      }
      report.rounds.push_back(rec);
      trace_round = report.rounds.size();
      sums = MetricSums<double>{};
      group_t0 = Clock::now();
    }
    record_serve_health();
  }

  // Stop every transport rank — in-flight stragglers and away churners all
  // see the queued Stop once their current step completes.
  for (int c = 1; c <= clients; ++c) {
    tensor::Bytes stop;
    tensor::append_pod<std::uint8_t>(stop, kDownStop);
    inner.send_bytes(c, kServeModel, stop);
  }

  // Collect each client's final test accuracy, discarding stray frames
  // (late updates, churn re-registrations) that raced the Stop.
  MetricSums<double> finals;
  for (int got = 0; got < clients;) {
    auto [src, frame] = inner.recv_bytes_any(kServeUpdate);
    (void)src;
    const auto up = take_up_frame(frame, telem_on_);
    if (!up || up->kind != UpKind::Final) continue;
    finals.add(up->metrics);
    ++got;
  }
  if (!report.rounds.empty() && finals.acc_n > 0)
    report.rounds.back().accuracy = finals.accuracy();
  record_serve_health();
  report.final_model = pack_tensors(state.global);
  return report;
}

NodeReport NodeRuntime::run_serve_trainer(comm::Communicator& inner) {
  auto& algo = *s_.algorithm;
  // Churn decisions replay deterministically from (run seed, rank):
  // participation_seed is the same run-derived value on every node, salted
  // per client inside ChurnProcess.
  fault::ChurnProcess churn(s_.fault.churn, inner.rank(), s_.participation_seed);
  std::size_t round = 0;
  algorithms::TrainStats last_stats;
  for (;;) {
    maybe_clock_sync(round);
    ScopedSpan recv_span(Name::Recv, s_.node_id, round);
    const tensor::Bytes frame = inner.recv_bytes(0, kServeModel);
    recv_span.set_arg(frame.size());
    recv_span.end();
    std::size_t off = 0;
    const auto kind = tensor::read_pod<std::uint8_t>(frame, off);
    if (kind == kDownStop) break;
    if (kind == kDownRetry) {
      // Our update was rejected (buffer full or over-stale): honour the
      // coordinator's pacing before blocking on the next invite.
      ++off;  // reason byte — coordinator-side telemetry, unused here
      const double wait = serve::retry_wait_seconds(tensor::read_pod<float>(frame, off),
                                                    inner.recv_timeout_seconds());
      if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      continue;
    }
    OF_CHECK_MSG(kind == kDownInvite,
                 "serve: unexpected down-frame kind " << static_cast<int>(kind));
    if (churn.leave_now()) {
      // Churn departure: deregister, stay away, come back as a fresh
      // registration. The invite's model snapshot is discarded — the
      // coordinator resamples a replacement for this window.
      tensor::Bytes msg;
      append_up_trailer(msg, UpKind::Leave, {});
      inner.send_bytes(0, kServeUpdate, msg);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(churn.down_seconds()));
      msg.clear();
      append_up_trailer(msg, UpKind::Join, {});
      inner.send_bytes(0, kServeUpdate, msg);
      continue;
    }
    const tensor::Bytes packed(frame.begin() + static_cast<std::ptrdiff_t>(off),
                               frame.end());
    ScopedSpan decode_span(Name::Decode, s_.node_id, round, packed.size());
    const auto global = unpack_tensors(packed);
    decode_span.end();

    ctx_.round = round;
    if (round == 0) algo.on_train_start(ctx_);
    algo.apply_global(ctx_, global);
    algo.on_round_start(ctx_);
    const auto t0 = Clock::now();
    {
      ScopedSpan span(Name::LocalTrain, s_.node_id, round);
      last_stats = algo.local_train(ctx_);
    }
    const double elapsed = seconds_since(t0);
    train_seconds_ += elapsed;
    simulate_slowdown(elapsed);
    algo.on_round_end(ctx_);

    // The wire always carries the delta against the snapshot we trained
    // from, whatever the algorithm's own payload convention is (the buffer
    // folds staleness-weighted deltas).
    std::vector<tensor::Tensor> payload;
    {
      std::vector<nn::Parameter*> shared;
      for (auto* p : ctx_.model->parameters())
        if (algo.shares_parameter(*p)) shared.push_back(p);
      OF_CHECK_MSG(shared.size() == global.size(), "serve payload/global mismatch");
      for (std::size_t i = 0; i < shared.size(); ++i) {
        tensor::Tensor d = shared[i]->value;
        d.sub_(global[i]);
        payload.push_back(std::move(d));
      }
    }
    const PayloadPlugins plugins{s_.compressor.get(), nullptr};
    if (s_.compressor)
      s_.compressor->set_stream(round, static_cast<std::uint64_t>(s_.cohort_index));
    {
      ScopedSpan span(Name::Encode, s_.node_id, round);
      try {
        encode_update_into(payload, s_.weight_scale, plugins, s_.cohort_index,
                           s_.cohort_size, pool_, frame_buf_, s_.wire_repr);
      } catch (const NonFiniteUpdateError&) {
        // The buffer's StreamingSum ignores the skip marker, so a rejected
        // update contributes nothing to the folded aggregate.
        obs::Registry::global().counter("payload.nonfinite_rejected").inc();
        frame_buf_ = encode_skip_update();
      }
      span.set_arg(frame_buf_.size());
    }
    append_up_trailer(frame_buf_, UpKind::Update,
                      {static_cast<float>(last_stats.loss_sum),
                       static_cast<float>(last_stats.steps)});
    append_telemetry(frame_buf_, inner, round);
    {
      ScopedSpan span(Name::Send, s_.node_id, round, frame_buf_.size());
      inner.send_bytes(0, kServeUpdate, frame_buf_);
    }
    ++round;
  }
  // Final evaluation.
  UpMetrics fin;
  if (s_.test_set) {
    fin.acc_sum = algorithms::evaluate_accuracy(*algo.eval_model(ctx_), *s_.test_set);
    fin.acc_n = 1.0f;
  }
  tensor::Bytes msg;
  append_up_trailer(msg, UpKind::Final, fin);
  inner.send_bytes(0, kServeUpdate, msg);
  return NodeReport{};
}

NodeReport NodeRuntime::run_hier_leader(comm::Communicator& inner,
                                        comm::Communicator& outer) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  const bool is_root = outer.rank() == 0;
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  if (is_root) state.global = algo.initial_global(s_.model);

  // Combiner tier (DESIGN.md §10): stream each arriving group update into a
  // partial-sum frame and forward only `partial_scale × sum` plus its count
  // upward, so aggregation state is O(model × combiners) instead of
  // O(clients × model). Privacy frames only mean anything in aggregate with
  // every masked body present, so those setups keep collect-then-mean and
  // always wait for the whole group.
  const bool streaming = s_.privacy == nullptr;
  StreamingSum group_sum(pool_, s_.compressor.get());
  StreamingSum root_sum(pool_, s_.outer_compressor.get());
  comm::star::PartialGatherOptions group_opt = comm::star::wait_for_all(inner);
  if (streaming && s_.hier_deadline_seconds > 0) {
    group_opt.min_clients = std::min(s_.hier_min_clients, inner.world_size() - 1);
    group_opt.deadline_seconds = s_.hier_deadline_seconds;
  }
  const auto outer_opt = comm::star::wait_for_all(outer);  // combiners are never cut
  // Per-source-rank metrics of this round's up-frames; a rank that was cut
  // or sent a malformed frame keeps zeros, which leave the float sums as-is.
  std::vector<UpMetrics> group_up(static_cast<std::size_t>(inner.world_size()));
  std::vector<UpMetrics> outer_up(static_cast<std::size_t>(outer.world_size()));
  std::vector<tensor::Bytes> frames;        // privacy path: group frames by rank
  std::vector<tensor::Bytes> outer_frames;  // privacy path: leader frames by rank
  const auto sum_metrics = [](const std::vector<UpMetrics>& per_rank) {
    MetricSums<float> s;
    for (const auto& m : per_rank) s.add(m);
    return s;
  };

  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    const auto t0 = Clock::now();
    const auto sent_before = inner.stats().bytes_sent + outer.stats().bytes_sent;
    const auto recv_before = inner.stats().bytes_received + outer.stats().bytes_received;
    // Global payload: root → leaders → group members.
    tensor::Bytes gbytes;
    if (is_root) gbytes = pack_tensors(state.global);
    {
      ScopedSpan span(Name::Broadcast, s_.node_id, round);
      outer.broadcast_bytes(gbytes, 0);
      inner.broadcast_bytes(gbytes, 0);
      span.set_arg(gbytes.size());
    }

    const PayloadPlugins outer_plugins{s_.outer_compressor.get(), nullptr};
    if (s_.outer_compressor)
      s_.outer_compressor->set_stream(round, static_cast<std::uint64_t>(outer.rank()));

    // Group tier: fold each trainer's up-frame the moment it arrives.
    std::fill(group_up.begin(), group_up.end(), UpMetrics{});
    group_sum.reset();
    frames.assign(static_cast<std::size_t>(inner.world_size() - 1), {});
    comm::star::StreamingGather sg;
    {
      ScopedSpan span(Name::Recv, s_.node_id, round);
      sg = comm::star::gather_bytes_streaming(
          inner, {},
          [&](int src, tensor::Bytes&& frame) {
            const auto m = take_update(frame, telem_on_);
            if (!m) return;
            group_up[static_cast<std::size_t>(src)] = *m;
            if (streaming)
              group_sum.add(frame);
            else
              frames[static_cast<std::size_t>(src - 1)] = std::move(frame);
          },
          group_opt);
    }
    if (s_.obs_telemetry) {
      obs::Fleet::CombinerHealth ch;
      ch.group = s_.group;
      ch.round = static_cast<std::uint32_t>(round);
      ch.participated = static_cast<std::uint32_t>(sg.participated.size());
      ch.expected = static_cast<std::uint32_t>(inner.world_size() - 1);
      ch.dropped = static_cast<std::uint32_t>(sg.dropped.size());
      ch.deadline_hit = sg.deadline_hit;
      ch.agg_peak_bytes = group_sum.peak_bytes();
      ch.seconds = seconds_since(t0);
      obs::Fleet::global().record_combiner(ch);
    }

    // Leader → root up-frame: the group's partial sum (privacy path: its
    // pre-aggregated mean), with the group's metric sum as the trailer.
    if (!streaming) {
      ScopedSpan span(Name::Aggregate, s_.node_id, round, frames.size());
      const auto group_mean =
          mean_updates(frames, s_.compressor.get(), s_.privacy.get(), &pool_);
      span.end();
      ScopedSpan enc_span(Name::Encode, s_.node_id, round);
      encode_update_into(group_mean, s_.weight_scale, outer_plugins, outer.rank(),
                         outer.world_size(), pool_, frame_buf_, s_.wire_repr);
      enc_span.set_arg(frame_buf_.size());
    } else {
      ScopedSpan span(Name::Encode, s_.node_id, round);
      group_sum.encode_partial_into(s_.partial_scale, s_.outer_compressor.get(),
                                    frame_buf_, s_.wire_repr);
      span.set_arg(frame_buf_.size());
    }
    const MetricSums<float> group_total = sum_metrics(group_up);
    std::fill(outer_up.begin(), outer_up.end(), UpMetrics{});
    outer_frames.assign(static_cast<std::size_t>(outer.world_size()), {});
    if (is_root) {
      // The root folds in its own group directly.
      outer_up[0] = group_total.up();
      if (streaming) {
        root_sum.reset();
        root_sum.add_partial(frame_buf_);
      } else {
        outer_frames[0] = frame_buf_;
      }
    } else {
      append_up_trailer(frame_buf_, UpKind::Update, group_total.up());
    }

    // Cross-facility tier: leader up-frames stream into the root the same way.
    ScopedSpan outer_span(Name::Send, s_.node_id, round, frame_buf_.size());
    (void)comm::star::gather_bytes_streaming(
        outer, frame_buf_,
        [&](int src, tensor::Bytes&& frame) {
          const auto m = take_update(frame, false);
          if (!m) return;
          outer_up[static_cast<std::size_t>(src)] = *m;
          if (streaming)
            root_sum.add_partial(frame);
          else
            outer_frames[static_cast<std::size_t>(src)] = std::move(frame);
        },
        outer_opt);
    outer_span.end();
    if (is_root) {
      {
        ScopedSpan span(Name::Aggregate, s_.node_id, round,
                        streaming ? root_sum.count() : outer_frames.size());
        const auto mean =
            streaming ? root_sum.finish_mean()
                      : mean_updates(outer_frames, s_.outer_compressor.get(), nullptr,
                                     &pool_);
        state.round = round;
        state.global = algo.server_update(state, mean);
      }
      const MetricSums<float> total = sum_metrics(outer_up);
      RoundRecord rec;
      rec.round = round;
      rec.seconds = seconds_since(t0);
      rec.train_loss = total.train_loss();
      rec.accuracy = total.accuracy();
      rec.bytes_up = inner.stats().bytes_received + outer.stats().bytes_received - recv_before;
      rec.bytes_down = inner.stats().bytes_sent + outer.stats().bytes_sent - sent_before;
      report.rounds.push_back(rec);
    }
  }
  if (is_root) report.final_model = pack_tensors(state.global);
  return report;
}

}  // namespace of::core
