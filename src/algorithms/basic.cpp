// FedProx, FedMom, FedNova — the "classic" FedAvg variants.
#include "algorithms/builtin.hpp"
#include "common/check.hpp"

namespace of::algorithms {

// --- FedAvgDelta -----------------------------------------------------------------

void FedAvgDelta::on_round_start(TrainContext& ctx) {
  ctx.state["w_start"] = shared_values(*ctx.model);
}

std::vector<Tensor> FedAvgDelta::client_update(TrainContext& ctx) {
  const auto& w_start = ctx.state.at("w_start");
  auto params = shared_parameters(*ctx.model);
  OF_CHECK(params.size() == w_start.size());
  std::vector<Tensor> payload;
  payload.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor d = params[i]->value;
    d.sub_(w_start[i]);
    payload.push_back(std::move(d));
  }
  return payload;
}

std::vector<Tensor> FedAvgDelta::server_update(ServerState& state,
                                               const std::vector<Tensor>& mean) {
  OF_CHECK_MSG(mean.size() == state.global.size(), "FedAvgDelta payload size drift");
  for (std::size_t i = 0; i < mean.size(); ++i) state.global[i].add_(mean[i]);
  return state.global;
}

// --- FedProx -----------------------------------------------------------------

void FedProx::on_round_start(TrainContext& ctx) {
  // Stash the round-start (global) parameters for the proximal pull.
  ctx.state["w_global"] = shared_values(*ctx.model);
}

TrainStats FedProx::local_train(TrainContext& ctx) {
  const float mu = ctx.params.get_or<float>("mu", 0.01f);
  return run_sgd_epochs(ctx, [this, mu](TrainContext& c) {
    const auto& w_global = c.state.at("w_global");
    auto params = shared_parameters(*c.model);
    OF_CHECK(params.size() == w_global.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      // grad += μ (w − w_global)
      params[i]->grad.add_scaled_(params[i]->value, mu);
      params[i]->grad.add_scaled_(w_global[i], -mu);
    }
  });
}

// --- FedMom ------------------------------------------------------------------

std::vector<Tensor> FedMom::server_update(ServerState& state,
                                          const std::vector<Tensor>& mean) {
  const float beta = state.params.get_or<float>("beta", 0.9f);
  if (state.round == 0 && state.buffers.find("momentum") == state.buffers.end()) {
    std::vector<Tensor> v;
    for (const auto& t : mean) v.emplace_back(t.shape());
    state.buffers["momentum"] = std::move(v);
  }
  auto& v = state.buffers.at("momentum");
  OF_CHECK_MSG(v.size() == mean.size() && state.global.size() == mean.size(),
               "FedMom payload size drift");
  for (std::size_t i = 0; i < mean.size(); ++i) {
    // Δ = w_prev − mean;  v ← β v + Δ;  w ← w_prev − v
    Tensor delta = state.global[i];
    delta.sub_(mean[i]);
    v[i].scale_(beta);
    v[i].add_(delta);
    state.global[i].sub_(v[i]);
  }
  return state.global;
}

// --- FedNova -----------------------------------------------------------------

void FedNova::on_round_start(TrainContext& ctx) {
  ctx.state["w_start"] = shared_values(*ctx.model);
  ctx.scalars["tau"] = 0.0;
}

TrainStats FedNova::local_train(TrainContext& ctx) {
  TrainStats stats = run_sgd_epochs(ctx);
  ctx.scalars["tau"] = static_cast<double>(stats.steps);
  return stats;
}

std::vector<Tensor> FedNova::client_update(TrainContext& ctx) {
  const auto& w_start = ctx.state.at("w_start");
  const double tau = std::max(1.0, ctx.scalars.at("tau"));
  std::vector<Tensor> payload;
  auto params = shared_parameters(*ctx.model);
  OF_CHECK(params.size() == w_start.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    // Normalized direction d_i = (w_start − w_i) / τ_i.
    Tensor d = w_start[i];
    d.sub_(params[i]->value);
    d.scale_(static_cast<float>(1.0 / tau));
    payload.push_back(std::move(d));
  }
  payload.push_back(Tensor({1}, static_cast<float>(tau)));
  return payload;
}

std::vector<tensor::Shape> FedNova::payload_shapes(const std::vector<Tensor>& global) const {
  auto shapes = Algorithm::payload_shapes(global);
  shapes.push_back({1});  // tau
  return shapes;
}

std::vector<Tensor> FedNova::server_update(ServerState& state,
                                           const std::vector<Tensor>& mean) {
  OF_CHECK_MSG(mean.size() == state.global.size() + 1,
               "FedNova payload must be deltas + tau");
  const float tau_eff = mean.back()[0];  // mean of client taus
  for (std::size_t i = 0; i < state.global.size(); ++i)
    state.global[i].add_scaled_(mean[i], -tau_eff);
  return state.global;
}

}  // namespace of::algorithms
