// The 11 built-in FL algorithms (paper §3.4.1): FedAvg, FedProx, FedMom,
// FedNova, Scaffold, Moon, FedPer, FedDyn, FedBN, Ditto, DiLoCo.
//
// Every algorithm is a single class overriding only the hooks it needs —
// the paper's "single-file algorithm plugin" claim, transplanted to C++.
// Payload conventions are documented per class; all of them keep step 4
// of the round protocol a plain weighted mean (see algorithm.hpp).
#pragma once

#include "algorithms/algorithm.hpp"

namespace of::algorithms {

// FedAvg (McMahan et al. 2017): payload = model parameters; global = mean.
class FedAvg : public Algorithm {
 public:
  std::string name() const override { return "FedAvg"; }
};

// FedAvgDelta: mathematically identical to FedAvg (global = w_start +
// mean(w_i − w_start) = mean(w_i)) but transmits *deltas*, so gradient
// compressors act on gradient-like quantities instead of raw weights —
// the wire encoding the paper's §3.4.2 gradient-compression study implies.
class FedAvgDelta final : public Algorithm {
 public:
  std::string name() const override { return "FedAvgDelta"; }
  void on_round_start(TrainContext& ctx) override;
  std::vector<Tensor> client_update(TrainContext& ctx) override;
  std::vector<Tensor> server_update(ServerState& state,
                                    const std::vector<Tensor>& mean) override;
};

// FedProx (Li et al. 2018): FedAvg + proximal term μ/2·‖w − w_global‖² in
// the local objective, realized as +μ(w − w_global) on the gradients.
class FedProx final : public Algorithm {
 public:
  std::string name() const override { return "FedProx"; }
  void on_round_start(TrainContext& ctx) override;
  TrainStats local_train(TrainContext& ctx) override;
};

// FedMom (Huo et al. 2020): server-side momentum over the aggregated
// model. Payload = parameters; server: Δ = w_prev − mean,
// v ← β·v + Δ, w ← w_prev − v.
class FedMom final : public Algorithm {
 public:
  std::string name() const override { return "FedMom"; }
  std::vector<Tensor> server_update(ServerState& state,
                                    const std::vector<Tensor>& mean) override;
};

// FedNova (Wang et al. 2020): normalized averaging for heterogeneous local
// step counts. Payload = [delta/τ_i per parameter…, τ_i]; server:
// w ← w_prev − mean(τ)·mean(delta/τ).
class FedNova final : public Algorithm {
 public:
  std::string name() const override { return "FedNova"; }
  void on_round_start(TrainContext& ctx) override;
  TrainStats local_train(TrainContext& ctx) override;
  std::vector<Tensor> client_update(TrainContext& ctx) override;
  std::vector<Tensor> server_update(ServerState& state,
                                    const std::vector<Tensor>& mean) override;
  std::vector<tensor::Shape> payload_shapes(const std::vector<Tensor>& global) const override;
};

// SCAFFOLD (Karimireddy et al. 2020): control variates correct client
// drift. Payload = [Δw…, Δc…]; global payload = [w…, c…]. Local gradients
// are corrected by (c − c_i).
class Scaffold final : public Algorithm {
 public:
  std::string name() const override { return "Scaffold"; }
  void on_train_start(TrainContext& ctx) override;
  void apply_global(TrainContext& ctx, const std::vector<Tensor>& global) override;
  TrainStats local_train(TrainContext& ctx) override;
  std::vector<Tensor> client_update(TrainContext& ctx) override;
  std::vector<Tensor> initial_global(Model& reference) override;
  std::vector<Tensor> server_update(ServerState& state,
                                    const std::vector<Tensor>& mean) override;
};

// MOON (Li et al. 2021): model-contrastive loss pulls local features
// toward the global model's and away from the previous local model's.
class Moon final : public Algorithm {
 public:
  std::string name() const override { return "Moon"; }
  void apply_global(TrainContext& ctx, const std::vector<Tensor>& global) override;
  TrainStats local_train(TrainContext& ctx) override;
  void on_round_end(TrainContext& ctx) override;
};

// FedPer (Arivazhagan et al. 2019): base layers are federated, the
// classification head stays personal.
class FedPer final : public Algorithm {
 public:
  std::string name() const override { return "FedPer"; }
  bool shares_parameter(const Parameter& p) const override { return !p.is_head; }
};

// FedDyn (Acar et al. 2021): dynamic regularization. Each client keeps a
// dual variable λ_i; local loss −⟨λ_i, w⟩ + α/2·‖w − w_global‖²; server
// integrates drift h and shifts the average.
class FedDyn final : public Algorithm {
 public:
  std::string name() const override { return "FedDyn"; }
  void on_train_start(TrainContext& ctx) override;
  void on_round_start(TrainContext& ctx) override;
  TrainStats local_train(TrainContext& ctx) override;
  void on_round_end(TrainContext& ctx) override;
  std::vector<Tensor> server_update(ServerState& state,
                                    const std::vector<Tensor>& mean) override;
};

// FedBN (Li et al. 2021): BatchNorm parameters never leave the client.
class FedBN final : public Algorithm {
 public:
  std::string name() const override { return "FedBN"; }
  bool shares_parameter(const Parameter& p) const override { return !p.is_batchnorm; }
};

// Ditto (Li et al. 2021): a personal model v_i trained with a proximal pull
// toward the federated global model; evaluation uses the personal model.
class Ditto final : public Algorithm {
 public:
  std::string name() const override { return "Ditto"; }
  TrainStats local_train(TrainContext& ctx) override;
  Model* eval_model(TrainContext& ctx) override;
};

// DiLoCo (Douillard et al. 2023): H inner steps of AdamW locally, outer
// Nesterov-momentum SGD over the pseudo-gradient (w_start − w_local).
class DiLoCo final : public Algorithm {
 public:
  std::string name() const override { return "DiLoCo"; }
  void on_round_start(TrainContext& ctx) override;
  TrainStats local_train(TrainContext& ctx) override;
  std::vector<Tensor> client_update(TrainContext& ctx) override;
  std::vector<Tensor> server_update(ServerState& state,
                                    const std::vector<Tensor>& mean) override;
};

}  // namespace of::algorithms
