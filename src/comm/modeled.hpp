// ModeledLinkCommunicator — a decorator that injects a synthetic network
// model (per-message latency + bytes/bandwidth serialization delay) around
// any inner communicator. This is how the repo reproduces the paper's
// cross-facility experiment (Fig. 7): the intra-site "MPI" group gets a
// fast link model, the cross-site "gRPC" star gets a slow WAN model.
//
// Two delay modes:
//   Sleep   — really sleeps, so wall-clock measurements show the regime
//   Virtual — only accounts the delay into stats().seconds_in_comm, for
//             fast deterministic tests
#pragma once

#include <memory>

#include "comm/communicator.hpp"

namespace of::comm {

struct LinkModel {
  double latency_seconds = 0.0;
  double bandwidth_bytes_per_second = 0.0;  // 0 = infinite

  double transfer_seconds(std::size_t bytes) const noexcept {
    double t = latency_seconds;
    if (bandwidth_bytes_per_second > 0.0)
      t += static_cast<double>(bytes) / bandwidth_bytes_per_second;
    return t;
  }

  // Convenience presets used in benches and examples.
  static LinkModel lan() { return {50e-6, 10e9 / 8}; }        // 50 µs, 10 Gb/s
  static LinkModel datacenter() { return {10e-6, 100e9 / 8}; }  // 10 µs, 100 Gb/s
  static LinkModel wan() { return {20e-3, 100e6 / 8}; }        // 20 ms, 100 Mb/s
};

enum class DelayMode { Sleep, Virtual };

class ModeledLinkCommunicator final : public Communicator {
 public:
  // Non-owning view over `inner`: the group owner keeps the inner alive.
  ModeledLinkCommunicator(Communicator& inner, LinkModel model, DelayMode mode);

  int rank() const override { return inner_->rank(); }
  int world_size() const override { return inner_->world_size(); }
  std::string name() const override { return "ModeledLink(" + inner_->name() + ")"; }
  bool star_only() const override { return inner_->star_only(); }

  void send_bytes(int dst, int tag, ConstByteSpan payload) override;
  using Communicator::send_bytes;
  Bytes recv_bytes(int src, int tag) override;
  std::pair<int, Bytes> recv_bytes_any(int tag) override;
  std::optional<std::pair<int, Bytes>> try_recv_bytes_any(int tag,
                                                          double timeout_seconds) override;
  bool peer_alive(int rank) const override { return inner_->peer_alive(rank); }
  double recv_timeout_seconds() const noexcept override {
    return inner_->recv_timeout_seconds();
  }
  CommStats stats() const override {
    // Surface the inner transport's fault counters through the decorator.
    CommStats s = stats_;
    const CommStats in = inner_->stats();
    s.reconnects += in.reconnects;
    s.frames_dropped += in.frames_dropped;
    return s;
  }

  // Collectives: use the inherited tree/ring algorithms over the delayed
  // send/recv when fully connected; fall back to star algorithms when the
  // inner topology is a star.
  void broadcast(Tensor& t, int root) override;
  void allreduce(Tensor& t, ReduceOp op) override;
  void reduce(Tensor& t, int root, ReduceOp op) override;
  std::vector<Tensor> gather(const Tensor& t, int root) override;
  std::vector<Tensor> allgather(const Tensor& t) override;
  void barrier() override;
  std::vector<Bytes> gather_bytes(const Bytes& b, int root) override;
  void broadcast_bytes(Bytes& b, int root) override;

  // Total modeled delay injected so far (useful in Virtual mode).
  double modeled_delay_seconds() const noexcept { return modeled_delay_; }

 private:
  void delay_for(std::size_t bytes);

  Communicator* inner_;
  LinkModel model_;
  DelayMode mode_;
  double modeled_delay_ = 0.0;
};

}  // namespace of::comm
