// AmqpCommunicator — the publish/subscribe middleware path the paper lists
// as in development (§3.3): "clients push updates to a queue, which is
// subsequently pulled by the aggregator Node".
//
// Implemented on top of the streaming broker substrate: every node owns a
// queue (topic "node<rank>", one partition, so per-sender FIFO holds);
// send publishes a framed record to the destination's queue, recv pulls
// from the own queue and demultiplexes by (src, tag). Connectivity is
// any-to-any, so the inherited tree/ring collectives apply unchanged —
// swapping TorchDist ↔ Amqp in the config changes no caller code.
#pragma once

#include <map>
#include <memory>
#include <queue>

#include "comm/communicator.hpp"
#include "streaming/broker.hpp"

namespace of::comm {

class AmqpGroup;

class AmqpCommunicator final : public Communicator {
 public:
  AmqpCommunicator(AmqpGroup& group, int rank);

  int rank() const override { return rank_; }
  int world_size() const override;
  std::string name() const override { return "AmqpCommunicator"; }

  void send_bytes(int dst, int tag, ConstByteSpan payload) override;
  using Communicator::send_bytes;
  Bytes recv_bytes(int src, int tag) override;
  // Queues are inherently any-source: the next matching frame in arrival
  // order, from whichever publisher — exactly the semantics the paper
  // wants AMQP for ("clients push updates to a queue").
  std::pair<int, Bytes> recv_bytes_any(int tag) override;
  std::optional<std::pair<int, Bytes>> try_recv_bytes_any(int tag,
                                                          double timeout_seconds) override;

  void set_recv_timeout(double seconds) noexcept { timeout_seconds_ = seconds; }
  double recv_timeout_seconds() const noexcept override { return timeout_seconds_; }

 private:
  // Pull from the queue until a frame with `tag` is available or the
  // deadline passes; nullopt on timeout.
  std::optional<std::pair<int, Bytes>> pull_any(int tag, double timeout_seconds);

  AmqpGroup* group_;
  int rank_;
  std::uint64_t next_offset_ = 0;
  // Frames pulled from the queue but not yet requested by recv.
  std::map<std::pair<int, int>, std::queue<Bytes>> pending_;
  double timeout_seconds_ = 60.0;
};

// Owns the broker and one communicator per rank.
class AmqpGroup {
 public:
  explicit AmqpGroup(int world_size);
  AmqpGroup(const AmqpGroup&) = delete;
  AmqpGroup& operator=(const AmqpGroup&) = delete;

  int world_size() const noexcept { return world_size_; }
  AmqpCommunicator& comm(int rank);
  streaming::Broker& broker() noexcept { return broker_; }

  static std::string queue_name(int rank) { return "node" + std::to_string(rank); }

 private:
  int world_size_;
  streaming::Broker broker_;
  std::vector<std::unique_ptr<AmqpCommunicator>> comms_;
};

}  // namespace of::comm
