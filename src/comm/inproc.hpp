// InProcCommunicator — the TorchDistCommunicator/MPI stand-in.
//
// A process group of N ranks living in one process (one thread per rank,
// matching the Engine's Ray-actor-per-node model). Point-to-point messages
// go through per-destination mailboxes keyed by (src, tag); the collectives
// are the real tree/ring algorithms inherited from Communicator, so byte
// counts and step structure match a genuine MPI backend.
//
// recv_bytes blocks with a deadline (default 60 s): a mismatched collective
// ordering across ranks surfaces as a readable timeout error, not a hang.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <queue>

#include "comm/communicator.hpp"
#include "obs/context.hpp"

namespace of::comm {

class InProcGroup;

class InProcCommunicator final : public Communicator {
 public:
  InProcCommunicator(InProcGroup& group, int rank);

  int rank() const override { return rank_; }
  int world_size() const override;
  std::string name() const override { return "InProcCommunicator"; }

  void send_bytes(int dst, int tag, ConstByteSpan payload) override;
  using Communicator::send_bytes;
  Bytes recv_bytes(int src, int tag) override;
  std::pair<int, Bytes> recv_bytes_any(int tag) override;
  std::optional<std::pair<int, Bytes>> try_recv_bytes_any(int tag,
                                                          double timeout_seconds) override;

  void set_recv_timeout(double seconds) noexcept { timeout_seconds_ = seconds; }
  double recv_timeout_seconds() const noexcept override { return timeout_seconds_; }

 private:
  InProcGroup* group_;
  int rank_;
  double timeout_seconds_ = 60.0;
};

// Owns the mailboxes and hands out one Communicator per rank. Create the
// group on the orchestrating thread, then give comm(r) to rank r's thread.
class InProcGroup {
 public:
  explicit InProcGroup(int world_size);
  ~InProcGroup() = default;
  InProcGroup(const InProcGroup&) = delete;
  InProcGroup& operator=(const InProcGroup&) = delete;

  int world_size() const noexcept { return world_size_; }
  InProcCommunicator& comm(int rank);

 private:
  friend class InProcCommunicator;

  // One in-flight message: payload plus the sender's trace context, adopted
  // by the taker so cross-thread spans stay causally linked (DESIGN.md §9).
  struct Message {
    Bytes payload;
    obs::TraceContext ctx;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::queue<Message>> slots;  // (src, tag) → FIFO
  };

  void deliver(int dst, int src, int tag, Bytes payload);
  Bytes take(int dst, int src, int tag, double timeout_seconds);
  std::pair<int, Bytes> take_any(int dst, int tag, double timeout_seconds);
  std::optional<std::pair<int, Bytes>> try_take_any(int dst, int tag,
                                                    double timeout_seconds);

  int world_size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<InProcCommunicator>> comms_;
};

}  // namespace of::comm
