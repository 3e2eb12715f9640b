// Star-topology collective algorithms, shared by every communicator whose
// connectivity is client/server only (TcpCommunicator and any decorator
// wrapped around it). Rank 0 is always the hub. Every rank of the group
// must call these in the same order.
#pragma once

#include <functional>

#include "comm/communicator.hpp"

namespace of::comm::star {

void broadcast(Communicator& c, Tensor& t, int root);
void reduce(Communicator& c, Tensor& t, int root, ReduceOp op);
void allreduce(Communicator& c, Tensor& t, ReduceOp op);
std::vector<Tensor> gather(Communicator& c, const Tensor& t, int root);
std::vector<Tensor> allgather(Communicator& c, const Tensor& t);
void barrier(Communicator& c);
std::vector<Bytes> gather_bytes(Communicator& c, const Bytes& b, int root);
void broadcast_bytes(Communicator& c, Bytes& b, int root);

// --- rank-ordered deadline gather ----------------------------------------------
//
// The fault-tolerant variant of gather_bytes, and the one gather every
// lockstep star hub receives through: the hub collects client frames until
// everyone reported or the round deadline passes. Whenever it finds the
// deadline passed (it checks after each sink call), it first takes every
// frame queued by then, even one that landed while a slow sink ran, then
// proceeds with whatever arrived if at least `min_clients` made it; else it
// waits (up to `quorum_timeout_seconds` total) for a quorum. Stragglers
// past the cutoff are recorded as dropped — the aggregation layer
// re-weights around them. Peers the transport already knows are dead count
// against the quorum at once: when too few can still reach it, the hub
// fails immediately.

struct GatherOptions {
  int min_clients = 1;                  // quorum: proceed past deadline with >= this many
  double deadline_seconds = 5.0;        // soft per-round cutoff
  double quorum_timeout_seconds = 60.0; // hard cutoff waiting for the quorum itself
};

// The wait-for-all policy: every client must report. Its 60 s deadline and
// quorum timeout match the backends' own receive timeout, so a silent client
// fails the round the way a blocking gather would.
GatherOptions wait_for_all(const Communicator& c);

// The hub hands each client frame to `sink(src, frame)` in ascending rank
// order: a frame that lands ahead of a pending lower rank is held until
// that rank arrives or is cut, then sunk in order. The hub's own `b` is
// NOT sunk; clients send `b` and may pass an empty sink. With a
// StreamingSum behind the sink, the hub holds O(model) plus the held
// frames: at most all but one, about half the group when members finish
// in random order (bench_combiner_memory).
struct StreamingGather {
  std::vector<int> participated;  // client ranks that made the cutoff (sorted)
  std::vector<int> dropped;       // client ranks excluded this round (sorted)
  bool deadline_hit = false;      // true when at least one straggler was outwaited
  std::size_t peak_held_bytes = 0;  // most frame bytes held for rank order at once
};
using FrameSink = std::function<void(int src, Bytes&& frame)>;
// Collective: every rank calls it in the same order. Clients return an
// empty result.
StreamingGather gather_bytes_streaming(Communicator& c, const Bytes& b,
                                       const FrameSink& sink, const GatherOptions& opt);

}  // namespace of::comm::star
