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

// --- deadline-based partial gather --------------------------------------------
//
// The fault-tolerant variant of gather_bytes: the hub collects client frames
// until either everyone reported or the round deadline passes. Past the
// deadline it proceeds with whatever arrived, provided at least
// `min_clients` made it; otherwise it keeps waiting (up to
// `quorum_timeout_seconds` total) for a quorum. Stragglers past the cutoff
// are recorded as dropped — the aggregation layer re-weights around them.
// Peers the transport already knows are dead count against the quorum at
// once: when too few clients remain to reach it, the hub fails immediately.

struct PartialGatherOptions {
  int min_clients = 1;                  // quorum: proceed past deadline with >= this many
  double deadline_seconds = 5.0;        // soft per-round cutoff
  double quorum_timeout_seconds = 60.0; // hard cutoff waiting for the quorum itself
};

// The wait-for-all policy: every client must report. Its 60 s deadline and
// quorum timeout match the backends' own receive timeout, so a silent client
// fails the round the way a blocking gather would.
PartialGatherOptions wait_for_all(const Communicator& c);

struct PartialGather {
  // Indexed by rank; frames[0] is the hub's own contribution, a dropped
  // client's slot stays empty.
  std::vector<Bytes> frames;
  std::vector<int> participated;  // client ranks that made the cutoff (sorted)
  std::vector<int> dropped;       // client ranks excluded this round (sorted)
  bool deadline_hit = false;      // true when at least one straggler was outwaited
};

// Collective: every rank calls it in the same order. Clients send and return
// an empty result; the hub (rank 0) returns the populated PartialGather.
PartialGather gather_bytes_partial(Communicator& c, const Bytes& b,
                                   const PartialGatherOptions& opt);

// Streaming variant — the combiner tier's primitive. Same deadline/quorum
// protocol as gather_bytes_partial, but the hub never materializes the frame
// set: each client frame is handed to `sink(src, frame)` the moment it
// arrives (the hub's own contribution `b` is NOT sunk — the caller already
// holds it). With a StreamingSum behind the sink, hub aggregation state is
// O(model), not O(clients × model).
struct StreamingGather {
  std::vector<int> participated;  // client ranks that made the cutoff (sorted)
  std::vector<int> dropped;       // client ranks excluded this round (sorted)
  bool deadline_hit = false;
};
using FrameSink = std::function<void(int src, Bytes&& frame)>;
StreamingGather gather_bytes_streaming(Communicator& c, const Bytes& b,
                                       const FrameSink& sink,
                                       const PartialGatherOptions& opt);

}  // namespace of::comm::star
