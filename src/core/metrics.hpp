// Run metrics: per-round records assembled by the root aggregator plus
// whole-run totals. The report() helpers print the table formats the bench
// binaries use to regenerate the paper's tables/figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "refl/refl.hpp"
#include "tensor/serialize.hpp"

namespace of::core {

struct RoundRecord {
  std::size_t round = 0;
  double seconds = 0.0;      // wall time of the round at the root
  double train_loss = 0.0;   // mean local training loss across trainers
  float accuracy = -1.0f;    // mean client test accuracy; -1 = not evaluated
  std::uint64_t bytes_up = 0;    // bytes received by the root this round
  std::uint64_t bytes_down = 0;  // bytes sent by the root this round
  double mean_staleness = 0.0;   // async scheduling only

  // Centralized rounds, fault mode or not (see src/fault/): which clients
  // made the round's gather, who was cut or sent a malformed frame, and the
  // transport's recovery activity. Other modes leave these at their zeros.
  std::size_t participated = 0;    // clients aggregated this round (0 = not tracked)
  std::vector<int> dropped_ranks;  // clients excluded: deadline cut or malformed frame
  bool deadline_hit = false;       // at least one straggler was outwaited
  std::uint64_t reconnects = 0;    // cumulative link rejoins observed by the root

  // Per-phase wall time summed across all nodes' spans for this round
  // (filled from the obs trace when `obs.enabled=true`; 0 otherwise).
  double train_s = 0.0;      // local_train spans
  double encode_s = 0.0;     // update encode spans
  double send_s = 0.0;       // node-level send spans
  double recv_s = 0.0;       // node-level recv spans
  double decode_s = 0.0;     // update decode spans
  double aggregate_s = 0.0;  // aggregation spans
  double broadcast_s = 0.0;  // model broadcast spans
};

struct RunResult {
  std::vector<RoundRecord> rounds;
  float final_accuracy = -1.0f;
  double total_seconds = 0.0;
  double mean_round_seconds = 0.0;
  comm::CommStats root_comm;   // root aggregator's comm totals
  comm::CommStats inner_comm;  // summed intra-group traffic, all nodes
  comm::CommStats outer_comm;  // summed cross-group traffic (hierarchical)
  double train_seconds = 0.0;  // summed local-training time, all trainers
  // FramePool hit rate over this run's acquires (from the obs registry
  // delta); -1 when the run made no pool acquisitions.
  double pool_hit_rate = -1.0;
  std::size_t model_scalars = 0;
  std::string algorithm;
  std::string model;
  std::string dataset;
  // Packed bytes of the final global model (the root aggregator's
  // state.global after the last round) — what determinism checks compare.
  tensor::Bytes final_model_bytes;

  // Last recorded accuracy (skips -1 sentinels).
  float last_accuracy() const noexcept {
    for (auto it = rounds.rbegin(); it != rounds.rend(); ++it)
      if (it->accuracy >= 0.0f) return it->accuracy;
    return -1.0f;
  }

  std::string summary() const;
  // Per-round metrics as CSV (header + one line per round).
  std::string to_csv() const;
  void write_csv(const std::string& path) const;
  // Deterministic columns only (no wall-clock fields): identical runs must
  // produce identical strings — the determinism property test compares them.
  std::string to_metrics_csv() const;
};

}  // namespace of::core

// One descriptor drives both CSV surfaces: to_csv() emits every exported
// field in declaration order (vector fields as their size, bools as 1/0),
// to_metrics_csv() only the `.det()` subset — fields that are pure functions
// of the run's inputs, safe for bitwise determinism comparison. Columns are
// append-only: existing parsers index the original prefix.
template <>
struct of::refl::Reflect<of::core::RoundRecord> {
  OF_REFL_FIELDS(field("round", &of::core::RoundRecord::round, 1).det(),
                 field("seconds", &of::core::RoundRecord::seconds, 2),
                 field("train_loss", &of::core::RoundRecord::train_loss, 3).det(),
                 field("accuracy", &of::core::RoundRecord::accuracy, 4).det(),
                 field("bytes_up", &of::core::RoundRecord::bytes_up, 5).det(),
                 field("bytes_down", &of::core::RoundRecord::bytes_down, 6).det(),
                 field("mean_staleness", &of::core::RoundRecord::mean_staleness, 7),
                 field("participated", &of::core::RoundRecord::participated, 8).det(),
                 field("dropped", &of::core::RoundRecord::dropped_ranks, 9).det(),
                 field("deadline_hit", &of::core::RoundRecord::deadline_hit, 10),
                 field("reconnects", &of::core::RoundRecord::reconnects, 11),
                 field("train_s", &of::core::RoundRecord::train_s, 12),
                 field("encode_s", &of::core::RoundRecord::encode_s, 13),
                 field("send_s", &of::core::RoundRecord::send_s, 14),
                 field("recv_s", &of::core::RoundRecord::recv_s, 15),
                 field("decode_s", &of::core::RoundRecord::decode_s, 16),
                 field("aggregate_s", &of::core::RoundRecord::aggregate_s, 17),
                 field("broadcast_s", &of::core::RoundRecord::broadcast_s, 18))
};
