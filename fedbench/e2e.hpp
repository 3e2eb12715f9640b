// End-to-end runs: whole federations through core::Engine, tracing off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "workloads.hpp"

namespace fedbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One Engine construction + run() and what the benchmark reads from it.
struct EngineRun {
  bool ok = false;
  std::string error;
  of::core::RunResult result;
  double wall_s = 0.0;        // Engine construction + run()
  double round_loop_s = 0.0;  // sum of the root's RoundRecord.seconds
  double setup_s = 0.0;       // wall_s - round_loop_s
  std::uint64_t attempted = 0;  // client updates the run set out to aggregate
  std::uint64_t aggregated = 0;
  std::uint64_t errors = 0;     // deadline cuts, non-finite rejects, dropped frames
  std::uint64_t wire_bytes = 0;  // bytes sent on every link (inner + outer)
  std::string digest;           // of RunResult.final_model_bytes
  double final_loss = 0.0;
  float final_accuracy = -1.0f;
  bool output_ok = false;       // finite loss, accuracy above the floor
  double peak_rss_mb = 0.0;     // this federation's peak RSS (VmHWM)
};

EngineRun run_engine(const Workload& w, std::uint64_t seed, std::size_t rounds, ObsMode obs);

struct EndToEnd {
  std::vector<EngineRun> runs;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t round_samples = 0;
  // Printed on the stamp lines, not gated: too unsteady on a shared host
  // for a regression bound (NOTES.md).
  double round_s_p95 = 0.0;
  std::vector<Metric> metrics;
};

// Engine runs of `rounds_per_engine` rounds, back to back, until `seconds`
// have passed (at least three, so setup has a median and digests a peer).
EndToEnd run_end_to_end(const Workload& w, std::uint64_t seed, double seconds);

// The output check over a set of runs of one seed: every run's own check,
// plus one shared final-model digest on deterministic workloads.
bool outputs_agree(const Workload& w, const std::vector<EngineRun>& runs);

}  // namespace fedbench
