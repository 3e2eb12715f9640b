// The traced run: (a) a replay of the workload's round pipeline that calls
// each layer's public functions under spans this benchmark records, plus
// timed probes of single calls; (b) Engine runs with obs off and on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace fedbench {

struct Traced {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string largest_layer;  // by self time within the replayed rounds
  double largest_share = 0.0;
  std::size_t replay_rounds = 0;
};

Traced run_traced(const Workload& w, std::uint64_t seed, double seconds, SpanRecorder& rec);

}  // namespace fedbench
