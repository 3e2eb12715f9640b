// The benchmark's four federation workloads and the configs they run.
// NOTES.md records why each workload exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/node.hpp"

namespace fedbench {

enum class Shape { Central, Serve, Hier };
enum class ObsMode { Off, Trace, Full };

struct Workload {
  std::string name;
  Shape shape = Shape::Central;
  // Central/Serve: the client link is TCP. Hier: the outer (leader) link is.
  bool tcp = false;
  std::string model;
  std::string preset;
  std::size_t train_per_class = 0;  // 0 = the preset's own count
  std::size_t batch_size = 32;
  double lr = 0.1;
  std::size_t local_epochs = 2;
  int groups = 1;              // Hier only; Central/Serve use one group
  int trainers_per_group = 3;  // trainers per group
  std::size_t exec_threads = 1;  // 0 = one per hardware thread
  // Client-link codec (Serve) or outer-link codec (Hier); "" = plain f32.
  std::string codec_yaml;
  std::size_t rounds_per_engine = 20;
  float accuracy_floor = 0.5f;
  // Bitwise-reproducible final model for a fixed seed (lockstep workloads).
  bool deterministic = true;

  int trainers() const noexcept { return groups * trainers_per_group; }
  // Trainers plus one aggregator per group (the root leads group 0).
  int nodes() const noexcept { return groups * (trainers_per_group + 1); }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Resolved Engine config for one run. `port` is the TCP port of the
// workload's TCP link (ignored by InProc-only workloads).
of::config::ConfigNode make_config(const Workload& w, std::uint64_t seed, std::size_t rounds,
                               std::uint16_t port, ObsMode obs);
// The workload's codec config (the reference QSGD 8-bit codec when the
// workload sends plain f32 frames, so compression.* always has a value).
of::config::ConfigNode codec_config(const Workload& w);
// Loopback port nothing currently holds, from the kernel.
std::uint16_t fresh_port();

}  // namespace fedbench
