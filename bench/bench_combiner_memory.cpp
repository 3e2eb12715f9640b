// Combiner aggregation memory under real arrival order (DESIGN.md §10).
//
// A combiner folds its members' frames in rank order: a frame that lands
// ahead of a missing lower rank waits inside star::gather_bytes_streaming
// until that rank arrives. So its aggregation state is the StreamingSum
// (O(model)) plus those held frames, and how many it holds depends on the
// order the members finish training. This bench runs real hierarchical
// federations (2 groups, ResNet18-mini on cifar10_like, in-process inner and
// outer tiers) and reads every combiner's per-round `agg_peak_bytes` from
// obs::Fleet, next to the bare StreamingSum peak for the same model — which
// is all a combiner held when it folded in arrival order.
//
// Usage: bench_combiner_memory [members_csv] [rounds]
//   defaults: 4,8,16 members per group, 6 rounds.
// Results land in EXPERIMENTS.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "core/frame_pool.hpp"
#include "core/payload.hpp"
#include "obs/telemetry.hpp"

namespace {

of::config::ConfigNode hier_config(int members, int rounds) {
  using of::config::ConfigNode;
  ConfigNode cfg = of::config::parse_yaml(R"(
seed: 7
topology:
  _target_: HierarchicalTopology
  groups: 2
  inner_comm:
    _target_: TorchDistCommunicator
  outer_comm:
    _target_: TorchDistCommunicator
model: resnet18_mini
datamodule:
  preset: cifar10_like
  partition: iid
  batch_size: 16
algorithm:
  _target_: FedAvg
  local_epochs: 1
  lr: 0.05
eval_every: 0
obs:
  enabled: true
  telemetry: true
  ring_capacity: 4096
)");
  cfg.set_path("topology.group_size", ConfigNode::integer(members));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(rounds));
  return cfg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes{4, 8, 16};
  if (argc > 1) {
    sizes.clear();
    std::stringstream ss(argv[1]);
    for (std::string tok; std::getline(ss, tok, ',');) sizes.push_back(std::atoi(tok.c_str()));
  }
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 6;

  std::printf("combiner aggregation memory, 2 groups, ResNet18-mini, %d rounds\n", rounds);
  std::printf("%7s | %4s | %9s | %13s | %14s | %11s | %12s\n", "members", "rows", "frame KiB",
              "sum peak KiB", "agg median KiB", "agg max KiB", "held med/max");
  for (const int members : sizes) {
    // Fleet keeps each combiner's latest row only: poll it through the run.
    std::map<std::pair<int, std::uint32_t>, std::uint64_t> peak;
    const auto sample = [&] {
      for (const auto& c : of::obs::Fleet::global().combiners()) {
        auto& p = peak[{c.group, c.round}];
        p = std::max(p, c.agg_peak_bytes);
      }
    };
    std::atomic<bool> done{false};
    std::thread poller([&] {
      while (!done.load()) {
        sample();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    of::core::Engine engine(hier_config(members, rounds));
    const auto result = engine.run();
    done = true;
    poller.join();
    sample();

    // One member's up-frame body and the StreamingSum peak it folds into.
    const auto payload = of::core::unpack_tensors(result.final_model_bytes);
    const auto frame = of::core::encode_update(payload, 1.0, {}, 0, 1);
    of::core::FramePool pool;
    of::core::StreamingSum sum(pool);
    sum.add(frame);
    const double sum_peak = static_cast<double>(sum.peak_bytes());

    std::vector<double> agg, held;
    for (const auto& [key, bytes] : peak) {
      agg.push_back(static_cast<double>(bytes));
      held.push_back((static_cast<double>(bytes) - sum_peak) / static_cast<double>(frame.size()));
    }
    std::printf("%7d | %4zu | %9.1f | %13.1f | %14.1f | %11.1f | %5.1f / %4.1f\n", members,
                agg.size(), static_cast<double>(frame.size()) / 1024.0, sum_peak / 1024.0,
                median(agg) / 1024.0, *std::max_element(agg.begin(), agg.end()) / 1024.0,
                median(held), *std::max_element(held.begin(), held.end()));
  }
  return 0;
}
