// Quickstart: centralized FedAvg over 8 clients — the C++ analogue of the
// paper's Fig. 2 YAML. Build the same config programmatically, run the
// Engine, print per-round metrics.
//
//   ./quickstart [config.yaml] [--trace trace.json] [--profile prof.folded]
//                [--dump-config] [dotted.override=value ...]
//
// With no arguments it uses an embedded config equivalent to
// configs/quickstart.yaml. `--trace <path>` turns on of::obs tracing for the
// run and writes a Chrome trace-event file loadable at ui.perfetto.dev.
// `--profile <path>` turns on the SIGPROF sampling profiler and writes
// collapsed stacks (pipe through flamegraph.pl for an SVG).
// `--dump-config` prints the effective merged config (file + overrides +
// defaults materialized through of::refl) as YAML and exits.
#include <cstring>
#include <iostream>
#include <vector>

#include "config/compose.hpp"
#include "config/yaml.hpp"
#include "core/config_check.hpp"
#include "core/engine.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(
seed: 42
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 8
  inner_comm:
    _target_: src.omnifed.communicator.TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: dirichlet
  alpha: 0.5
  batch_size: 16
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 5
  local_epochs: 1
  lr: 0.05
  momentum: 0.9
  weight_decay: 1.0e-4
eval_every: 1
)";

}  // namespace

int main(int argc, char** argv) {
  try {
    // Peel off --trace <path> wherever it appears; everything else keeps the
    // existing [config.yaml] [override ...] convention.
    std::string trace_path;
    std::string profile_path;
    bool dump_config = false;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0) {
        if (i + 1 >= argc) {
          std::cerr << "error: --trace requires a path argument\n";
          return 1;
        }
        trace_path = argv[++i];
      } else if (std::strcmp(argv[i], "--profile") == 0) {
        if (i + 1 >= argc) {
          std::cerr << "error: --profile requires a path argument\n";
          return 1;
        }
        profile_path = argv[++i];
      } else if (std::strcmp(argv[i], "--dump-config") == 0) {
        dump_config = true;
      } else {
        args.emplace_back(argv[i]);
      }
    }

    of::config::ConfigNode cfg;
    if (!args.empty() && args[0].find('=') == std::string::npos) {
      // compose resolves `group=option` overrides against the file's directory.
      cfg = of::config::compose(args[0], {args.begin() + 1, args.end()});
    } else {
      cfg = of::config::parse_yaml(kDefaultConfig);
      for (const auto& a : args) of::config::apply_override(cfg, a);
    }
    if (!trace_path.empty()) {
      of::config::apply_override(cfg, "obs.enabled=true");
      of::config::apply_override(cfg, "obs.trace_path=" + trace_path);
    }
    if (!profile_path.empty()) {
      of::config::apply_override(cfg, "obs.profile.enabled=true");
      of::config::apply_override(cfg, "obs.profile.path=" + profile_path);
    }
    if (dump_config) {
      std::cout << of::core::dump_effective_config(cfg);
      return 0;
    }

    of::core::Engine engine(std::move(cfg));
    std::cout << "topology: " << engine.topology().kind << " with "
              << engine.topology().num_trainers() << " trainers\n";
    const of::core::RunResult result = engine.run();

    std::cout << "round |   loss   | accuracy | seconds\n";
    for (const auto& r : result.rounds) {
      std::cout.width(5);
      std::cout << r.round << " | ";
      std::cout.width(8);
      std::cout << r.train_loss << " | ";
      std::cout.width(8);
      if (r.accuracy >= 0)
        std::cout << r.accuracy * 100.0f;
      else
        std::cout << "--";
      std::cout << " | " << r.seconds << '\n';
    }
    std::cout << result.summary() << '\n';
    if (!trace_path.empty())
      std::cout << "trace written to " << trace_path
                << " (load it at ui.perfetto.dev or chrome://tracing)\n";
    if (!profile_path.empty())
      std::cout << "profile written to " << profile_path
                << " (collapsed stacks; feed to flamegraph.pl)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
