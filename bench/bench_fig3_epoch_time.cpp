// Figure 3: average epoch completion time per FL algorithm across the four
// models. Measures the mean wall-clock time of one round (1 local epoch)
// over a few rounds per (algorithm, model) cell.
//
// Shape expectation vs. the paper: lightweight aggregation rules (FedAvg,
// FedProx, FedBN, FedPer, FedNova) cluster together; Moon and Ditto pay for
// extra model copies/forward passes; DiLoCo pays AdamW bookkeeping.
#include <cstdlib>
#include <thread>

#include "algorithms/algorithm.hpp"
#include "bench_common.hpp"

int main() {
  const char* env = std::getenv("OMNIFED_BENCH_ROUNDS");
  const std::size_t rounds = env ? static_cast<std::size_t>(std::atoi(env)) : 3;
  const auto pairings = of::bench::paper_pairings();
  of::bench::print_header("Figure 3 — epoch completion time per algorithm (seconds)",
                          "Figure 3");
  std::printf("(mean over %zu rounds of 1 local epoch; 8 clients on %u cores)\n\n", rounds,
              std::thread::hardware_concurrency());
  of::bench::print_row_header(pairings, "Algorithm");
  for (const auto& algo : of::algorithms::algorithm_names()) {
    std::printf("%-18s", algo.c_str());
    std::fflush(stdout);
    for (const auto& p : pairings) {
      auto cfg = of::bench::experiment_config(p.model, p.dataset, algo, rounds);
      cfg.set_path("eval_every", of::config::ConfigNode::integer(0));
      of::core::Engine engine(cfg);
      const auto result = engine.run();
      std::printf(" | %11.4fs", result.mean_round_seconds);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
