// fedbench — the repository benchmark. One workload per invocation:
//
//   fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>]
//
// --trace 0 runs whole federations through core::Engine with tracing off
// and reports the end-to-end metrics; --trace 1 runs the layer replay and
// the obs-on Engine runs and reports the per-layer metrics. Either way the
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// Workloads, metrics and known defects are described in NOTES.md.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/config_check.hpp"
#include "e2e.hpp"
#include "harness.hpp"
#include "replay.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--commit") a.commit = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

void print_stamp(const Args& a, const fedbench::Workload& w) {
  std::cout << "# workload " << w.name << " seed " << a.seed << " seconds " << a.seconds
            << " trace " << a.trace << "\n"
            << "# nproc " << std::thread::hardware_concurrency() << " simd "
            << of::simd::active_level() << " compiler " << FEDBENCH_COMPILER << " build "
            << FEDBENCH_BUILD_TYPE << " commit " << a.commit << "\n"
            << "# resolved config (obs off; each run gets a fresh kernel-assigned port):\n";
  std::istringstream cfg(of::core::dump_effective_config(fedbench::make_config(
      w, a.seed, w.rounds_per_engine, 0, fedbench::ObsMode::Off)));
  for (std::string line; std::getline(cfg, line);) std::cout << "#   " << line << "\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<fedbench::Metric>& metrics) {
  for (const auto& m : metrics)
    std::cout << m.name << " = " << fedbench::json_number(m.value) << " " << m.unit << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    js << (i ? ", " : "") << '"' << fedbench::json_escape(m.name) << "\": {\"value\": "
       << fedbench::json_number(m.value) << ", \"unit\": \"" << fedbench::json_escape(m.unit)
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>]\n";
    return 2;
  }
  const fedbench::Workload* w = fedbench::find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "fedbench: unknown workload '" << a.workload << "'; known:";
    for (const auto& k : fedbench::workloads()) std::cerr << " " << k.name;
    std::cerr << "\n";
    return 2;
  }
  try {
    if (a.trace == 0) {
      const auto e2e = fedbench::run_end_to_end(*w, a.seed, a.seconds);
      print_stamp(a, *w);
      const auto& first = e2e.runs.front();
      std::cout << "# engine runs " << e2e.runs.size() << ", round samples " << e2e.round_samples
                << ", final model " << first.digest << ", final loss " << first.final_loss
                << ", final accuracy " << first.final_accuracy << "\n"
                << "# round_s_p95 = " << fedbench::json_number(e2e.round_s_p95) << " s ("
                << fedbench::samples_beyond(e2e.round_samples, 0.95) << " samples beyond)\n";
      for (const auto& r : e2e.runs) {
        if (!r.ok) {
          std::cout << "# run failed: " << r.error << "\n";
          continue;
        }
        std::vector<double> rs;
        for (const auto& rec : r.result.rounds) rs.push_back(rec.seconds);
        std::cout << "# federation: round p50 " << fedbench::percentile(rs, 0.5) << " s, setup "
                  << r.setup_s << " s, digest " << r.digest << "\n";
      }
      if (fedbench::samples_beyond(e2e.round_samples, 0.95) < 10)
        std::cerr << "fedbench: fewer than ten round samples beyond p95; raise --seconds\n";
      print_result(e2e.correct, e2e.attempted, e2e.failed, e2e.metrics);
    } else {
      fedbench::SpanRecorder rec;
      const auto tr = fedbench::run_traced(*w, a.seed, a.seconds, rec);
      print_stamp(a, *w);
      std::cout << "# replay rounds " << tr.replay_rounds << ", largest layer by self time: "
                << tr.largest_layer << " (" << fedbench::json_number(tr.largest_share * 100.0)
                << "% of the replayed round)\n";
      const std::string path =
          "spans-" + w->name + "-seed" + std::to_string(a.seed) + ".csv";
      std::ofstream(path) << rec.to_csv();
      std::cout << "# spans written to " << path << "\n";
      print_result(tr.correct, tr.attempted, tr.failed, tr.metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "fedbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
