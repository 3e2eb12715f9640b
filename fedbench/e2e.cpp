#include "e2e.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"

namespace fedbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t counter_value(const char* name) {
  const auto* c = of::obs::Registry::global().find_counter(name);
  return c ? c->value() : 0;
}

// Per-federation peak RSS: reset the kernel's high-water mark (VmHWM) to
// the current RSS before a federation and read it after. A process-lifetime
// ru_maxrss is the maximum of many timing-dependent transients, so its
// run-to-run spread is wide; the median of per-federation peaks is steady.
// Where either step fails the benchmark stops instead of measuring
// something else under the same name.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
}

double read_peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

}  // namespace

EngineRun run_engine(const Workload& w, std::uint64_t seed, std::size_t rounds, ObsMode obs) {
  EngineRun run;
  const auto trainers = static_cast<std::uint64_t>(w.trainers());
  run.attempted = rounds * trainers;
  const std::uint64_t nonfinite0 = counter_value("payload.nonfinite_rejected");
  const std::uint64_t dropped0 = counter_value("tcp.frames_dropped");
  reset_peak_rss();
  const auto t0 = Clock::now();
  try {
    of::core::Engine engine(make_config(w, seed, rounds, fresh_port(), obs));
    run.result = engine.run();
    run.wall_s = since(t0);
    run.ok = true;
  } catch (const std::exception& e) {
    run.wall_s = since(t0);
    run.error = e.what();
  }
  if (!run.ok) {
    // A failed run drops every update it set out to aggregate.
    run.errors = run.attempted;
    return run;
  }
  run.peak_rss_mb = read_peak_rss_mb();
  const auto& res = run.result;
  std::uint64_t cut = 0;
  for (const auto& r : res.rounds) {
    run.round_loop_s += r.seconds;
    cut += r.dropped_ranks.size();
  }
  run.setup_s = run.wall_s - run.round_loop_s;
  run.errors = cut + (counter_value("payload.nonfinite_rejected") - nonfinite0) +
               (counter_value("tcp.frames_dropped") - dropped0);
  run.aggregated = run.errors >= run.attempted ? 0 : run.attempted - run.errors;
  // Byte counts come from the CommStats totals, never from the per-round
  // RoundRecord fields (NOTES.md, known defects).
  run.wire_bytes = res.inner_comm.bytes_sent + res.outer_comm.bytes_sent;
  run.digest = digest_hex(res.final_model_bytes.data(), res.final_model_bytes.size());
  run.final_loss = res.rounds.empty() ? NAN : res.rounds.back().train_loss;
  run.final_accuracy = res.final_accuracy;
  run.output_ok = !res.rounds.empty() && std::isfinite(run.final_loss) &&
                  run.final_accuracy >= w.accuracy_floor;
  return run;
}

bool outputs_agree(const Workload& w, const std::vector<EngineRun>& runs) {
  std::vector<std::string> digests;
  for (const auto& r : runs) {
    if (!r.ok || !r.output_ok) return false;
    digests.push_back(r.digest);
  }
  return !w.deterministic || digests_agree(digests);
}

EndToEnd run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  EndToEnd out;
  const auto t0 = Clock::now();
  while (out.runs.size() < 3 || since(t0) < seconds)
    out.runs.push_back(run_engine(w, seed, w.rounds_per_engine, ObsMode::Off));

  out.correct = outputs_agree(w, out.runs);
  // Round time and throughput are medians over the federations of each
  // federation's own figure, so a burst of host load that slows a few
  // federations does not move them.
  std::vector<double> round_s, fed_p50, fed_rate, setup_s, peak_mb;
  std::uint64_t aggregated = 0, wire_bytes = 0;
  for (auto& r : out.runs) {
    // A run whose output check failed counts every one of its updates as
    // dropped; a mismatched digest fails the whole set.
    if (r.ok && !(r.output_ok && out.correct)) {
      r.errors = r.attempted;
      r.aggregated = 0;
    }
    out.attempted += r.attempted;
    out.failed += r.errors;
    aggregated += r.aggregated;
    if (!r.ok) continue;
    std::vector<double> own;
    for (const auto& rec : r.result.rounds) own.push_back(rec.seconds);
    round_s.insert(round_s.end(), own.begin(), own.end());
    fed_p50.push_back(percentile(own, 0.50));
    fed_rate.push_back(r.round_loop_s > 0.0
                           ? static_cast<double>(r.aggregated) / r.round_loop_s
                           : 0.0);
    setup_s.push_back(r.setup_s);
    peak_mb.push_back(r.peak_rss_mb);
    wire_bytes += r.wire_bytes;
  }
  out.round_samples = round_s.size();
  out.round_s_p95 = percentile(round_s, 0.95);
  const double updates = static_cast<double>(aggregated);
  out.metrics = {
      {"round_s_p50", median(fed_p50), "s"},
      {"updates_per_s", median(fed_rate), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", median(peak_mb), "MiB"},
      {"wire_kb_per_update",
       updates > 0.0 ? static_cast<double>(wire_bytes) / 1024.0 / updates : 0.0, "KiB"},
      {"updates_aggregated_share",
       out.attempted ? updates / static_cast<double>(out.attempted) : 0.0, "ratio"},
  };
  return out;
}

}  // namespace fedbench
