#include "workloads.hpp"

#include <sstream>

#include "config/yaml.hpp"
#include "net_util.hpp"

namespace fedbench {
namespace {

constexpr const char* kQsgd8 =
    "{_target_: src.omnifed.communicator.compression.QSGD, bits: 8}";
constexpr const char* kTopk100Ef =
    "{_target_: src.omnifed.communicator.compression.TopK, k: 100x, error_feedback: true}";

std::vector<Workload> build() {
  std::vector<Workload> ws;

  // configs/quickstart.yaml at 3 trainers, 2 local epochs, `exec: parallel`,
  // evaluated only after the last round.
  Workload fig2;
  fig2.name = "fig2_compute";
  fig2.shape = Shape::Central;
  fig2.model = "resnet18_mini";
  fig2.preset = "cifar10_like";
  fig2.lr = 0.1;
  fig2.trainers_per_group = 3;
  fig2.exec_threads = 0;
  fig2.rounds_per_engine = 40;
  fig2.accuracy_floor = 0.8f;
  ws.push_back(fig2);

  // Big model, tiny shards: about 5 samples per trainer, so 2 SGD steps per
  // round and the wire path is half the round. lr 0.02: at the quickstart's
  // 0.1 this shape diverges to NaN within 30 rounds (NOTES.md).
  Workload wire;
  wire.name = "wire_tcp";
  wire.shape = Shape::Central;
  wire.tcp = true;
  wire.model = "vgg11_mini";
  wire.preset = "toy";
  wire.train_per_class = 4;
  wire.lr = 0.02;
  wire.trainers_per_group = 3;
  wire.rounds_per_engine = 200;
  wire.accuracy_floor = 0.5f;
  ws.push_back(wire);

  // wire_tcp's model, data and transport under the `serve: fedbuff` preset
  // with QSGD 8-bit on the client link.
  Workload serve = wire;
  serve.name = "serve_fedbuff";
  serve.shape = Shape::Serve;
  serve.codec_yaml = kQsgd8;
  serve.rounds_per_engine = 200;
  serve.accuracy_floor = 0.5f;
  serve.deterministic = false;  // the fold follows arrival order
  ws.push_back(serve);

  // configs/cross_facility.yaml at 2 groups x 2 trainers: InProc + modeled
  // LAN inside a group, TCP + modeled WAN (virtual) between leaders, TopK
  // 100x with error feedback on the outer link. Two members per combiner
  // keep the fold order-independent (NOTES.md).
  Workload hier;
  hier.name = "fig7_hier";
  hier.shape = Shape::Hier;
  hier.tcp = true;
  hier.model = "resnet18_mini";
  hier.preset = "cifar10_like";
  hier.lr = 0.1;
  hier.groups = 2;
  hier.trainers_per_group = 2;
  hier.codec_yaml = kTopk100Ef;
  hier.rounds_per_engine = 8;
  hier.accuracy_floor = 0.2f;
  ws.push_back(hier);
  return ws;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = build();
  return ws;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

of::config::ConfigNode make_config(const Workload& w, std::uint64_t seed, std::size_t rounds,
                               std::uint16_t port, ObsMode obs) {
  std::ostringstream y;
  y << "seed: " << seed << "\n";
  y << "topology:\n";
  if (w.shape == Shape::Hier) {
    y << "  _target_: src.omnifed.topology.HierarchicalTopology\n"
      << "  groups: " << w.groups << "\n"
      << "  group_size: " << w.trainers_per_group << "\n"
      << "  inner_comm:\n"
      << "    _target_: src.omnifed.communicator.TorchDistCommunicator\n"
      << "    link: {latency_us: 50, bandwidth_mbps: 10000, mode: virtual}\n"
      << "  outer_comm:\n"
      << "    _target_: src.omnifed.communicator."
      << (w.tcp ? "GrpcCommunicator" : "TorchDistCommunicator") << "\n"
      << "    port: " << port << "\n"
      << "    link: {latency_us: 20000, bandwidth_mbps: 100, mode: virtual}\n";
    if (!w.codec_yaml.empty()) y << "    compression: " << w.codec_yaml << "\n";
  } else {
    y << "  _target_: src.omnifed.topology.CentralizedTopology\n"
      << "  num_clients: " << w.trainers_per_group << "\n"
      << "  inner_comm:\n"
      << "    _target_: src.omnifed.communicator."
      << (w.tcp ? "GrpcCommunicator" : "TorchDistCommunicator") << "\n";
    if (w.tcp) y << "    port: " << port << "\n";
    if (!w.codec_yaml.empty()) y << "compression: " << w.codec_yaml << "\n";
  }
  if (w.shape == Shape::Serve)
    y << "serve: {enabled: true, mode: fedbuff, fraction: 1.0, buffer_size: 2, alpha: 0.6, "
         "max_staleness: 4, retry_seconds: 0.01}\n";
  y << "model: {name: " << w.model << "}\n";
  y << "datamodule: {preset: " << w.preset << ", partition: iid, batch_size: " << w.batch_size;
  if (w.train_per_class) y << ", train_per_class: " << w.train_per_class;
  y << "}\n";
  y << "algorithm:\n"
    << "  _target_: src.omnifed.algorithm.FedAvg\n"
    << "  global_rounds: " << rounds << "\n"
    << "  local_epochs: " << w.local_epochs << "\n"
    << "  lr: " << w.lr << "\n"
    << "  momentum: 0.9\n"
    << "  weight_decay: 1.0e-4\n";
  y << "exec: {threads: " << w.exec_threads << ", grain: 4096, simd: auto}\n";
  switch (obs) {
    case ObsMode::Off: y << "obs: {enabled: false}\n"; break;
    case ObsMode::Trace: y << "obs: {enabled: true, trace_path: \"\"}\n"; break;
    case ObsMode::Full:
      y << "obs: {enabled: true, trace_path: \"\", metrics_path: \"\", events_csv_path: \"\", "
           "telemetry: true, clock_sync_rounds: 8}\n";
      break;
  }
  y << "eval_every: 0\n";
  return of::config::parse_yaml(y.str());
}

of::config::ConfigNode codec_config(const Workload& w) {
  return of::config::parse_yaml(std::string("codec: ") +
                                (w.codec_yaml.empty() ? kQsgd8 : w.codec_yaml))
      .at("codec");
}

std::uint16_t fresh_port() { return of::testutil::ephemeral_port(); }

}  // namespace fedbench
