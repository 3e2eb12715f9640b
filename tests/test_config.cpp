#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "config/compose.hpp"
#include "config/registry.hpp"
#include "config/yaml.hpp"
#include "core/payload.hpp"
#include "exec/pool.hpp"

namespace {

using of::config::ConfigNode;
using of::config::parse_yaml;

TEST(Yaml, Scalars) {
  const ConfigNode n = parse_yaml(R"(
a: 1
b: -7
c: 2.5
d: true
e: false
f: hello world
g: "quoted: string"
h: null
i: ~
j: 1.0e-4
)");
  EXPECT_EQ(n.at("a").as_int(), 1);
  EXPECT_EQ(n.at("b").as_int(), -7);
  EXPECT_DOUBLE_EQ(n.at("c").as_double(), 2.5);
  EXPECT_TRUE(n.at("d").as_bool());
  EXPECT_FALSE(n.at("e").as_bool());
  EXPECT_EQ(n.at("f").as_string(), "hello world");
  EXPECT_EQ(n.at("g").as_string(), "quoted: string");
  EXPECT_TRUE(n.at("h").is_null());
  EXPECT_TRUE(n.at("i").is_null());
  EXPECT_DOUBLE_EQ(n.at("j").as_double(), 1e-4);
}

TEST(Yaml, NestedMaps) {
  const ConfigNode n = parse_yaml(R"(
outer:
  middle:
    inner: 42
  sibling: x
)");
  EXPECT_EQ(n.at_path("outer.middle.inner").as_int(), 42);
  EXPECT_EQ(n.at_path("outer.sibling").as_string(), "x");
}

TEST(Yaml, BlockLists) {
  const ConfigNode n = parse_yaml(R"(
items:
  - 1
  - 2
  - three
)");
  const auto& items = n.at("items");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items.at(std::size_t{2}).as_string(), "three");
}

TEST(Yaml, FlowLists) {
  const ConfigNode n = parse_yaml("ms: [100, 150, 200]\nnested: [[1, 2], [3]]\n");
  EXPECT_EQ(n.at("ms").size(), 3u);
  EXPECT_EQ(n.at("ms").at(std::size_t{1}).as_int(), 150);
  EXPECT_EQ(n.at("nested").at(std::size_t{0}).at(std::size_t{1}).as_int(), 2);
}

TEST(Yaml, FlowMaps) {
  const ConfigNode n = parse_yaml(
      "link: {latency_us: 50, bandwidth_mbps: 10000, mode: sleep}\n"
      "nested: {outer: {inner: 1}, list: [1, 2]}\n"
      "empty: {}\n");
  EXPECT_EQ(n.at_path("link.latency_us").as_int(), 50);
  EXPECT_EQ(n.at_path("link.mode").as_string(), "sleep");
  EXPECT_EQ(n.at_path("nested.outer.inner").as_int(), 1);
  EXPECT_EQ(n.at_path("nested.list").size(), 2u);
  EXPECT_TRUE(n.at("empty").is_map());
  EXPECT_EQ(n.at("empty").size(), 0u);
}

TEST(Yaml, FlowMapInsideFlowList) {
  const ConfigNode n = parse_yaml("nodes: [{id: 0, role: aggregator}, {id: 1}]\n");
  ASSERT_EQ(n.at("nodes").size(), 2u);
  EXPECT_EQ(n.at("nodes").at(std::size_t{0}).at("role").as_string(), "aggregator");
}

TEST(Yaml, UnterminatedFlowMapThrows) {
  EXPECT_THROW(parse_yaml("a: {b: 1\n"), std::runtime_error);
}

TEST(Yaml, ListOfMaps) {
  const ConfigNode n = parse_yaml(R"(
nodes:
  - id: 0
    role: aggregator
  - id: 1
    role: trainer
)");
  ASSERT_EQ(n.at("nodes").size(), 2u);
  EXPECT_EQ(n.at("nodes").at(std::size_t{0}).at("role").as_string(), "aggregator");
  EXPECT_EQ(n.at("nodes").at(std::size_t{1}).at("id").as_int(), 1);
}

TEST(Yaml, CommentsIgnored) {
  const ConfigNode n = parse_yaml(R"(
# leading comment
a: 1   # trailing comment
b: "text # not a comment"
)");
  EXPECT_EQ(n.at("a").as_int(), 1);
  EXPECT_EQ(n.at("b").as_string(), "text # not a comment");
}

TEST(Yaml, PaperFig2ConfigParses) {
  // The exact structure of the paper's Fig. 2 example.
  const ConfigNode n = parse_yaml(R"(
defaults:
  - override topology: centralized
  - override model: resnet18
  - override datamodule: cifar10
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 16
  inner_comm:
    _target_: src.omnifed.communicator.GrpcCommunicator
    port: 50051
    master_addr: 127.0.0.1
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 2
)");
  EXPECT_EQ(n.at_path("topology.num_clients").as_int(), 16);
  EXPECT_EQ(n.at_path("topology.inner_comm.port").as_int(), 50051);
  EXPECT_EQ(n.at_path("topology.inner_comm.master_addr").as_string(), "127.0.0.1");
  EXPECT_EQ(n.at("defaults").size(), 3u);
}

TEST(Yaml, PaperFig4CompressionConfigParses) {
  const ConfigNode n = parse_yaml(R"(
inner_comm:
  _target_: src.omnifed.communicator.TorchDistCommunicator
  port: 28670
  compression:
    _target_: src.omnifed.communicator.compression.TopK
    k: 1000x
)");
  EXPECT_EQ(n.at_path("inner_comm.compression.k").as_string(), "1000x");
}

TEST(Yaml, DumpParseFixpoint) {
  const ConfigNode n = parse_yaml(R"(
a: 1
b: [1, 2.5, true]
c:
  d: text
  e:
    - x: 1
    - y: 2
f: "needs: quoting"
)");
  const ConfigNode reparsed = parse_yaml(n.dump());
  EXPECT_TRUE(n == reparsed) << n.dump() << "\n----\n" << reparsed.dump();
}

TEST(Yaml, ErrorsCarryLineNumbers) {
  try {
    parse_yaml("a: 1\n\tb: 2\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Yaml, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_yaml("a: \"oops\n"), std::runtime_error);
}

TEST(Yaml, NumericStringsRoundtripQuoted) {
  ConfigNode n = ConfigNode::map();
  n["v"] = ConfigNode::string("1000x");
  n["w"] = ConfigNode::string("42");
  const ConfigNode r = parse_yaml(n.dump());
  EXPECT_EQ(r.at("v").as_string(), "1000x");
  EXPECT_EQ(r.at("w").as_string(), "42");  // stays a string thanks to quoting
}

// --- ConfigNode API ---------------------------------------------------------------

TEST(ConfigNode, TypedGetters) {
  const ConfigNode n = parse_yaml("i: 3\nf: 1.5\ns: hi\nb: true\n");
  EXPECT_EQ(n.get<int>("i"), 3);
  EXPECT_EQ(n.get<std::size_t>("i"), 3u);
  EXPECT_FLOAT_EQ(n.get<float>("f"), 1.5f);
  EXPECT_DOUBLE_EQ(n.get<double>("i"), 3.0);  // int widens
  EXPECT_EQ(n.get<std::string>("s"), "hi");
  EXPECT_TRUE(n.get<bool>("b"));
  EXPECT_EQ(n.get_or<int>("missing", 9), 9);
  EXPECT_THROW(n.at("missing"), std::runtime_error);
  EXPECT_THROW(n.at("s").as_int(), std::runtime_error);
}

TEST(ConfigNode, SetPathCreatesIntermediates) {
  ConfigNode n = ConfigNode::map();
  n.set_path("a.b.c", ConfigNode::integer(5));
  EXPECT_EQ(n.at_path("a.b.c").as_int(), 5);
  EXPECT_TRUE(n.has_path("a.b"));
  EXPECT_FALSE(n.has_path("a.x"));
}

TEST(ConfigNode, MergeSemantics) {
  ConfigNode base = parse_yaml("a: 1\nm:\n  x: 1\n  y: 2\n");
  const ConfigNode overlay = parse_yaml("b: 2\nm:\n  y: 3\n  z: 4\n");
  base.merge_from(overlay);
  EXPECT_EQ(base.at("a").as_int(), 1);
  EXPECT_EQ(base.at("b").as_int(), 2);
  EXPECT_EQ(base.at_path("m.x").as_int(), 1);
  EXPECT_EQ(base.at_path("m.y").as_int(), 3);  // overlay wins
  EXPECT_EQ(base.at_path("m.z").as_int(), 4);
}

TEST(ConfigNode, MapPreservesInsertionOrder) {
  const ConfigNode n = parse_yaml("z: 1\na: 2\nm: 3\n");
  const auto& items = n.items();
  EXPECT_EQ(items[0].first, "z");
  EXPECT_EQ(items[1].first, "a");
  EXPECT_EQ(items[2].first, "m");
}

// --- composition -------------------------------------------------------------------

class ComposeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "of_cfg_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    ASSERT_EQ(0, std::system(("mkdir -p " + dir_ + "/topology " + dir_ + "/algorithm").c_str()));
    write(dir_ + "/topology/centralized.yaml",
          "_target_: src.omnifed.topology.CentralizedTopology\nnum_clients: 4\n");
    write(dir_ + "/topology/ring.yaml",
          "_target_: src.omnifed.topology.RingTopology\nnum_nodes: 6\n");
    write(dir_ + "/algorithm/fedavg.yaml",
          "_target_: src.omnifed.algorithm.FedAvg\nglobal_rounds: 2\n");
    write(dir_ + "/algorithm/fedprox.yaml",
          "_target_: src.omnifed.algorithm.FedProx\nglobal_rounds: 2\nmu: 0.1\n");
    write(dir_ + "/base.yaml", "seed: 17\n");
    write(dir_ + "/main.yaml", R"(defaults:
  - base
  - topology: centralized
  - algorithm: fedavg
eval_every: 1
)");
  }

  void write(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
  }

  std::string dir_;
};

TEST_F(ComposeFixture, DefaultsPullGroupFiles) {
  const ConfigNode n = of::config::compose(dir_ + "/main.yaml");
  EXPECT_EQ(n.at("seed").as_int(), 17);
  EXPECT_EQ(n.at_path("topology.num_clients").as_int(), 4);
  EXPECT_EQ(of::config::target_basename(n.at_path("algorithm._target_").as_string()),
            "FedAvg");
  EXPECT_FALSE(n.has("defaults"));  // consumed by composition
}

TEST_F(ComposeFixture, BodyWinsOverDefaults) {
  write(dir_ + "/main2.yaml", R"(defaults:
  - topology: centralized
topology:
  num_clients: 99
)");
  const ConfigNode n = of::config::compose(dir_ + "/main2.yaml");
  EXPECT_EQ(n.at_path("topology.num_clients").as_int(), 99);
  // _target_ from the group file survives the merge.
  EXPECT_TRUE(n.has_path("topology._target_"));
}

TEST_F(ComposeFixture, CliOverridesWinOverEverything) {
  const ConfigNode n = of::config::compose(
      dir_ + "/main.yaml",
      {"topology.num_clients=12", "algorithm.mu=0.5", "seed=1"});
  EXPECT_EQ(n.at_path("topology.num_clients").as_int(), 12);
  EXPECT_DOUBLE_EQ(n.at_path("algorithm.mu").as_double(), 0.5);
  EXPECT_EQ(n.at("seed").as_int(), 1);
}

TEST_F(ComposeFixture, SingleLineAlgorithmSwap) {
  // The paper's headline usability claim: FedAvg → FedProx is one change.
  write(dir_ + "/swapped.yaml", R"(defaults:
  - base
  - topology: centralized
  - algorithm: fedprox
)");
  const ConfigNode n = of::config::compose(dir_ + "/swapped.yaml");
  EXPECT_EQ(of::config::target_basename(n.at_path("algorithm._target_").as_string()),
            "FedProx");
  EXPECT_DOUBLE_EQ(n.at_path("algorithm.mu").as_double(), 0.1);
}

TEST_F(ComposeFixture, OverrideMarkerReplacesEarlierDefault) {
  // Hydra's `override group: option` syntax: the later entry wins.
  write(dir_ + "/override.yaml", R"(defaults:
  - topology: centralized
  - algorithm: fedavg
  - override algorithm: fedprox
)");
  const ConfigNode n = of::config::compose(dir_ + "/override.yaml");
  EXPECT_EQ(of::config::target_basename(n.at_path("algorithm._target_").as_string()),
            "FedProx");
}

TEST_F(ComposeFixture, MissingGroupFileThrows) {
  write(dir_ + "/bad.yaml", "defaults:\n  - topology: mesh\n");
  EXPECT_THROW(of::config::compose(dir_ + "/bad.yaml"), std::runtime_error);
}

TEST_F(ComposeFixture, GroupOverrideSelectsTheOptionFile) {
  // Hydra: `algorithm=fedprox` swaps the group's defaults entry, and the
  // dotted overrides still land on top of the selected file.
  const ConfigNode n = of::config::compose(dir_ + "/main.yaml",
                                           {"algorithm=fedprox", "algorithm.mu=0.3"});
  EXPECT_EQ(of::config::target_basename(n.at_path("algorithm._target_").as_string()),
            "FedProx");
  EXPECT_DOUBLE_EQ(n.at_path("algorithm.mu").as_double(), 0.3);
  EXPECT_EQ(n.at_path("topology.num_clients").as_int(), 4);
}

TEST_F(ComposeFixture, GroupOverrideAddsAGroupTheDefaultsLack) {
  write(dir_ + "/bare.yaml", "defaults:\n  - topology: centralized\nseed: 3\n");
  const ConfigNode n = of::config::compose(dir_ + "/bare.yaml", {"algorithm=fedavg"});
  EXPECT_EQ(of::config::target_basename(n.at_path("algorithm._target_").as_string()),
            "FedAvg");
  EXPECT_EQ(n.at("seed").as_int(), 3);
}

TEST_F(ComposeFixture, OverrideWithoutAnOptionFileStaysAValue) {
  // No <dir>/algorithm/sgd.yaml and no <dir>/seed/ directory: plain values.
  const ConfigNode n = of::config::compose(dir_ + "/main.yaml", {"seed=5", "algorithm=sgd"});
  EXPECT_EQ(n.at("seed").as_int(), 5);
  EXPECT_EQ(n.at("algorithm").as_string(), "sgd");
}

TEST(ConfigGroups, ExecOverrideSelectsTheParallelPreset) {
  // Read as a dotted value, `exec=parallel` would replace the exec map with
  // the string "parallel".
  const ConfigNode n = of::config::compose(std::string(OF_CONFIGS_DIR) + "/quickstart.yaml",
                                           {"exec=parallel"});
  const auto exec = of::exec::ExecConfig::from_config(n.at("exec"));
  EXPECT_EQ(exec.threads, 0u);  // one per hardware core
}

TEST(ConfigGroups, ScalarWhereAGroupBelongsIsAStrictError) {
  const ConfigNode scalar = ConfigNode::string("parallel");
  EXPECT_THROW(of::exec::ExecConfig::from_config(scalar, /*strict=*/true), std::runtime_error);
  EXPECT_EQ(of::exec::ExecConfig::from_config(scalar, /*strict=*/false).threads, 1u);
  EXPECT_THROW(of::core::PayloadConfig::from_config(scalar, /*strict=*/true),
               std::runtime_error);
  // A missing group still yields the defaults.
  EXPECT_EQ(of::exec::ExecConfig::from_config(ConfigNode::null()).threads, 1u);
}

TEST(Override, ParsesTypedValues) {
  ConfigNode n = ConfigNode::map();
  of::config::apply_override(n, "a.b=3");
  of::config::apply_override(n, "a.c=2.5");
  of::config::apply_override(n, "a.d=true");
  of::config::apply_override(n, "a.e=hello");
  of::config::apply_override(n, "a.f=[1, 2]");
  EXPECT_EQ(n.at_path("a.b").as_int(), 3);
  EXPECT_DOUBLE_EQ(n.at_path("a.c").as_double(), 2.5);
  EXPECT_TRUE(n.at_path("a.d").as_bool());
  EXPECT_EQ(n.at_path("a.e").as_string(), "hello");
  EXPECT_EQ(n.at_path("a.f").size(), 2u);
  EXPECT_THROW(of::config::apply_override(n, "novalue"), std::runtime_error);
}

// --- registry ---------------------------------------------------------------------

struct Widget {
  virtual ~Widget() = default;
  virtual int id() const = 0;
};
struct WidgetA : Widget {
  int id() const override { return 1; }
};
struct WidgetB : Widget {
  int v;
  explicit WidgetB(int value) : v(value) {}
  int id() const override { return v; }
};

TEST(Registry, CreateByTargetBasename) {
  of::config::Registry<Widget> reg;
  reg.add("WidgetA", [](const ConfigNode&) { return std::make_unique<WidgetA>(); });
  reg.add("WidgetB", [](const ConfigNode& cfg) {
    return std::make_unique<WidgetB>(cfg.get_or<int>("v", 0));
  });
  ConfigNode cfg = parse_yaml("_target_: src.omnifed.widgets.WidgetB\nv: 42\n");
  EXPECT_EQ(reg.create(cfg)->id(), 42);
  EXPECT_TRUE(reg.contains("a.b.WidgetA"));
  EXPECT_FALSE(reg.contains("WidgetC"));
  EXPECT_THROW(reg.create("WidgetC", cfg), std::runtime_error);
  EXPECT_THROW(reg.add("WidgetA", nullptr), std::runtime_error);
  EXPECT_EQ(reg.names().size(), 2u);
}

TEST(Registry, MissingTargetThrows) {
  of::config::Registry<Widget> reg;
  EXPECT_THROW(reg.create(ConfigNode::map()), std::runtime_error);
}

TEST(Yaml, DuplicateMapKeysThrowWithLineNumbers) {
  try {
    parse_yaml("a: 1\nb: 2\na: 3\n");
    FAIL() << "duplicate top-level key not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    EXPECT_NE(what.find("'a'"), std::string::npos) << what;
  }
  EXPECT_THROW(parse_yaml("m:\n  x: 1\n  x: 2\n"), std::runtime_error);
  EXPECT_THROW(parse_yaml("m: {k: 1, k: 2}\n"), std::runtime_error);
  EXPECT_THROW(parse_yaml("l:\n  - a: 1\n    a: 2\n"), std::runtime_error);
  // Same key at different depths is fine.
  EXPECT_NO_THROW(parse_yaml("a: 1\nm:\n  a: 2\n"));
}

}  // namespace
