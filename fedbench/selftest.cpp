// Self-test of the harness arithmetic on synthetic inputs: percentile
// selection, self time with nested spans, digest comparison. run.py runs it
// before every benchmark run; a failure stops the run.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentiles() {
  // 1..200 shuffled: nearest-rank p95 is 190 with exactly ten samples above.
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  check(near(fedbench::percentile(v, 0.95), 190.0), "p95 of 1..200 is 190");
  check(fedbench::samples_beyond(v.size(), 0.95) == 10, "ten samples beyond p95 of 200");
  check(fedbench::samples_beyond(199, 0.95) == 9, "nine beyond p95 of 199");
  check(near(fedbench::percentile(v, 0.5), 100.0), "nearest-rank p50 of 1..200 is 100");
  check(near(fedbench::median(v), 100.5), "median of 1..200 is 100.5");
  check(near(fedbench::median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  check(near(fedbench::percentile({7.0}, 0.95), 7.0), "percentile of one sample");
  check(fedbench::percentile({}, 0.5) == 0.0 && fedbench::median({}) == 0.0, "empty input");
}

void test_self_time() {
  fedbench::SpanRecorder rec;
  // round [0,10] ⊃ a [1,4] ⊃ a.inner [2,3]; b [3.5,6] overlaps a; c [9,12]
  // sticks out of the round and is clipped to it.
  const int round = rec.add({"round", 0.0, 10.0, -1, 0});
  const int a = rec.add({"payload.a", 1.0, 4.0, round, 0});
  rec.add({"payload.inner", 2.0, 3.0, a, 0});
  rec.add({"comm.b", 3.5, 6.0, round, 0});
  rec.add({"nn.c", 9.0, 12.0, round, 0});
  const auto self = fedbench::self_times(rec.spans());
  check(near(self[0], 10.0 - 5.0 - 1.0), "round self = 10 - |[1,6] ∪ [9,10]|");
  check(near(self[1], 2.0), "a self = 3 - 1");
  check(near(self[2], 1.0), "leaf self = duration");
  check(near(self[3], 2.5), "b self = duration");
  check(fedbench::layer_of("payload.encode") == "payload" && fedbench::layer_of("round") == "round",
        "layer_of");

  // Scoped spans nest by the open-span stack.
  fedbench::SpanRecorder live;
  {
    auto outer = live.scope("round", 3);
    auto inner = live.scope("nn.local_train", 3);
  }
  check(live.spans().size() == 2 && live.spans()[1].parent == 0 && live.spans()[0].parent == -1,
        "scoped parent links");
  check(live.spans()[1].round == 3 && live.spans()[0].end_s >= live.spans()[1].end_s,
        "round id and nesting");
}

void test_digests() {
  const std::string x = "model-bytes", y = "model-bytez";
  const auto dx = fedbench::digest_hex(reinterpret_cast<const unsigned char*>(x.data()), x.size());
  const auto dy = fedbench::digest_hex(reinterpret_cast<const unsigned char*>(y.data()), y.size());
  check(dx.size() == 16 && dx != dy, "one changed byte changes the digest");
  check(fedbench::digest_hex(nullptr, 0) == "cbf29ce484222325", "FNV-1a offset basis");
  check(fedbench::digests_agree({dx, dx, dx}), "equal digests agree");
  check(!fedbench::digests_agree({dx, dy, dx}), "a mismatch is caught");
  check(!fedbench::digests_agree({}), "no digests do not agree");
}

void test_json() {
  check(fedbench::json_number(0.1) == "0.1", "shortest round-trip decimal");
  check(fedbench::json_number(NAN) == "null", "NaN is null");
  check(fedbench::json_escape("a\"b\\c") == "a\\\"b\\\\c", "escapes");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_digests();
  test_json();
  if (failures == 0) std::cout << "selftest ok\n";
  return failures == 0 ? 0 : 1;
}
