// Harness arithmetic shared by the benchmark and its self-test: percentile
// selection, the span recorder with self-time accounting, model digests and
// JSON formatting. Nothing here touches the framework, so selftest.cpp can
// check it on synthetic inputs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fedbench {

// Nearest-rank percentile: the smallest sample with at least q·n samples at
// or below it. q in (0, 1]. Returns 0 for an empty input.
double percentile(std::vector<double> v, double q);
// Samples that lie strictly above the nearest-rank q-percentile of n
// samples — the count the "at least ten beyond" rule is stated over.
std::size_t samples_beyond(std::size_t n, double q);
// Middle value (mean of the two middles for even n); 0 for an empty input.
double median(std::vector<double> v);

// One timed call: `parent` indexes the enclosing span (-1 at top level) and
// `round` is shared by every span of one replayed round.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t round = 0;

  double seconds() const noexcept { return end_s - start_s; }
};

// Spans kept in memory and written out when the benchmark ends. Single
// threaded: the parent of a new span is the innermost span still open.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder& rec, int id) : rec_(&rec), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { rec_->end(id_); }

   private:
    SpanRecorder* rec_;
    int id_;
  };

  int begin(std::string name, std::uint64_t round);
  void end(int id);
  Scope scope(std::string name, std::uint64_t round) {
    return Scope(*this, begin(std::move(name), round));
  }
  // Adds a finished span directly (tests and imported timings).
  int add(Span s);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  // Durations in seconds of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  // CSV: id,name,parent,round,start_s,end_s,self_s.
  std::string to_csv() const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of every span: its duration minus the part of its interval that
// the union of its direct children covers (children clipped to the parent).
std::vector<double> self_times(const std::vector<Span>& spans);
// Layer of a span name: the text before the first '.' ("payload.encode" →
// "payload"); the whole name when there is no dot.
std::string layer_of(const std::string& name);

// FNV-1a 64-bit digest of a byte string, as 16 hex digits.
std::string digest_hex(const unsigned char* data, std::size_t n);
// True when there is at least one digest and all equal the first.
bool digests_agree(const std::vector<std::string>& digests);

// Shortest decimal that reads back as the same double; "null" for NaN/Inf.
std::string json_number(double v);
std::string json_escape(const std::string& s);

}  // namespace fedbench
