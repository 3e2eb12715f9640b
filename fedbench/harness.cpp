#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fedbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

int SpanRecorder::begin(std::string name, std::uint64_t round) {
  Span s;
  s.name = std::move(name);
  s.round = round;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now();
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span '" + spans_.at(static_cast<std::size_t>(id)).name +
                           "' closed out of order");
  spans_[static_cast<std::size_t>(id)].end_s = now();
  open_.pop_back();
}

int SpanRecorder::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.seconds());
  return out;
}

std::string SpanRecorder::to_csv() const {
  const auto self = self_times(spans_);
  std::ostringstream os;
  os << "id,name,parent,round,start_s,end_s,self_s\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << i << ',' << s.name << ',' << s.parent << ',' << s.round << ','
       << json_number(s.start_s) << ',' << json_number(s.end_s) << ','
       << json_number(self[i]) << '\n';
  }
  return os.str();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_b = 0.0, cur_e = 0.0;
    bool open = false;
    for (auto [b, e] : iv) {
      b = std::max(b, p.start_s);
      e = std::min(e, p.end_s);
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_b;
    self[i] = std::max(0.0, p.seconds() - covered);
  }
  return self;
}

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string digest_hex(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool digests_agree(const std::vector<std::string>& digests) {
  if (digests.empty()) return false;
  return std::all_of(digests.begin(), digests.end(),
                     [&](const std::string& d) { return d == digests.front(); });
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace fedbench
