// Fleet-scale bench: one coordinator, 10k+ simulated clients on a single
// host. Exercises the event-loop accept path (ISSUE: thread-per-connection
// dies at this scale) and the combiner tier's O(model × combiners)
// aggregation bound: the coordinator folds every arriving update into
// StreamingSum partial accumulators instead of buffering clients × model.
// It folds in arrival order rather than through star::gather_bytes_streaming,
// so its agg-state row leaves out the frames a real combiner holds for rank
// order (bench_combiner_memory measures those).
//
// Clients are raw-socket drivers forked into a handful of child processes
// (the host caps fds per process, and 10k TcpCommunicator clients would
// each cost threads); the shared pre-encoded update frame makes a child's
// per-client cost one fd plus a few hundred bytes.
//
// The serving-tier sweep (of::serve, DESIGN.md §14) reuses the same raw
// drivers under the coordinator's real population registry, seeded sampler,
// and staleness buffer: fraction-fit invites instead of full broadcasts,
// FedBuff drains every `buffer_size` accepted updates, and churn injected
// at the registry (an invite "leaves" with probability `churn`, rejoining
// two drains later). Driver sockets stay connected throughout — the sweep
// measures the serving tier's bookkeeping and admission control at fleet
// scale, not TCP reconnect cost.
//
// Usage: bench_fleet_scale [clients_csv] [rounds] [combiners_csv]
//                          [serve_clients] [serve_updates]
//   defaults: 1000,4000,10000 clients, 2 rounds, 8 combiners;
//   the combiner sweep runs at the largest client count; the serve sweep
//   runs 2000 clients to 4000 accepted updates (0 disables it).
// Results land in EXPERIMENTS.md.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "comm/tcp.hpp"
#include "core/frame_pool.hpp"
#include "core/payload.hpp"
#include "net_util.hpp"
#include "serve/buffer.hpp"
#include "serve/registry.hpp"
#include "serve/sampler.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using of::comm::TcpCommunicator;
using of::core::FramePool;
using of::core::StreamingSum;
using of::tensor::Bytes;
using of::tensor::Tensor;

// Kernel-assigned at startup: a fixed constant here collides with parallel
// ctest runs of the comm suites (EADDRINUSE at formation).
const std::uint16_t kPort = of::testutil::ephemeral_port();
constexpr std::size_t kModelFloats = 4096;  // ~16 KiB on the wire per frame
constexpr int kModelTag = 1;
constexpr int kUpdateTag = 2;
constexpr int kStopTag = 3;
constexpr int kChildren = 8;

// Mirror of the transport's v2 wire header (src/comm/tcp.cpp FrameHeader).
struct WireHeader {
  std::uint32_t magic = 0x0F5EED02u;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t round = 0;
  std::uint64_t len = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};
static_assert(sizeof(WireHeader) == 40, "must match the transport header");

// --- fd budget -----------------------------------------------------------------------

// The coordinator holds one fd per client. Try to raise the soft limit to
// the hard limit; if that still cannot cover the sweep, fail fast with an
// actionable message instead of wedging mid-formation with EMFILE.
void ensure_fd_budget(std::size_t max_clients) {
  const rlim_t need = static_cast<rlim_t>(max_clients + 64);
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur < need && rl.rlim_max > rl.rlim_cur) {
    rlimit bumped = rl;
    bumped.rlim_cur = std::min(need, rl.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &bumped) == 0) rl = bumped;
  }
  if (rl.rlim_cur < need) {
    std::fprintf(stderr,
                 "bench_fleet_scale: fd soft limit %llu < %llu needed for %zu "
                 "clients.\nRaise it first:  ulimit -n %llu\n",
                 static_cast<unsigned long long>(rl.rlim_cur),
                 static_cast<unsigned long long>(need), max_clients,
                 static_cast<unsigned long long>(need));
    std::exit(1);
  }
}

std::size_t read_vm_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0)
      return static_cast<std::size_t>(std::strtoull(line.c_str() + std::strlen(key),
                                                    nullptr, 10));
  return 0;
}

// --- raw client driver (child process) -----------------------------------------------

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

// Drive ranks [first, first+count): connect + hello each, then per round
// read the model frame and answer with the shared update frame, until the
// coordinator sends the stop tag. Exits the process when done.
void run_client_driver(int first, int count, const Bytes& update_frame) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(kPort);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::vector<int> fds(static_cast<std::size_t>(count), -1);
  for (int i = 0; i < count; ++i) {
    for (int attempt = 0; attempt < 2000; ++attempt) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0 &&
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        fds[static_cast<std::size_t>(i)] = fd;
        break;
      }
      if (fd >= 0) ::close(fd);
      ::usleep(5000);
    }
    if (fds[static_cast<std::size_t>(i)] < 0) std::_Exit(2);
    WireHeader hello;
    hello.src = first + i;
    hello.tag = -1;  // kHelloTag
    if (!write_full(fds[static_cast<std::size_t>(i)], &hello, sizeof(hello)))
      std::_Exit(2);
  }

  Bytes payload;
  std::vector<bool> stopped(fds.size(), false);
  // Every socket gets its own stop frame — drain each one before closing
  // anything, or the coordinator sees links die mid-shutdown.
  for (std::size_t live = fds.size(); live > 0;) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (stopped[i]) continue;
      const int fd = fds[i];
      WireHeader h;
      if (!read_full(fd, &h, sizeof(h))) std::_Exit(2);
      payload.resize(h.len);
      if (h.len > 0 && !read_full(fd, payload.data(), payload.size())) std::_Exit(2);
      if (h.tag == kStopTag) {
        stopped[i] = true;
        --live;
        continue;
      }
      WireHeader up;
      up.src = 0;  // the server keys frames by the hello-established peer id
      up.tag = kUpdateTag;
      up.round = h.round;
      up.len = update_frame.size();
      if (!write_full(fd, &up, sizeof(up)) ||
          !write_full(fd, update_frame.data(), update_frame.size()))
        std::_Exit(2);
    }
  }
  for (const int fd : fds) ::close(fd);
  std::_Exit(0);
}

// Serve-mode driver: only a sampled fraction of clients holds an invite at
// any moment, so the sockets must be polled — a fixed read order deadlocks
// the instant the coordinator skips one of this child's ranks.
void run_serve_driver(int first, int count, const Bytes& update_frame) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(kPort);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::vector<int> fds(static_cast<std::size_t>(count), -1);
  for (int i = 0; i < count; ++i) {
    for (int attempt = 0; attempt < 2000; ++attempt) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0 &&
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        fds[static_cast<std::size_t>(i)] = fd;
        break;
      }
      if (fd >= 0) ::close(fd);
      ::usleep(5000);
    }
    if (fds[static_cast<std::size_t>(i)] < 0) std::_Exit(2);
    WireHeader hello;
    hello.src = first + i;
    hello.tag = -1;  // kHelloTag
    if (!write_full(fds[static_cast<std::size_t>(i)], &hello, sizeof(hello)))
      std::_Exit(2);
  }

  std::vector<pollfd> pfds(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i)
    pfds[i] = {fds[i], POLLIN, 0};
  Bytes payload;
  for (std::size_t live = fds.size(); live > 0;) {
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      std::_Exit(2);
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].fd < 0 || (pfds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
      WireHeader h;
      if (!read_full(pfds[i].fd, &h, sizeof(h))) std::_Exit(2);
      payload.resize(h.len);
      if (h.len > 0 && !read_full(pfds[i].fd, payload.data(), payload.size()))
        std::_Exit(2);
      if (h.tag == kStopTag) {
        pfds[i].fd = -pfds[i].fd;  // poll ignores negative fds
        --live;
        continue;
      }
      WireHeader up;
      up.src = 0;
      up.tag = kUpdateTag;
      up.round = h.round;
      up.len = update_frame.size();
      if (!write_full(pfds[i].fd, &up, sizeof(up)) ||
          !write_full(pfds[i].fd, update_frame.data(), update_frame.size()))
        std::_Exit(2);
    }
  }
  for (const pollfd& p : pfds) ::close(p.fd < 0 ? -p.fd : p.fd);
  std::_Exit(0);
}

// --- coordinator ---------------------------------------------------------------------

struct SweepResult {
  double rounds_per_sec = 0.0;
  double formation_seconds = 0.0;
  std::size_t agg_state_bytes = 0;  // live StreamingSum state, all combiners
  std::size_t vm_hwm_kb = 0;        // process-lifetime peak RSS (monotonic)
  std::size_t vm_rss_kb = 0;
};

SweepResult run_sweep(int clients, int rounds, int combiners,
                      const Bytes& model_frame) {
  std::vector<pid_t> kids;
  const int per_child = (clients + kChildren - 1) / kChildren;
  for (int c = 0; c < kChildren; ++c) {
    const int first = 1 + c * per_child;
    const int count = std::min(per_child, clients - c * per_child);
    if (count <= 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) run_client_driver(first, count, model_frame);
    kids.push_back(pid);
  }

  const auto t_form = std::chrono::steady_clock::now();
  auto server = TcpCommunicator::make_server(kPort, clients + 1);
  SweepResult out;
  out.formation_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_form).count();

  FramePool pool;
  std::vector<StreamingSum> sums;
  sums.reserve(static_cast<std::size_t>(combiners));
  for (int g = 0; g < combiners; ++g) sums.emplace_back(pool);
  StreamingSum root(pool);

  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int p = 1; p <= clients; ++p) server->send_bytes(p, kModelTag, model_frame);
    for (auto& s : sums) s.reset();
    for (int received = 0; received < clients;) {
      auto got = server->try_recv_bytes_any(kUpdateTag, 120.0);
      if (!got) {
        std::fprintf(stderr, "bench_fleet_scale: round %d stalled at %d/%d updates\n",
                     r, received, clients);
        std::exit(1);
      }
      sums[static_cast<std::size_t>(got->first % combiners)].add(got->second);
      ++received;
    }
    root.reset();
    Bytes partial;
    for (auto& s : sums) {
      s.encode_partial_into(1.0, nullptr, partial);
      root.add_partial(partial);
    }
    (void)root.finish_mean();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.rounds_per_sec = rounds / secs;
  for (const auto& s : sums) out.agg_state_bytes += s.peak_bytes();
  out.agg_state_bytes += root.peak_bytes();
  out.vm_hwm_kb = read_vm_kb("VmHWM:");
  out.vm_rss_kb = read_vm_kb("VmRSS:");

  for (int p = 1; p <= clients; ++p) server->send_bytes(p, kStopTag, Bytes{});
  for (const pid_t pid : kids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      std::fprintf(stderr, "bench_fleet_scale: client driver %d exited abnormally\n",
                   static_cast<int>(pid));
  }
  return out;
}

// --- serving-tier sweep (of::serve) --------------------------------------------------

struct ServeSweepResult {
  double seconds_to_target = 0.0;  // wall time to absorb `target` updates
  double updates_per_sec = 0.0;
  std::uint64_t drains = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t resampled = 0;
  std::uint64_t leaves = 0;
  std::uint64_t population = 0;
};

ServeSweepResult run_serve_sweep(int clients, int target, int buffer_size,
                                 double churn, const Bytes& model_frame) {
  constexpr double kFraction = 0.1;       // cross-device concurrency
  constexpr std::size_t kMaxStaleness = 8;
  constexpr std::uint64_t kRejoinDrains = 2;

  std::vector<pid_t> kids;
  const int per_child = (clients + kChildren - 1) / kChildren;
  for (int c = 0; c < kChildren; ++c) {
    const int first = 1 + c * per_child;
    const int count = std::min(per_child, clients - c * per_child);
    if (count <= 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) run_serve_driver(first, count, model_frame);
    kids.push_back(pid);
  }
  auto server = TcpCommunicator::make_server(kPort, clients + 1);

  FramePool pool;
  of::serve::PopulationRegistry registry;
  of::serve::ClientSampler sampler(0x5E12EDULL);
  of::serve::StalenessBuffer buffer(pool, nullptr,
                                    static_cast<std::size_t>(buffer_size),
                                    kMaxStaleness, 0.6);
  of::tensor::Rng churn_rng(0xC4BEULL);
  for (int c = 1; c <= clients; ++c) registry.join(c, 0);

  std::uint64_t version = 0, resampled = 0, leaves = 0, pick_counter = 0;
  std::vector<std::uint64_t> invited(static_cast<std::size_t>(clients) + 1, 0);
  std::set<int> in_flight;
  std::map<std::uint64_t, std::vector<int>> rejoin_at;  // drain count → ranks

  // An invite either goes out or the client churns away on the spot,
  // returning to the registry two drains later.
  auto send_invite = [&](int dst) -> bool {
    if (churn > 0.0 && churn_rng.bernoulli(churn)) {
      registry.leave(dst, version);
      rejoin_at[version + kRejoinDrains].push_back(dst);
      ++leaves;
      return false;
    }
    server->send_bytes(dst, kModelTag, model_frame);
    invited[static_cast<std::size_t>(dst)] = version;
    in_flight.insert(dst);
    return true;
  };

  std::vector<int> sample = sampler.sample(0, registry.alive(), kFraction);
  auto top_up = [&] {
    const auto accepted = static_cast<std::size_t>(buffer.accepted_total());
    if (accepted >= static_cast<std::size_t>(target)) return;
    std::size_t want = of::serve::ClientSampler::target_count(
        registry.alive_count(), kFraction);
    want = std::min(want, static_cast<std::size_t>(target) - accepted);
    for (int r : sample) {
      if (in_flight.size() >= want) break;
      if (in_flight.count(r) == 0 && registry.is_alive(r)) (void)send_invite(r);
    }
    while (in_flight.size() < want) {
      const std::vector<int> exclude(in_flight.begin(), in_flight.end());
      const int pick =
          sampler.resample(version, pick_counter++, registry.alive(), exclude);
      if (pick < 0) break;
      if (send_invite(pick)) ++resampled;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  top_up();
  while (buffer.accepted_total() < static_cast<std::uint64_t>(target)) {
    // Extreme-churn backstop: with nothing in flight no drain can ever
    // release the away cohort, so bring the earliest batch home now.
    while (in_flight.empty()) {
      if (rejoin_at.empty()) {
        std::fprintf(stderr, "bench_fleet_scale: serve sweep starved\n");
        std::exit(1);
      }
      for (const int r : rejoin_at.begin()->second) registry.join(r, version);
      rejoin_at.erase(rejoin_at.begin());
      top_up();
    }
    auto got = server->try_recv_bytes_any(kUpdateTag, 120.0);
    if (!got) {
      std::fprintf(stderr, "bench_fleet_scale: serve sweep stalled at %llu/%d\n",
                   static_cast<unsigned long long>(buffer.accepted_total()), target);
      std::exit(1);
    }
    in_flight.erase(got->first);
    const auto staleness = static_cast<std::size_t>(
        version - invited[static_cast<std::size_t>(got->first)]);
    (void)buffer.offer(got->second, staleness);
    if (buffer.ready()) {
      (void)buffer.drain();
      ++version;
      const auto due = rejoin_at.find(version);
      if (due != rejoin_at.end()) {
        for (const int r : due->second) registry.join(r, version);
        rejoin_at.erase(due);
      }
      sample = sampler.sample(version, registry.alive(), kFraction);
      pick_counter = 0;
    }
    top_up();
  }
  ServeSweepResult out;
  out.seconds_to_target =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.updates_per_sec = target / out.seconds_to_target;
  out.drains = buffer.drains_total();
  out.rejected_stale = buffer.rejected_stale_total();
  out.resampled = resampled;
  out.leaves = leaves;
  out.population = registry.population();

  for (int p = 1; p <= clients; ++p) server->send_bytes(p, kStopTag, Bytes{});
  for (const pid_t pid : kids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      std::fprintf(stderr, "bench_fleet_scale: serve driver %d exited abnormally\n",
                   static_cast<int>(pid));
  }
  return out;
}

std::vector<int> parse_csv(const char* s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::atoi(item.c_str()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> client_counts = {1000, 4000, 10000};
  int rounds = 2;
  std::vector<int> combiner_counts = {8};
  int serve_clients = 2000;
  int serve_updates = 4000;
  if (argc > 1) client_counts = parse_csv(argv[1]);
  if (argc > 2) rounds = std::atoi(argv[2]);
  if (argc > 3) combiner_counts = parse_csv(argv[3]);
  if (argc > 4) serve_clients = std::atoi(argv[4]);
  if (argc > 5) serve_updates = std::atoi(argv[5]);

  int max_clients = 0;
  for (const int n : client_counts) max_clients = std::max(max_clients, n);
  ensure_fd_budget(static_cast<std::size_t>(max_clients));

  // One shared model/update payload (integer-valued so sums stay exact).
  const std::vector<Tensor> payload = {Tensor::full({kModelFloats}, 2.0f)};
  const Bytes frame = of::core::encode_update(payload, 1.0, {}, 0, 1);
  const std::size_t model_bytes = kModelFloats * sizeof(float);

  std::printf("\n=== Fleet scale: event-loop coordinator + combiner partial sums ===\n");
  std::printf("(model %zu floats = %zu KiB/frame, %d rounds, %d driver processes)\n\n",
              kModelFloats, frame.size() / 1024, rounds, kChildren);
  std::printf("%8s | %9s | %9s | %10s | %12s | %10s\n", "clients", "combiners",
              "form s", "rounds/s", "agg state", "peak RSS");
  std::printf("--------------------------------------------------------------------\n");
  for (const int n : client_counts) {
    const auto r = run_sweep(n, rounds, combiner_counts.front(), frame);
    std::printf("%8d | %9d | %9.2f | %10.3f | %9zu KiB | %7zu MiB\n", n,
                combiner_counts.front(), r.formation_seconds, r.rounds_per_sec,
                r.agg_state_bytes / 1024, r.vm_hwm_kb / 1024);
  }
  if (combiner_counts.size() > 1) {
    std::printf("\ncombiner sweep at %d clients (agg state ~ combiners × model = "
                "combiners × %zu KiB):\n", max_clients, model_bytes / 1024);
    for (const int g : combiner_counts) {
      const auto r = run_sweep(max_clients, rounds, g, frame);
      std::printf("%8d | %9d | %9.2f | %10.3f | %9zu KiB | %7zu MiB\n", max_clients,
                  g, r.formation_seconds, r.rounds_per_sec, r.agg_state_bytes / 1024,
                  r.vm_hwm_kb / 1024);
    }
  }

  if (serve_clients > 0) {
    std::printf("\n=== Serving tier: churning population, fraction-fit sampling, "
                "FedBuff buffer ===\n");
    std::printf("(%d clients, fraction 0.1, %d accepted updates per cell, "
                "max_staleness 8)\n\n", serve_clients, serve_updates);
    std::printf("%6s | %7s | %9s | %10s | %7s | %9s | %9s | %7s | %11s\n",
                "churn", "buffer", "to-tgt s", "updates/s", "drains", "rej stale",
                "resampled", "leaves", "population");
    std::printf("---------------------------------------------------------------"
                "---------------------------\n");
    for (const double churn : {0.0, 0.1, 0.3}) {
      for (const int buf : {16, 64, 256}) {
        const auto r = run_serve_sweep(serve_clients, serve_updates, buf, churn,
                                       frame);
        std::printf("%6.2f | %7d | %9.2f | %10.1f | %7llu | %9llu | %9llu | "
                    "%7llu | %11llu\n",
                    churn, buf, r.seconds_to_target, r.updates_per_sec,
                    static_cast<unsigned long long>(r.drains),
                    static_cast<unsigned long long>(r.rejected_stale),
                    static_cast<unsigned long long>(r.resampled),
                    static_cast<unsigned long long>(r.leaves),
                    static_cast<unsigned long long>(r.population));
      }
    }
  }
  return 0;
}
