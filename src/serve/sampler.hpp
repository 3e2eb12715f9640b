// ClientSampler — seeded, reproducible fraction-fit sampling (DESIGN.md §14).
//
// Each aggregation window the coordinator invites ceil(fraction × alive)
// clients. The draw is a partial Fisher–Yates over the alive set, seeded
// from (sampler seed, window index) through the same splitmix64 mixing the
// rest of the framework uses — so a run's entire invitation schedule is a
// pure function of the run seed and the registry's liveness history, and a
// fixed-seed rerun selects the identical clients (the property test in
// tests/test_serve.cpp). The lockstep `clients_per_round` schedule draws
// through the same sampler (`sample_count`), one window per round.
//
// `resample` draws replacement picks when an invited client churns away
// mid-window: deterministic in (window, pick index), skewed away from the
// exclusion set, so replacements are reproducible too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace of::serve {

class ClientSampler {
 public:
  explicit ClientSampler(std::uint64_t seed) : seed_(seed) {}

  // How many invitations a window issues over `alive` clients:
  // ceil(fraction × alive), at least 1 while anyone is alive.
  static std::size_t target_count(std::size_t alive, double fraction);

  // The window's invitation set: `target_count` ranks drawn without
  // replacement from `alive` (ascending input order does not matter; the
  // draw is over the sorted set). Returns fewer when alive is small.
  std::vector<int> sample(std::uint64_t window, const std::vector<int>& alive,
                          double fraction) const;
  // The same draw for an exact count (clamped to alive.size()), returned
  // sorted — the lockstep `clients_per_round` schedule.
  std::vector<int> sample_count(std::uint64_t window, const std::vector<int>& alive,
                                std::size_t count) const;

  // Replacement pick `pick` for `window`: one rank from `eligible` minus
  // `exclude`, or -1 when the difference is empty.
  int resample(std::uint64_t window, std::uint64_t pick,
               const std::vector<int>& eligible,
               const std::vector<int>& exclude) const;

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace of::serve
