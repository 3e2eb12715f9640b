#include "serve/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/rng.hpp"

namespace of::serve {
namespace {

// Decorrelate (seed, window[, pick]) into one Rng seed.
std::uint64_t window_seed(std::uint64_t seed, std::uint64_t window) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (window + 1));
}

}  // namespace

std::size_t ClientSampler::target_count(std::size_t alive, double fraction) {
  if (alive == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(alive)));
  return std::min(alive, std::max<std::size_t>(1, k));
}

std::vector<int> ClientSampler::sample(std::uint64_t window,
                                       const std::vector<int>& alive,
                                       double fraction) const {
  return sample_count(window, alive, target_count(alive.size(), fraction));
}

std::vector<int> ClientSampler::sample_count(std::uint64_t window,
                                             const std::vector<int>& alive,
                                             std::size_t count) const {
  std::vector<int> ids = alive;
  std::sort(ids.begin(), ids.end());
  const std::size_t k = std::min(count, ids.size());
  tensor::Rng rng(window_seed(seed_, window));
  // Partial Fisher–Yates: the first k slots are the draw.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.next_below(ids.size() - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int ClientSampler::resample(std::uint64_t window, std::uint64_t pick,
                            const std::vector<int>& eligible,
                            const std::vector<int>& exclude) const {
  std::vector<int> pool;
  for (int id : eligible)
    if (std::find(exclude.begin(), exclude.end(), id) == exclude.end())
      pool.push_back(id);
  if (pool.empty()) return -1;
  std::sort(pool.begin(), pool.end());
  tensor::Rng rng(window_seed(seed_, window) ^ (0xC2B2AE3D27D4EB4FULL * (pick + 1)));
  return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
}

}  // namespace of::serve
