#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "refl/config_io.hpp"

namespace of::serve {

ServeConfig ServeConfig::from_config(const config::ConfigNode& node, bool strict) {
  if (node.is_null()) return ServeConfig{};
  OF_CHECK_MSG(node.is_map(), "serve config must be a map");
  ServeConfig cfg = refl::from_node<ServeConfig>(node, "serve", {}, strict);
  // Per-field bounds live in the descriptor; only cross-field constraints
  // remain hand-written.
  if (cfg.mode == Mode::Sync) {
    OF_CHECK_MSG(cfg.buffer_size == 1,
                 "serve.buffer_size only applies to mode: fedbuff");
    OF_CHECK_MSG(cfg.max_staleness == 0,
                 "serve.max_staleness only applies to mode: fedbuff");
  }
  return cfg;
}

double retry_wait_seconds(float retry_after, double cap_seconds) noexcept {
  // !(x > 0) also catches NaN.
  if (!std::isfinite(retry_after) || !(retry_after > 0.0f) || !(cap_seconds > 0.0)) return 0.0;
  return std::min(static_cast<double>(retry_after), cap_seconds);
}

}  // namespace of::serve
