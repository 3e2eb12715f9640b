// of::serve — the async serving layer (config group `serve/`, DESIGN.md §14).
//
// The classic round loops treat the federation as "N fixed workers running
// lockstep rounds". Cross-device fleets are nothing like that: a registered
// population of M clients of which only a sampled fraction trains at any
// moment, with stragglers, dropouts, and stale updates as the steady state.
// This module turns the coordinator into a serving loop over that
// population:
//
//   registry.hpp  PopulationRegistry — who is registered, who is alive,
//                 when each client was last seen (fed by explicit
//                 join/leave control frames and, on TCP, by the event
//                 loop's connection lifecycle)
//   sampler.hpp   ClientSampler — seeded, reproducible fraction-fit
//                 sampling: invite ceil(fraction × alive) clients per
//                 aggregation window
//   buffer.hpp    StalenessBuffer — FedBuff-style bounded buffer folding
//                 staleness-weighted updates into a pooled StreamingSum,
//                 draining every `buffer_size` accepted updates
//
// `mode: sync` keeps the classic path untouched (bitwise-identical runs);
// `mode: fedbuff` replaces the per-round barrier with the buffer loop. The
// old `scheduling: {mode: async}` group maps onto fedbuff with
// fraction = 1 and buffer_size = 1, which reproduces FedAsync exactly.
#pragma once

#include <cstddef>
#include <string>

#include "config/node.hpp"
#include "refl/refl.hpp"

namespace of::serve {

enum class Mode {
  Sync,     // classic lockstep rounds; the serving layer stays out of the path
  FedBuff,  // buffered async aggregation over a sampled population
};

struct ServeConfig {
  bool enabled = false;
  Mode mode = Mode::Sync;

  // Fraction-fit sampling: each aggregation window the coordinator keeps
  // ceil(fraction × alive) clients training concurrently.
  double fraction = 1.0;

  // FedBuff buffer: aggregate (drain the buffer into the global model)
  // every `buffer_size` accepted updates. 1 reproduces FedAsync.
  std::size_t buffer_size = 1;

  // Admission control: an update whose staleness (server versions elapsed
  // since its model snapshot) exceeds this bound is rejected with a
  // retry-after control frame instead of silently folded in. 0 = unbounded.
  std::size_t max_staleness = 0;

  // Staleness-weighted mixing rate: an accepted update joins the buffer
  // with weight α/(1+s). Migrated from the old scheduling.alpha knob.
  double alpha = 0.6;

  // Total client contributions to absorb before stopping
  // (0 = global_rounds × clients). Migrated from scheduling.total_updates.
  std::size_t total_updates = 0;

  // Client-side pause after a retry-after reply before blocking on the
  // next coordinator frame, seconds.
  double retry_seconds = 0.01;

  // Parse the `serve:` config group; a null/missing node yields the
  // disabled default. Cross-field constraints (fraction bounds vs mode)
  // are checked here; per-field ranges live in the descriptor.
  static ServeConfig from_config(const config::ConfigNode& node, bool strict = true);
};

// How long a trainer waits on a retry-after reply carrying `retry_after`
// seconds from the coordinator: a NaN, infinite, zero or negative value
// means no wait, and the wait never exceeds `cap_seconds` (the trainer's
// receive timeout), so a hostile or corrupt value cannot stall it or
// overflow the sleep's duration conversion.
double retry_wait_seconds(float retry_after, double cap_seconds) noexcept;

}  // namespace of::serve

template <>
struct of::refl::EnumNames<of::serve::Mode> {
  static constexpr std::pair<of::serve::Mode, const char*> names[] = {
      {of::serve::Mode::Sync, "sync"},
      {of::serve::Mode::FedBuff, "fedbuff"},
  };
};

template <>
struct of::refl::Reflect<of::serve::ServeConfig> {
  using S = of::serve::ServeConfig;
  OF_REFL_FIELDS(
      field("enabled", &S::enabled, 1),
      field("mode", &S::mode, 2),
      field("fraction", &S::fraction, 3).gt(0.0).le(1.0),
      field("buffer_size", &S::buffer_size, 4).ge(1),
      field("max_staleness", &S::max_staleness, 5),
      field("alpha", &S::alpha, 6).gt(0.0),
      field("total_updates", &S::total_updates, 7),
      field("retry_seconds", &S::retry_seconds, 8).ge(0.0))
};
