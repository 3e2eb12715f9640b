// Hydra-style composition: a config may carry a `defaults:` list whose
// entries pull in group files, and callers may pass dotted-path command-line
// overrides ("algorithm.lr=0.05"). This reproduces the paper's Fig. 2
// workflow: one-line changes in YAML (or on the CLI) swap the algorithm,
// topology, communicator, model, or dataset.
//
//   defaults:
//     - base                      # merge <dir>/base.yaml at the root
//     - topology: centralized    # merge <dir>/topology/centralized.yaml under `topology:`
//     - override algorithm: fedprox   # same, explicitly replacing an earlier default
//
// Entries compose in order; the body of the file wins over its defaults;
// CLI overrides win over everything. An override "group=option" whose
// <dir>/<group>/<option>.yaml exists selects that file for the group, as in
// Hydra: it replaces the group's defaults entry (or adds one) before
// composition. Any other override is a dotted-path value.
#pragma once

#include <string>
#include <vector>

#include "config/node.hpp"

namespace of::config {

// Apply one "dotted.path=value" assignment (value parsed as a YAML scalar
// or flow list). Group selections need the config directory: pass them to
// compose / compose_from instead.
void apply_override(ConfigNode& root, const std::string& assignment);

// Compose a parsed config whose group files live under `base_dir`.
ConfigNode compose_from(ConfigNode root, const std::string& base_dir,
                        const std::vector<std::string>& overrides = {});

// Load + compose the config file at `path`; group files are resolved
// relative to its directory.
ConfigNode compose(const std::string& path, const std::vector<std::string>& overrides = {});

}  // namespace of::config
