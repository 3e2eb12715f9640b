#include "config/compose.hpp"

#include <fstream>

#include "config/yaml.hpp"

namespace of::config {
namespace {

std::string dirname_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

// Strip Hydra's "override " marker from a defaults entry's group name.
std::string entry_group(const std::string& key) {
  constexpr const char* kOverride = "override ";
  return key.rfind(kOverride, 0) == 0 ? key.substr(std::string(kOverride).size()) : key;
}

// A defaults entry is either a scalar name ("base") or a one-entry map
// ("topology: centralized" / "override topology: centralized").
void apply_default_entry(ConfigNode& target, const ConfigNode& entry,
                         const std::string& base_dir) {
  if (entry.is_scalar()) {
    const std::string name = entry.as_string();
    ConfigNode loaded = load_yaml_file(base_dir + "/" + name + ".yaml");
    target.merge_from(loaded);
    return;
  }
  OF_CHECK_MSG(entry.is_map() && entry.size() == 1,
               "defaults entry must be a name or single 'group: option' pair");
  // Hydra syntax: "override <group>" marks replacement of an earlier
  // default; composition order already handles it, so just strip the marker.
  const std::string group = entry_group(entry.items().front().first);
  const ConfigNode& option = entry.items().front().second;
  OF_CHECK_MSG(option.is_scalar(), "defaults option for group '" << group
                                                                 << "' must be a name");
  ConfigNode loaded =
      load_yaml_file(base_dir + "/" + group + "/" + option.as_string() + ".yaml");
  target[group].merge_from(loaded);
}

// "group=option" selects <base_dir>/<group>/<option>.yaml when that file
// exists (Hydra semantics); every other assignment is a dotted-path value.
bool is_group_selection(const std::string& assignment, const std::string& base_dir,
                        std::string& group, std::string& option) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  group = assignment.substr(0, eq);
  option = assignment.substr(eq + 1);
  if (group.find('.') != std::string::npos || option.empty() ||
      option.find('/') != std::string::npos)
    return false;
  return std::ifstream(base_dir + "/" + group + "/" + option + ".yaml").good();
}

// The defaults list with the entry of `group` pointed at `option`, or with
// one appended.
ConfigNode select_group(const ConfigNode& defaults, const std::string& group,
                        const std::string& option) {
  ConfigNode out = ConfigNode::list();
  bool found = false;
  for (std::size_t i = 0; i < defaults.size(); ++i) {
    ConfigNode entry = defaults.at(i);
    if (entry.is_map() && entry.size() == 1 &&
        entry_group(entry.items().front().first) == group) {
      entry.items().front().second = ConfigNode::string(option);
      found = true;
    }
    out.push_back(std::move(entry));
  }
  if (!found) {
    ConfigNode entry = ConfigNode::map();
    entry[group] = ConfigNode::string(option);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

void apply_override(ConfigNode& root, const std::string& assignment) {
  const auto eq = assignment.find('=');
  OF_CHECK_MSG(eq != std::string::npos && eq > 0,
               "override must be 'dotted.path=value', got '" << assignment << "'");
  const std::string path = assignment.substr(0, eq);
  const std::string value = assignment.substr(eq + 1);
  root.set_path(path, parse_scalar(value));
}

ConfigNode compose_from(ConfigNode root, const std::string& base_dir,
                        const std::vector<std::string>& overrides) {
  ConfigNode result = ConfigNode::map();
  // Group selections rewrite the defaults list before it composes, so the
  // file body and the dotted overrides still apply on top of the selection.
  std::vector<std::string> assignments;
  for (const auto& ov : overrides) {
    std::string group, option;
    if (!root.is_map() || !is_group_selection(ov, base_dir, group, option)) {
      assignments.push_back(ov);
      continue;
    }
    const ConfigNode defaults = root.has("defaults") ? root.at("defaults") : ConfigNode::list();
    OF_CHECK_MSG(defaults.is_list(), "'defaults' must be a list");
    root["defaults"] = select_group(defaults, group, option);
  }
  if (root.is_map() && root.has("defaults")) {
    const ConfigNode& defaults = root.at("defaults");
    OF_CHECK_MSG(defaults.is_list(), "'defaults' must be a list");
    for (std::size_t i = 0; i < defaults.size(); ++i)
      apply_default_entry(result, defaults.at(i), base_dir);
    root.erase("defaults");
  }
  result.merge_from(root);  // the file body wins over its defaults
  for (const auto& ov : assignments) apply_override(result, ov);
  return result;
}

ConfigNode compose(const std::string& path, const std::vector<std::string>& overrides) {
  return compose_from(load_yaml_file(path), dirname_of(path), overrides);
}

}  // namespace of::config
