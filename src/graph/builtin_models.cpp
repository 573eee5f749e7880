#include "graph/builtin_models.hpp"

#include <string>

namespace maco::graph {

const std::vector<BuiltinManifest>& builtin_manifests() {
  static const std::vector<BuiltinManifest> manifests = {
#include "builtin_manifests.inc"
  };
  return manifests;
}

const char* builtin_manifest(std::string_view name) {
  for (const BuiltinManifest& manifest : builtin_manifests()) {
    if (name == manifest.name) return manifest.json;
  }
  std::string known;
  for (const BuiltinManifest& manifest : builtin_manifests()) {
    if (!known.empty()) known += "|";
    known += manifest.name;
  }
  throw GraphError("unknown builtin model '" + std::string(name) +
                   "' (want " + known + ")");
}

ModelGraph builtin_graph(std::string_view name) {
  return parse_model_graph(builtin_manifest(name));
}

ModelGraph load_graph_model(const std::string& spec) {
  for (const BuiltinManifest& builtin : builtin_manifests()) {
    if (spec == builtin.name) return parse_model_graph(builtin.json);
  }
  return load_model_graph(spec);
}

}  // namespace maco::graph
