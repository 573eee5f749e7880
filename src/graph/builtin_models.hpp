// The shipped model manifests, compiled into libmaco.
//
// Every examples/models/*.json is embedded verbatim at build time
// (cmake/embed_manifests.cmake), so every builtin model lowers the exact
// bytes a user sees in the tree — the builtin catalogue cannot drift
// from the shipped files. Names are the file stems:
// "resnet50-stage", "bert-block", "gpt3-block", "tiny", "moe-mlp".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/model_graph.hpp"

namespace maco::graph {

struct BuiltinManifest {
  const char* name;  // file stem under examples/models/
  const char* json;  // the file's bytes
};

const std::vector<BuiltinManifest>& builtin_manifests();

// The manifest text for `name`; throws GraphError listing the catalogue
// on an unknown name.
const char* builtin_manifest(std::string_view name);

// parse_model_graph(builtin_manifest(name)).
ModelGraph builtin_graph(std::string_view name);

// The one way to name a manifest, shared by every `model_file` parameter
// and the `macosim graph validate|show` subcommands: a builtin name, else
// a path to a manifest JSON file (load_model_graph).
ModelGraph load_graph_model(const std::string& spec);

}  // namespace maco::graph
