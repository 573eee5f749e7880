// `macosim graph validate|show FILE` — schema-check a model manifest and
// print the lowered layer table without running any simulation. FILE is
// resolved like every `model_file` parameter (graph::load_graph_model):
// a builtin name such as "gpt3-block", else a path.
//
// Like trace_cmd, this is pure string-to-string rendering so tests can
// exercise it without a CLI process; errors surface as the typed
// exceptions of the layers below (util::FileError, graph::GraphError).
#pragma once

#include <string>

#include "graph/lowering.hpp"

namespace maco::driver {

// Loads and validates `path` (or a builtin name) and lowers it at its
// defaults in both phases, returning a one-line summary ("<file>: ok
// (model NAME, N ops, M tensors)"). Invalid manifests, and ones that do
// not lower, throw.
std::string validate_manifest(const std::string& path);

// Loads `path` (or a builtin name), lowers it with `options`, and renders
// the per-layer GEMM table (op, kind, shapes, FLOPs, bytes) plus the
// per-op contribution summary. Invalid manifests throw.
std::string show_manifest(const std::string& path,
                          const graph::LoweringOptions& options);

}  // namespace maco::driver
