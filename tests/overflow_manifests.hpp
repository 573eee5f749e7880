// Two manifests that parse but whose dim products overflow 64 bits, so
// lowering must reject them with a GraphError. Shared by the graph CLI and
// sweep tests; each helper writes its manifest and returns the path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "graph/builtin_models.hpp"

namespace maco::overflow_manifests {

// One file per test process: ctest runs the graph and driver test
// binaries in parallel, and a shared path lets one read the other's
// half-written manifest.
inline std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "." +
         std::to_string(::getpid()) + ".json";
}

// gpt3-block with batch = seq_len = 2^32: tokens = batch*seq_len wraps to
// 0 unchecked.
inline std::string wrapping_tokens() {
  std::string manifest = graph::builtin_manifest("gpt3-block");
  const std::string defaults = R"("defaults": {"batch": 1, "seq_len": 2048})";
  manifest.replace(
      manifest.find(defaults), defaults.size(),
      R"("defaults": {"batch": 4294967296, "seq_len": 4294967296})");
  const std::string path = temp_path("wrapping_tokens_manifest");
  std::ofstream(path) << manifest;
  return path;
}

// One gemm over literal [2^22, 2^22] tensors: 2*m*n*k = 2^67 wraps.
inline std::string wrapping_flops() {
  const std::string path = temp_path("wrapping_flops_manifest");
  std::ofstream(path) << R"({
  "model": "huge-gemm",
  "tensors": [
    {"name": "a", "dims": [4194304, 4194304]},
    {"name": "b", "dims": [4194304, 4194304]},
    {"name": "c", "dims": [4194304, 4194304]}
  ],
  "ops": [{"name": "mm", "kind": "gemm", "inputs": ["a", "b"],
           "outputs": ["c"]}]
})";
  return path;
}

}  // namespace maco::overflow_manifests
