#include "driver/graph_cmd.hpp"

#include <sstream>
#include <string>

#include "graph/builtin_models.hpp"
#include "sa/types.hpp"
#include "util/table.hpp"

namespace maco::driver {
namespace {

std::string mib(std::uint64_t bytes) {
  return util::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0),
                             2);
}

std::string gflop(std::uint64_t flops) {
  return util::format_double(static_cast<double>(flops) * 1e-9, 3);
}

}  // namespace

std::string validate_manifest(const std::string& path) {
  graph::ModelGraph graph = graph::load_graph_model(path);
  // Parsing checks structure; dims that overflow 64 bits only surface when
  // they resolve, so lower at the manifest's defaults in both phases.
  for (const graph::Phase phase :
       {graph::Phase::kPrefill, graph::Phase::kDecode}) {
    graph::LoweringOptions options;
    options.phase = phase;
    try {
      (void)graph::lower(graph, options);
    } catch (const graph::GraphError& error) {
      throw graph::GraphError(path + ": " + error.what());
    }
  }
  std::ostringstream out;
  out << path << ": ok (model " << graph.name << ", " << graph.ops.size()
      << " ops, " << graph.tensors.size() << " tensors)";
  return out.str();
}

std::string show_manifest(const std::string& path,
                          const graph::LoweringOptions& options) {
  graph::ModelGraph graph = graph::load_graph_model(path);
  graph::LoweredModel model = graph::lower(graph, options);

  std::ostringstream out;
  out << "model " << model.workload.name << " (precision "
      << sa::precision_name(model.workload.precision) << ", phase "
      << graph::phase_name(model.phase) << ", batch " << model.batch
      << ", seq_len " << model.seq_len << ", tokens " << model.tokens
      << ")\n";

  util::Table layers(
      {"Layer", "M", "N", "K", "Repeat", "Post", "GFLOP", "MiB"});
  for (std::size_t col = 1; col <= 4; ++col)
    layers.set_align(col, util::Align::kRight);
  layers.set_align(6, util::Align::kRight);
  layers.set_align(7, util::Align::kRight);
  const std::uint64_t ebytes = sa::element_bytes(model.workload.precision);
  for (const wl::Layer& layer : model.workload.layers) {
    const sa::TileShape& s = layer.shape;
    const std::uint64_t bytes =
        (static_cast<std::uint64_t>(s.m) * s.k +
         static_cast<std::uint64_t>(s.k) * s.n +
         static_cast<std::uint64_t>(s.m) * s.n) *
        ebytes * layer.repeat;
    layers.row()
        .cell(layer.name)
        .cell(std::uint64_t{s.m})
        .cell(std::uint64_t{s.n})
        .cell(std::uint64_t{s.k})
        .cell(std::uint64_t{layer.repeat})
        .cell(wl::post_op_name(layer.post))
        .cell(gflop(layer.flops()))
        .cell(mib(bytes));
  }
  layers.print(out, "Lowered layers");
  out << "\n";

  util::Table ops({"Op", "Kind", "Layers", "GFLOP", "MiB", "FLOPs%"});
  ops.set_align(2, util::Align::kRight);
  ops.set_align(3, util::Align::kRight);
  ops.set_align(4, util::Align::kRight);
  ops.set_align(5, util::Align::kRight);
  for (const graph::OpContribution& op : model.ops) {
    std::string layers_cell =
        op.layer_count == 0 ? "fused:" + op.fused_into
                            : std::to_string(op.layer_count);
    ops.row()
        .cell(op.op)
        .cell(graph::op_kind_name(op.kind))
        .cell(std::move(layers_cell))
        .cell(gflop(op.flops))
        .cell(mib(op.bytes))
        .percent(op.flops_frac);
  }
  ops.print(out, "Per-op contribution");
  out << "\ntotal: " << gflop(model.total_flops()) << " GFLOP, "
      << mib(model.total_bytes) << " MiB moved, "
      << model.workload.layers.size() << " layers from "
      << model.ops.size() << " ops\n";
  return out.str();
}

}  // namespace maco::driver
