// Hardware configuration knobs of the `macosim` driver.
//
// One typed schema describes every core::SystemConfig field that can be set
// or swept from the CLI — geometry (nodes, mesh, systolic array), memory
// system (DRAM channels/efficiency, L2/L3 sizes, sTLB entries, DMA queue
// depths) and accelerator internals (mATLB entries, inner K-chunk). The
// sweep runner validates values against this schema before any run and
// folds the explicitly-set ones into the per-point SystemConfig.
#pragma once

#include <iosfwd>
#include <string>

#include "core/config.hpp"
#include "exp/param_schema.hpp"

namespace maco::driver {

// The declarative schema (types, defaults matching
// SystemConfig::maco_default(), ranges, descriptions).
const exp::ParamSchema& hardware_schema();

// Folds every explicitly-set knob of `params` into `config`; defaults are
// left to the SystemConfig the caller built. `params` must come from
// hardware_schema() (values are already validated and typed). Throws
// std::invalid_argument on cross-field violations the per-value schema
// cannot express (node_count/ccm_count/DDR controllers vs mesh capacity).
void apply_hardware_params(const exp::ParamSet& params,
                           core::SystemConfig& config);

// Renders the knob schema as a name/type/default/range/description table
// (the hardware section of `--list-scenarios`), straight from the schema
// the sweep runner validates against, so the listing cannot drift.
void print_hardware_knob_table(std::ostream& out, const std::string& title);

}  // namespace maco::driver
