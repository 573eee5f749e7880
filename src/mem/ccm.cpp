#include "mem/ccm.hpp"

#include "util/assert.hpp"

namespace maco::mem {

Ccm::Ccm(const CcmConfig& config, SetAssocCache& l3, DramModel& dram)
    : config_(config), l3_(l3), dram_(dram) {
  const std::uint64_t slice_sets =
      config.l3.size_bytes / config.l3.line_bytes / config.l3.ways;
  MACO_ASSERT_MSG(l3.config().ways == config.l3.ways &&
                      l3.config().line_bytes == config.l3.line_bytes &&
                      slice_sets > 0 && l3.sets() % slice_sets == 0,
                  l3.name() << ": not a store of whole "
                            << config.l3.size_bytes << "-byte slices");
}

}  // namespace maco::mem
