#include "cpu/core.hpp"

#include "util/assert.hpp"

namespace maco::cpu {

namespace {

// Issue cost in CPU cycles per MPAIS instruction. MA_CFG and the data
// migration ops run a micro-op sequence (allocate MTQ entry, read six
// registers, send to MMAE); the queries are register-file reads plus an
// MTQ port access.
constexpr sim::Cycles issue_cost(isa::Mnemonic op) noexcept {
  switch (op) {
    case isa::Mnemonic::kMaMove:
    case isa::Mnemonic::kMaInit:
    case isa::Mnemonic::kMaStash:
    case isa::Mnemonic::kMaCfg:
      return 8;
    case isa::Mnemonic::kMaRead:
    case isa::Mnemonic::kMaState:
      return 4;
    case isa::Mnemonic::kMaClear:
      return 3;
  }
  return 1;
}

}  // namespace

CpuCore::CpuCore(int node_id, const CpuConfig& config,
                 vm::MemoryLatencyOracle& walk_memory)
    : node_id_(node_id), name_("node" + std::to_string(node_id) + ".cpu"),
      config_(config), mtq_(config.mtq_entries),
      mmu_(name_ + ".mmu", config.mmu, walk_memory) {}

sim::Cycles CpuCore::step(const isa::Instruction& instruction,
                          ExecStats& stats) {
  ++stats.instructions;
  const sim::Cycles cost = issue_cost(instruction.op);

  switch (instruction.op) {
    case isa::Mnemonic::kMaCfg:
    case isa::Mnemonic::kMaMove:
    case isa::Mnemonic::kMaInit:
    case isa::Mnemonic::kMaStash: {
      const auto maid = mtq_.allocate(asid_);
      if (!maid) {
        regs_.write(instruction.rd, kMaidAllocFailed);
        ++stats.mtq_alloc_failures;
        break;
      }
      regs_.write(instruction.rd, *maid);
      const isa::ParamBlock params = regs_.read_param_block(instruction.rn);
      MACO_ASSERT_MSG(accelerator_ != nullptr,
                      name_ << ": MPAIS dispatch without an attached MMAE");
      if (!accelerator_->submit(*maid, instruction.op, params, asid_)) {
        // Slave queue refused (should not happen when STQ mirrors MTQ
        // capacity); surface as an exception so software can recover.
        mtq_.mark_exception(*maid, ExceptionType::kInvalidConfig);
        ++stats.submit_rejections;
      } else {
        ++stats.tasks_dispatched;
      }
      break;
    }
    case isa::Mnemonic::kMaRead: {
      const auto maid = static_cast<Maid>(regs_.read(instruction.rn));
      const auto entry = mtq_.read(maid);
      regs_.write(instruction.rd, entry ? pack_state(*entry) : 0);
      break;
    }
    case isa::Mnemonic::kMaState: {
      const auto maid = static_cast<Maid>(regs_.read(instruction.rn));
      const auto entry = mtq_.read_and_release(maid);
      regs_.write(instruction.rd, entry ? pack_state(*entry) : 0);
      break;
    }
    case isa::Mnemonic::kMaClear: {
      const auto maid = static_cast<Maid>(regs_.read(instruction.rn));
      mtq_.clear(maid);
      break;
    }
  }
  stats.cycles += cost;
  return cost;
}

CpuCore::ExecStats CpuCore::execute(
    const std::vector<isa::Instruction>& program) {
  ExecStats stats;
  for (const auto& instruction : program) {
    step(instruction, stats);
  }
  return stats;
}

CpuCore::ExecStats CpuCore::execute_source(std::string_view source) {
  const isa::AsmResult assembled = isa::assemble(source);
  MACO_ASSERT_MSG(assembled.ok(),
                  name_ << ": assembly failed: "
                        << (assembled.errors.empty()
                                ? ""
                                : assembled.errors.front().message));
  return execute(assembled.program);
}

}  // namespace maco::cpu
