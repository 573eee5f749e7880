// Tables I–III: the paper's configuration tables, regenerated from the
// implementation (not restated by hand) so drift between code and paper
// parameters is visible.
//
//   Table I   CPU core architectural parameters   <- cpu::CpuConfig
//   Table II  the MPAIS instruction set           <- isa encodings/assembler
//   Table III MTQ entry fields + Fig. 3 states    <- cpu::MasterTaskQueue
#include <cstdio>
#include <iostream>

#include "core/config.hpp"
#include "core/detailed_runner.hpp"
#include "cpu/mtq.hpp"
#include "driver/hardware_knobs.hpp"
#include "isa/encoding.hpp"
#include "sampling/estimator.hpp"
#include "util/table.hpp"

namespace {

void table1_cpu_parameters() {
  using namespace maco;
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const cpu::CpuConfig& cpu = config.cpu;

  util::Table t({"Architectural Parameter", "Value"});
  t.row().cell("instruction width").cell("64-bit");
  t.row().cell("data bus width").cell("256-bit mesh links (CHI-like)");
  t.row()
      .cell("pipeline stages")
      .cell(std::to_string(cpu.pipeline_stages) + "+");
  t.row().cell("instruction execution order").cell("out-of-order (modeled)");
  t.row()
      .cell("multi-issue ability")
      .cell(std::to_string(cpu.issue_width) + "-issue");
  t.row()
      .cell("frequency")
      .cell(util::format_double(cpu.frequency_hz / 1e9, 1) + " GHz");
  t.row()
      .cell("L1 ICache")
      .cell(std::to_string(cpu.l1i.size_bytes / 1024) + " KiB, " +
            std::to_string(cpu.l1i.ways) + "-way set associative");
  t.row()
      .cell("L1 DCache")
      .cell(std::to_string(cpu.l1d.size_bytes / 1024) + " KiB, " +
            std::to_string(cpu.l1d.ways) + "-way set associative");
  t.row()
      .cell("L2 Cache")
      .cell(std::to_string(cpu.l2.size_bytes / 1024) + " KiB, private");
  t.row()
      .cell("L1 ITLB/DTLB")
      .cell(std::to_string(cpu.mmu.l1_tlb_entries) +
            " entries, fully associative");
  t.row()
      .cell("L2 TLB")
      .cell(std::to_string(cpu.mmu.l2_tlb_entries) +
            " entries, fully associative");
  t.row().cell("MTQ entries").cell(std::to_string(cpu.mtq_entries));
  t.print(std::cout, "Table I: architectural parameters of a CPU core");
  std::puts("");
}

void table2_mpais_instructions() {
  using namespace maco;
  util::Table t({"Function", "Instruction", "Usage", "Opcode"});
  struct Row {
    const char* function;
    isa::Mnemonic mnemonic;
    const char* usage;
  };
  const Row rows[] = {
      {"Data migration", isa::Mnemonic::kMaMove, "MA_MOVE Rd, Rn"},
      {"Data migration", isa::Mnemonic::kMaInit, "MA_INIT Rd, Rn"},
      {"Data migration", isa::Mnemonic::kMaStash, "MA_STASH Rd, Rn"},
      {"GEMM computing", isa::Mnemonic::kMaCfg, "MA_CFG Rd, Rn"},
      {"Task management", isa::Mnemonic::kMaRead, "MA_READ Rd, Rn"},
      {"Task management", isa::Mnemonic::kMaState, "MA_STATE Rd, Rn"},
      {"Task management", isa::Mnemonic::kMaClear, "MA_CLEAR Rn"},
  };
  for (const Row& row : rows) {
    isa::Instruction instruction;
    instruction.op = row.mnemonic;
    instruction.rd = 5;
    instruction.rn = 10;
    char opcode[16];
    std::snprintf(opcode, sizeof(opcode), "0x%08x",
                  isa::encode(instruction));
    t.row()
        .cell(row.function)
        .cell(isa::mnemonic_name(row.mnemonic))
        .cell(row.usage)
        .cell(opcode);
  }
  t.print(std::cout,
          "Table II: the MPAIS instruction set (encodings from the "
          "assembler, rd=x5, rn=x10)");
  std::puts("");
}

void table3_mtq_entry() {
  using namespace maco;
  util::Table t({"Field", "Description"});
  t.row().cell("Valid").cell("entry is allocated");
  t.row().cell("Done").cell("task completed");
  t.row().cell("ASID").cell("process identifier (NULL when free)");
  t.row()
      .cell("exception_en")
      .cell("exception occurred during task execution");
  t.row()
      .cell("exception_type")
      .cell("page_fault | invalid_config | buffer_overflow | bus_error");
  t.print(std::cout, "Table III: fields of an MTQ entry");

  // Fig. 3 state walk on a live MTQ.
  cpu::MasterTaskQueue mtq(4);
  std::puts("\nFig. 3 state walk (live MasterTaskQueue):");
  const auto maid = mtq.allocate(/*asid=*/0);
  std::printf("  MA_CFG by process #00      -> valid=%d done=%d\n",
              mtq.entry(*maid).valid, mtq.entry(*maid).done);
  mtq.mark_done(*maid);
  std::printf("  task done, no exceptions   -> valid=%d done=%d\n",
              mtq.entry(*maid).valid, mtq.entry(*maid).done);
  mtq.read_and_release(*maid);
  std::printf("  MA_STATE (query + release) -> valid=%d done=%d\n",
              mtq.entry(*maid).valid, mtq.entry(*maid).done);
  const auto maid2 = mtq.allocate(/*asid=*/1);
  mtq.mark_exception(*maid2, cpu::ExceptionType::kPageFault);
  std::printf("  task completes with fault  -> valid=%d done=%d exc=%s\n",
              mtq.entry(*maid2).valid, mtq.entry(*maid2).done,
              cpu::exception_type_name(mtq.entry(*maid2).exception_type));
  mtq.clear(*maid2);
  std::printf("  MA_CLEAR                   -> valid=%d done=%d exc=%s\n",
              mtq.entry(*maid2).valid, mtq.entry(*maid2).done,
              cpu::exception_type_name(mtq.entry(*maid2).exception_type));
  std::puts("");
}

// Appendix: which of the platform parameters above are sweepable from the
// macosim CLI, straight from the driver's typed hardware schema — the same
// single source --list-scenarios and the sweep runner validate against.
void appendix_sweepable_knobs() {
  maco::driver::print_hardware_knob_table(
      std::cout, "Appendix: hardware knobs sweepable via `macosim --sweep`");
  std::puts("");
}

// Appendix: the fidelity ladder behind `--set fidelity=...`, with the
// governing limits quoted from the implementation constants so this table
// can never drift from what the backends actually enforce.
void appendix_fidelity_ladder() {
  std::puts("Appendix: execution fidelities (macosim --set fidelity=...)");
  std::puts(
      "  analytic  closed forms + contention models; any shape,\n"
      "            microseconds per point");
  std::printf(
      "  detailed  MacoSystem machine end to end; independent GEMMs,\n"
      "            each dimension <= %llu\n",
      static_cast<unsigned long long>(maco::core::kDetailedMaxDim));
  std::printf(
      "  sampled   stratified tile sampling on the detailed machine; any\n"
      "            shape, cooperative + multi-layer, error bars = 1.96 SE\n"
      "            + %.0f%% model margin (see src/sampling/estimator.hpp)\n",
      100.0 * maco::sampling::kModelMarginFrac);
  std::puts("");
}

}  // namespace

int main() {
  table1_cpu_parameters();
  table2_mpais_instructions();
  table3_mtq_entry();
  appendix_sweepable_knobs();
  appendix_fidelity_ladder();
  return 0;
}
