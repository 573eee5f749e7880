// Multi-process management and exception handling (paper Section III.C).
//
// Walks the Fig. 3 MTQ state machine on live hardware state:
//   1. process A dispatches a GEMM and the OS immediately switches the node
//      to process B — A's MTQ entry keeps recording its task,
//   2. process B dispatches its own task into a second MTQ entry,
//   3. A's completion is queried with MA_READ (non-destructive) and then
//      MA_STATE (releases the entry),
//   4. a task with an unmapped operand raises a page-fault exception that
//      is recorded in the entry and cleared with MA_CLEAR.
// Exits non-zero when a step goes wrong: a task not done after the drain,
// a C that differs from the host A·B, no page fault, or an MTQ entry
// still held after MA_CLEAR.
#include <cstdio>

#include "core/maco_system.hpp"
#include "isa/assembler.hpp"
#include "sa/host_matrix.hpp"
#include "util/rng.hpp"

namespace {

maco::isa::GemmParams make_gemm(const maco::vm::MatrixDesc& a,
                                const maco::vm::MatrixDesc& b,
                                const maco::vm::MatrixDesc& c) {
  maco::isa::GemmParams params;
  params.a_base = a.base;
  params.b_base = b.base;
  params.c_base = c.base;
  params.m = static_cast<std::uint32_t>(a.rows);
  params.k = static_cast<std::uint32_t>(a.cols);
  params.n = static_cast<std::uint32_t>(b.cols);
  return params;
}

// One process's GEMM: its operands on the host and C in simulated memory.
struct Gemm {
  maco::isa::GemmParams params;
  maco::sa::HostMatrix a;
  maco::sa::HostMatrix b;
  maco::vm::MatrixDesc c;
};

void print_entry(const char* tag, const maco::cpu::MtqEntry& entry) {
  std::printf("  %-28s valid=%d done=%d asid=%s%u exc=%s\n", tag, entry.valid,
              entry.done, entry.asid_valid ? "" : "NULL/",
              static_cast<unsigned>(entry.asid),
              maco::cpu::exception_type_name(entry.exception_type));
}

}  // namespace

int main() {
  using namespace maco;

  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 1;
  core::MacoSystem system(config);
  cpu::CpuCore& cpu = system.node(0).cpu();
  util::Rng rng(7);

  core::Process& pa = system.create_process();
  core::Process& pb = system.create_process();

  const auto prepare = [&](core::Process& p) {
    const auto a = system.alloc_matrix(p, 96, 96);
    const auto b = system.alloc_matrix(p, 96, 96);
    const auto c = system.alloc_matrix(p, 96, 96);
    Gemm gemm{make_gemm(a, b, c), sa::HostMatrix::random(96, 96, rng),
              sa::HostMatrix::random(96, 96, rng), c};
    system.write_matrix(p, a, gemm.a);
    system.write_matrix(p, b, gemm.b);
    system.write_matrix(p, c, sa::HostMatrix(96, 96));
    return gemm;
  };
  bool ok = true;
  const auto require = [&](bool holds, const char* what) {
    if (!holds) std::fprintf(stderr, "FAILED: %s\n", what);
    ok = ok && holds;
  };

  // -- 1: process A dispatches, then the OS switches to B mid-flight. --
  std::puts("== process switch while a GEMM is in flight (Fig. 3, state 3) ==");
  const auto gemm_a = prepare(pa);
  const auto gemm_b = prepare(pb);

  system.schedule_process(0, pa);
  cpu.regs().write_param_block(10, gemm_a.params.pack());
  cpu.execute_source("ma_cfg x5, x10");
  const auto maid_a = static_cast<cpu::Maid>(cpu.regs().read(5));
  print_entry("A dispatched:", cpu.mtq().entry(maid_a));

  system.schedule_process(0, pb);  // context switch: MTQ/STQ are unaffected
  cpu.regs().write_param_block(10, gemm_b.params.pack());
  cpu.execute_source("ma_cfg x6, x10");
  const auto maid_b = static_cast<cpu::Maid>(cpu.regs().read(6));
  print_entry("B dispatched (A in flight):", cpu.mtq().entry(maid_b));

  system.run();
  print_entry("A after drain:", cpu.mtq().entry(maid_a));
  print_entry("B after drain:", cpu.mtq().entry(maid_b));
  require(cpu.mtq().entry(maid_a).done && cpu.mtq().entry(maid_b).done,
          "A and B are done after the drain");

  // -- 2: query A non-destructively, then release both entries. --
  std::puts("\n== MA_READ (query) vs MA_STATE (query + release) ==");
  cpu.execute_source("ma_read x7, x5");
  std::printf("  MA_READ  -> 0x%llx, occupancy %u (entry kept)\n",
              static_cast<unsigned long long>(cpu.regs().read(7)),
              cpu.mtq().occupied());
  cpu.execute_source("ma_state x7, x5\n"
                     "ma_state x8, x6");
  std::printf("  MA_STATE -> 0x%llx, occupancy %u (entries released)\n",
              static_cast<unsigned long long>(cpu.regs().read(7)),
              cpu.mtq().occupied());

  // -- 3: a faulting task (unmapped operand) and MA_CLEAR recovery. --
  std::puts(
      "\n== exception path: unmapped operand -> page fault -> MA_CLEAR ==");
  system.schedule_process(0, pb);
  isa::GemmParams bad = gemm_b.params;
  bad.a_base = 0xdead0000;  // never mapped in B's address space
  cpu.regs().write_param_block(10, bad.pack());
  cpu.execute_source("ma_cfg x5, x10");
  system.run();
  const auto maid_bad = static_cast<cpu::Maid>(cpu.regs().read(5));
  print_entry("faulting task:", cpu.mtq().entry(maid_bad));
  require(cpu.mtq().entry(maid_bad).exception_type ==
              cpu::ExceptionType::kPageFault,
          "the unmapped operand raises a page fault");

  cpu.execute_source("ma_clear x5");
  print_entry("after MA_CLEAR:", cpu.mtq().entry(maid_bad));
  std::printf("  occupancy %u\n", cpu.mtq().occupied());
  require(cpu.mtq().occupied() == 0, "MA_CLEAR releases the entry");

  const auto product_matches = [&](core::Process& p, const Gemm& gemm) {
    sa::HostMatrix expected(96, 96);
    sa::reference_gemm(gemm.a, gemm.b, expected);
    return system.read_matrix(p, gemm.c).approx_equal(expected);
  };
  require(product_matches(pa, gemm_a) && product_matches(pb, gemm_b),
          "each process's C equals the host A·B");
  return ok ? 0 : 1;
}
