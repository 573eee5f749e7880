#include "mmae/accelerator_controller.hpp"

#include <algorithm>

#include "sa/latency_model.hpp"
#include "util/assert.hpp"

namespace maco::mmae {

AcceleratorController::AcceleratorController(sim::SimEngine& engine, int node,
                                             const MmaeConfig& config,
                                             MemoryBackend& backend,
                                             cpu::CpuCore& cpu)
    : engine_(engine), config_(config), node_(node),
      stq_(config.stq_entries), backend_(backend),
      ade_("node" + std::to_string(node) + ".mmae.ade", node, config.dma,
           backend),
      matlb_("node" + std::to_string(node) + ".mmae.matlb",
             config.matlb_entries),
      cpu_(cpu) {
  // Default single-process lookup: the CPU's current context.
  table_lookup_ = [this](vm::Asid asid) -> const vm::PageTable* {
    return asid == cpu_.current_asid() ? cpu_.current_table() : nullptr;
  };
}

bool AcceleratorController::submit(cpu::Maid maid, isa::Mnemonic op,
                                   const isa::ParamBlock& params,
                                   vm::Asid asid) {
  if (!stq_.push(maid, op, params, asid)) return false;
  try_start_next();
  return true;
}

TranslationContext AcceleratorController::context_for(const StqEntry& entry) {
  TranslationContext ctx;
  ctx.asid = entry.asid;
  ctx.table = table_lookup_ ? table_lookup_(entry.asid) : nullptr;
  ctx.mmu = &cpu_.mmu();
  ctx.matlb = config_.use_matlb ? &matlb_ : nullptr;
  return ctx;
}

void AcceleratorController::try_start_next() {
  if (task_running_) return;
  const auto next = stq_.next_pending();
  if (!next) return;

  task_running_ = true;
  stq_.mark_running(*next);
  const StqEntry entry = stq_.entry(*next);  // copy: entry survives release
  const sim::TimePs start = std::max(engine_.now(), busy_until_);

  TaskReport report = execute_task(entry, start);
  busy_until_ = report.end;
  reports_.push_back(report);

  const unsigned index = *next;
  engine_.schedule_at(report.end, [this, index, report] {
    stq_.complete(index, report.exception);
    // Report status to the matching MTQ entry (paper: STQ "responds the
    // status of the GEMM task to the corresponding MTQ entry").
    if (report.exception == cpu::ExceptionType::kNone) {
      cpu_.mtq().mark_done(report.maid);
    } else {
      cpu_.mtq().mark_exception(report.maid, report.exception);
    }
    stq_.release(index);
    if (on_complete_) on_complete_(report.maid, report.exception, report.end);
    task_running_ = false;
    try_start_next();
  });
}

TaskReport AcceleratorController::execute_task(const StqEntry& entry,
                                               sim::TimePs start) {
  switch (entry.op) {
    case isa::Mnemonic::kMaCfg:
      return execute_gemm(entry, std::get<isa::GemmParams>(entry.params),
                          start);
    case isa::Mnemonic::kMaMove:
      return execute_move(entry, std::get<isa::MoveParams>(entry.params),
                          start);
    case isa::Mnemonic::kMaInit:
      return execute_init(entry, std::get<isa::InitParams>(entry.params),
                          start);
    case isa::Mnemonic::kMaStash:
      return execute_stash(entry, std::get<isa::StashParams>(entry.params),
                           start);
    default:
      MACO_UNREACHABLE("non-task mnemonic in STQ");
  }
}

TaskReport AcceleratorController::execute_gemm(const StqEntry& entry,
                                               const isa::GemmParams& p,
                                               sim::TimePs start) {
  TaskReport report;
  report.maid = entry.maid;
  report.op = entry.op;
  report.start = start;
  report.end = start;

  auto fail = [&](cpu::ExceptionType type) {
    report.exception = type;
    report.end = start + cycles_to_ps(16);  // config decode + abort
    return report;
  };

  if (p.m == 0 || p.n == 0 || p.k == 0) {
    return fail(cpu::ExceptionType::kInvalidConfig);
  }
  const std::uint64_t ttr = p.inner_tile_rows;
  const std::uint64_t ttc = p.inner_tile_cols;
  const std::uint64_t ttk = config_.inner_k;
  if (ttr == 0 || ttc == 0) return fail(cpu::ExceptionType::kInvalidConfig);
  // Inner tiles must fit one buffer bank (double buffering uses the other).
  const std::uint64_t elem = sizeof(double);
  if (!ade_.buffers().a.tile_fits(ttr * ttk * elem) ||
      !ade_.buffers().b.tile_fits(ttk * ttc * elem) ||
      !ade_.buffers().c.tile_fits(ttr * ttc * elem)) {
    return fail(cpu::ExceptionType::kBufferOverflow);
  }

  TranslationContext ctx = context_for(entry);
  if (ctx.table == nullptr) return fail(cpu::ExceptionType::kPageFault);

  // Functional matrices are FP64-backed; the precision mode drives SIMD
  // timing (see DESIGN.md).
  const vm::MatrixDesc a_desc{p.a_base, p.m, p.k, elem, 0};
  const vm::MatrixDesc b_desc{p.b_base, p.k, p.n, elem, 0};
  const vm::MatrixDesc c_desc{p.c_base, p.m, p.n, elem, 0};

  sa::SaConfig sa_config = config_.sa;
  sa_config.precision = p.precision;
  sa::SystolicArray array(sa_config);
  const bool values = backend_.carries_values();

  sim::TimePs sa_free = start;
  sim::TimePs last_end = start;
  sim::TimePs prev_load_end = start;

  sa::HostMatrix a_tile, b_tile, c_tile;

  const std::uint64_t tr = std::min<std::uint64_t>(p.tile_rows, p.m);
  const std::uint64_t tc = std::min<std::uint64_t>(p.tile_cols, p.n);

  for (std::uint64_t m0 = 0; m0 < p.m; m0 += tr) {
    const std::uint64_t m1 = std::min<std::uint64_t>(m0 + tr, p.m);
    for (std::uint64_t n0 = 0; n0 < p.n; n0 += tc) {
      const std::uint64_t n1 = std::min<std::uint64_t>(n0 + tc, p.n);
      for (std::uint64_t mm = m0; mm < m1; mm += ttr) {
        const std::uint64_t mrows = std::min(ttr, m1 - mm);
        for (std::uint64_t nn = n0; nn < n1; nn += ttc) {
          const std::uint64_t ncols = std::min(ttc, n1 - nn);
          const vm::TileDesc c_t{mm, nn, mrows, ncols};

          // C tile: stream in for accumulation, or start from zero.
          sim::TimePs dma_t = prev_load_end;
          if (p.accumulate) {
            if (config_.use_matlb) {
              matlb_.prefill(entry.asid, *ctx.table, ctx.mmu->walker(),
                             c_desc, c_t, prev_load_end);
            }
            const DmaResult c_load =
                ade_.load_tile(c_desc, c_t, c_tile, ctx, dma_t);
            if (c_load.fault) return fail(cpu::ExceptionType::kPageFault);
            report.dma_bytes += c_load.bytes;
            report.translation_stall_ps += c_load.translation_stall_ps;
            report.matlb_hits += c_load.matlb_hits;
            report.blocking_walks += c_load.blocking_walks;
            dma_t = c_load.end_time;
          } else {
            c_tile = sa::HostMatrix(mrows, ncols);
          }

          for (std::uint64_t kk = 0; kk < p.k; kk += ttk) {
            const std::uint64_t kdepth = std::min(ttk, p.k - kk);
            const vm::TileDesc a_t{mm, kk, mrows, kdepth};
            const vm::TileDesc b_t{kk, nn, kdepth, ncols};

            // Predictive translation: walks for the upcoming tiles issue
            // from the moment the previous loads finished, overlapping the
            // array's compute (Fig. 4).
            if (config_.use_matlb) {
              matlb_.prefill(entry.asid, *ctx.table, ctx.mmu->walker(),
                             a_desc, a_t, prev_load_end);
              matlb_.prefill(entry.asid, *ctx.table, ctx.mmu->walker(),
                             b_desc, b_t, prev_load_end);
            }

            const DmaResult a_load =
                ade_.load_tile(a_desc, a_t, a_tile, ctx, dma_t);
            if (a_load.fault) return fail(cpu::ExceptionType::kPageFault);
            const DmaResult b_load =
                ade_.load_tile(b_desc, b_t, b_tile, ctx, a_load.end_time);
            if (b_load.fault) return fail(cpu::ExceptionType::kPageFault);

            for (const DmaResult* r : {&a_load, &b_load}) {
              report.dma_bytes += r->bytes;
              report.translation_stall_ps += r->translation_stall_ps;
              report.matlb_hits += r->matlb_hits;
              report.blocking_walks += r->blocking_walks;
            }
            prev_load_end = b_load.end_time;
            dma_t = b_load.end_time;

            // Systolic array pass: starts when operands are resident and
            // the array is free (double-buffered banks). Its length is the
            // closed form of the tile shape; the array computes C only
            // when there are values to compute on.
            const sa::TileShape shape{mrows, ncols, kdepth};
            const sim::TimePs pass_ps = cycles_to_ps(
                sa::compute_sa_timing(shape, sa_config).total_cycles);
            if (values) array.run(a_tile, b_tile, c_tile);
            const sim::TimePs sa_start = std::max(dma_t, sa_free);
            report.sa_busy_ps += pass_ps;
            report.macs += shape.macs();
            sa_free = sa_start + pass_ps;
            // The next inner tile's loads overlap this compute.
            dma_t = prev_load_end;
          }

          const DmaResult c_store =
              ade_.store_tile(c_desc, c_t, c_tile, ctx, sa_free);
          if (c_store.fault) return fail(cpu::ExceptionType::kPageFault);
          report.dma_bytes += c_store.bytes;
          report.translation_stall_ps += c_store.translation_stall_ps;
          last_end = std::max(last_end, c_store.end_time);
        }
      }
    }
  }

  report.end = std::max(sa_free, last_end);
  return report;
}

TaskReport AcceleratorController::execute_move(const StqEntry& entry,
                                               const isa::MoveParams& p,
                                               sim::TimePs start) {
  TaskReport report;
  report.maid = entry.maid;
  report.op = entry.op;
  report.start = start;
  TranslationContext ctx = context_for(entry);
  if (ctx.table == nullptr || p.row_bytes == 0) {
    report.exception = ctx.table == nullptr
                           ? cpu::ExceptionType::kPageFault
                           : cpu::ExceptionType::kInvalidConfig;
    report.end = start + cycles_to_ps(16);
    return report;
  }
  const Region2D src{p.src, p.rows, p.row_bytes, p.src_stride};
  const Region2D dst{p.dst, p.rows, p.row_bytes, p.dst_stride};
  const DmaResult result = ade_.move_region(src, dst, ctx, start);
  report.dma_bytes = result.bytes;
  report.translation_stall_ps = result.translation_stall_ps;
  report.matlb_hits = result.matlb_hits;
  report.blocking_walks = result.blocking_walks;
  report.exception =
      result.fault ? cpu::ExceptionType::kPageFault : cpu::ExceptionType::kNone;
  report.end = result.end_time;
  return report;
}

TaskReport AcceleratorController::execute_init(const StqEntry& entry,
                                               const isa::InitParams& p,
                                               sim::TimePs start) {
  TaskReport report;
  report.maid = entry.maid;
  report.op = entry.op;
  report.start = start;
  TranslationContext ctx = context_for(entry);
  if (ctx.table == nullptr || p.row_bytes == 0) {
    report.exception = ctx.table == nullptr
                           ? cpu::ExceptionType::kPageFault
                           : cpu::ExceptionType::kInvalidConfig;
    report.end = start + cycles_to_ps(16);
    return report;
  }
  const Region2D dst{p.dst, p.rows, p.row_bytes, p.stride};
  const DmaResult result = ade_.init_region(dst, p.pattern, ctx, start);
  report.dma_bytes = result.bytes;
  report.translation_stall_ps = result.translation_stall_ps;
  report.exception =
      result.fault ? cpu::ExceptionType::kPageFault : cpu::ExceptionType::kNone;
  report.end = result.end_time;
  return report;
}

TaskReport AcceleratorController::execute_stash(const StqEntry& entry,
                                                const isa::StashParams& p,
                                                sim::TimePs start) {
  TaskReport report;
  report.maid = entry.maid;
  report.op = entry.op;
  report.start = start;
  TranslationContext ctx = context_for(entry);
  if (ctx.table == nullptr || p.row_bytes == 0) {
    report.exception = ctx.table == nullptr
                           ? cpu::ExceptionType::kPageFault
                           : cpu::ExceptionType::kInvalidConfig;
    report.end = start + cycles_to_ps(16);
    return report;
  }
  const Region2D region{p.base, p.rows, p.row_bytes, p.stride};
  const DmaResult result = ade_.stash_region(region, p.lock, ctx, start);
  report.dma_bytes = result.bytes;
  report.translation_stall_ps = result.translation_stall_ps;
  report.exception =
      result.fault ? cpu::ExceptionType::kPageFault : cpu::ExceptionType::kNone;
  report.end = result.end_time;
  return report;
}

}  // namespace maco::mmae
