#include "mmae/accelerator_controller.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "sa/latency_model.hpp"
#include "util/assert.hpp"

namespace maco::mmae {

namespace {

Region2D tile_region(const vm::MatrixDesc& m, const vm::TileDesc& t) {
  vm::validate_tile(m, t);
  return Region2D{m.element_addr(t.row0, t.col0), t.rows,
                  t.cols * m.elem_bytes, m.stride()};
}

}  // namespace

AcceleratorController::AcceleratorController(sim::SimEngine& engine, int node,
                                             const MmaeConfig& config,
                                             MemoryBackend& backend,
                                             cpu::CpuCore& cpu,
                                             PageTableLookup page_tables)
    : engine_(engine), config_(config), stq_(config.stq_entries),
      backend_(backend),
      dma0_("node" + std::to_string(node) + ".mmae.dma0", node, config.dma,
            backend),
      dma1_("node" + std::to_string(node) + ".mmae.dma1", node, config.dma,
            backend),
      matlb_("node" + std::to_string(node) + ".mmae.matlb",
             config.matlb_entries),
      cpu_(cpu), page_tables_(std::move(page_tables)) {}

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
  ctx.table = page_tables_(entry.asid);
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

  TaskReport report = entry.op == isa::Mnemonic::kMaCfg
                           ? execute_gemm(entry, start)
                           : execute_region(entry, start);
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
    task_running_ = false;
    try_start_next();
  });
}

DmaResult AcceleratorController::load_tile(const vm::MatrixDesc& m,
                                           const vm::TileDesc& t,
                                           sa::HostMatrix& out,
                                           const TranslationContext& ctx,
                                           sim::TimePs start) {
  const Region2D region = tile_region(m, t);
  out = sa::HostMatrix(t.rows, t.cols);
  const std::span bytes(reinterpret_cast<std::uint8_t*>(out.row_ptr(0)),
                        region.total_bytes());
  return dma0_.read_region(region, bytes, ctx, start);
}

DmaResult AcceleratorController::store_tile(const vm::MatrixDesc& m,
                                            const vm::TileDesc& t,
                                            const sa::HostMatrix& in,
                                            const TranslationContext& ctx,
                                            sim::TimePs start) {
  MACO_ASSERT(in.rows() == t.rows && in.cols() == t.cols);
  const Region2D region = tile_region(m, t);
  const std::span bytes(reinterpret_cast<const std::uint8_t*>(in.row_ptr(0)),
                        region.total_bytes());
  return dma1_.write_region(region, bytes, ctx, start);
}

TaskReport AcceleratorController::execute_gemm(const StqEntry& entry,
                                               sim::TimePs start) {
  const auto& p = std::get<isa::GemmParams>(entry.params);
  TaskReport report{
      .maid = entry.maid, .op = entry.op, .start = start, .end = start};

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
  // The K chunk is the inner tile's column count, so a task programmed
  // with ttr = ttc = inner (as the detailed runners do) works on inner³
  // blocks, as the analytic model tiles. 64 matches the paper's
  // <ttr,ttc> = <64,64> buffers (a 64×64 FP64 tile fills one 32 KiB bank).
  const std::uint64_t ttk = ttc;
  if (ttr == 0 || ttc == 0) return fail(cpu::ExceptionType::kInvalidConfig);
  // Inner tiles must fit one buffer bank (double buffering uses the other).
  const std::uint64_t elem = sizeof(double);
  if (std::max({ttr * ttk, ttk * ttc, ttr * ttc}) * elem > kBufferBankBytes) {
    return fail(cpu::ExceptionType::kBufferOverflow);
  }

  TranslationContext ctx = context_for(entry);
  if (ctx.table == nullptr) return fail(cpu::ExceptionType::kPageFault);

  // Functional matrices are FP64-backed; the precision mode drives SIMD
  // timing (see sa/host_matrix.hpp).
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
                load_tile(c_desc, c_t, c_tile, ctx, dma_t);
            if (c_load.fault) return fail(cpu::ExceptionType::kPageFault);
            report.add(c_load);
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
                load_tile(a_desc, a_t, a_tile, ctx, dma_t);
            if (a_load.fault) return fail(cpu::ExceptionType::kPageFault);
            const DmaResult b_load =
                load_tile(b_desc, b_t, b_tile, ctx, a_load.end_time);
            if (b_load.fault) return fail(cpu::ExceptionType::kPageFault);
            report.add(a_load);
            report.add(b_load);
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
              store_tile(c_desc, c_t, c_tile, ctx, sa_free);
          if (c_store.fault) return fail(cpu::ExceptionType::kPageFault);
          report.add(c_store);
          last_end = std::max(last_end, c_store.end_time);
        }
      }
    }
  }

  report.end = std::max(sa_free, last_end);
  return report;
}

TaskReport AcceleratorController::execute_region(const StqEntry& entry,
                                                 sim::TimePs start) {
  TaskReport report{.maid = entry.maid, .op = entry.op, .start = start};
  // The region the op streams; MA_MOVE's is its source, and its
  // destination has the same shape.
  Region2D region;
  switch (entry.op) {
    case isa::Mnemonic::kMaMove: {
      const auto& p = std::get<isa::MoveParams>(entry.params);
      region = {p.src, p.rows, p.row_bytes, p.src_stride};
      break;
    }
    case isa::Mnemonic::kMaInit: {
      const auto& p = std::get<isa::InitParams>(entry.params);
      region = {p.dst, p.rows, p.row_bytes, p.stride};
      break;
    }
    case isa::Mnemonic::kMaStash: {
      const auto& p = std::get<isa::StashParams>(entry.params);
      region = {p.base, p.rows, p.row_bytes, p.stride};
      break;
    }
    default:
      MACO_UNREACHABLE("not a region op");
  }

  const TranslationContext ctx = context_for(entry);
  if (ctx.table == nullptr || region.row_bytes == 0) {
    report.exception = ctx.table == nullptr
                           ? cpu::ExceptionType::kPageFault
                           : cpu::ExceptionType::kInvalidConfig;
    report.end = start + cycles_to_ps(16);
    return report;
  }

  DmaResult result;
  if (const auto* move = std::get_if<isa::MoveParams>(&entry.params)) {
    // A DMA0 read into the staging buffer, then a DMA1 write from it.
    staging_.resize(region.total_bytes());
    result = dma0_.read_region(region, staging_, ctx, start);
    if (!result.fault) {
      report.add(result);
      const Region2D dst{move->dst, move->rows, move->row_bytes,
                         move->dst_stride};
      result = dma1_.write_region(dst, staging_, ctx, result.end_time);
    }
  } else if (const auto* init = std::get_if<isa::InitParams>(&entry.params)) {
    result = dma1_.init_region(region, init->pattern, ctx, start);
  } else {
    const bool lock = std::get<isa::StashParams>(entry.params).lock;
    result = dma0_.stash_region(region, lock, ctx, start);
  }
  report.add(result);
  report.exception =
      result.fault ? cpu::ExceptionType::kPageFault : cpu::ExceptionType::kNone;
  report.end = result.end_time;
  return report;
}

}  // namespace maco::mmae
