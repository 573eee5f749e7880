#include "os/scheduler.hpp"

#include "util/assert.hpp"

namespace maco::os {

Scheduler::Scheduler(core::MacoSystem& system, const Options& options)
    : system_(system), options_(options), pager_(system) {
  MACO_ASSERT(options.nodes >= 1 && options.nodes <= system.node_count());
  MACO_ASSERT(options.slice_tasks >= 1);
  in_flight_.resize(options.nodes);
  rr_cursor_.assign(options.nodes, 0);
}

Job& Scheduler::add_job(core::Process& process) {
  Job job;
  job.id = static_cast<int>(jobs_.size());
  job.process = &process;
  jobs_.push_back(std::move(job));
  return jobs_.back();
}

bool Scheduler::dispatch_slice(unsigned node, Job& job) {
  cpu::CpuCore& cpu = system_.node(node).cpu();
  unsigned dispatched = 0;
  for (std::size_t t = 0;
       t < job.tasks.size() && dispatched < options_.slice_tasks; ++t) {
    GemmTask& task = job.tasks[t];
    if (task.done || task.failed || task.dispatches > 0) continue;

    if (dispatched == 0) {
      // Context switch before the job's first dispatch (a job with no
      // eligible task costs none): install its address space on this
      // node. MTQ/STQ entries of other processes are untouched (Section
      // III.C).
      system_.schedule_process(node, *job.process);
      ++stats_.context_switches;
    }
    cpu.regs().write_param_block(10, task.params.pack());
    cpu.execute_source("ma_cfg x5, x10");
    const std::uint64_t maid = cpu.regs().read(5);
    if (maid == cpu::kMaidAllocFailed) {
      // MTQ full: back off; completions will free entries next harvest.
      ++stats_.mtq_full_backoffs;
      break;
    }
    ++task.dispatches;
    in_flight_[node].push_back(
        InFlight{static_cast<cpu::Maid>(maid), job.id, t});
    ++dispatched;
  }
  return dispatched > 0;
}

void Scheduler::harvest(unsigned node) {
  cpu::CpuCore& cpu = system_.node(node).cpu();
  std::vector<InFlight> still_running;
  for (const InFlight& flight : in_flight_[node]) {
    const cpu::MtqEntry& entry = cpu.mtq().entry(flight.maid);
    Job& job = jobs_[static_cast<std::size_t>(flight.job)];
    GemmTask& task = job.tasks[flight.task];

    if (!entry.done) {  // still executing; keep it
      still_running.push_back(flight);
      continue;
    }

    if (!entry.exception_en) {
      task.done = true;
      ++stats_.tasks_completed;
    } else if (entry.exception_type == cpu::ExceptionType::kPageFault &&
               options_.demand_paging) {
      // OS fault handler: map the missing pages, clear the entry, and mark
      // the task for re-dispatch on a later slice.
      const RepairReport report =
          pager_.repair_gemm(*job.process, task.params);
      stats_.pages_mapped += report.pages_mapped;
      ++stats_.faults_repaired;
      task.dispatches = 0;  // eligible again
      cpu.regs().write(9, flight.maid);
      cpu.execute_source("ma_clear x9");
      continue;
    } else {
      task.failed = true;
      ++stats_.tasks_failed;
    }
    // Release the MTQ entry (MA_STATE: query + release).
    cpu.regs().write(9, flight.maid);
    cpu.execute_source("ma_state x8, x9");
  }
  in_flight_[node] = std::move(still_running);
}

SchedulerStats Scheduler::run_all() {
  stats_ = SchedulerStats{};
  for (unsigned round = 0; round < options_.max_rounds; ++round) {
    ++stats_.scheduling_rounds;

    bool all_finished = true;
    for (const Job& job : jobs_) all_finished &= job.finished();
    if (all_finished) break;

    // Each node picks the next unfinished job round-robin and dispatches a
    // slice; different nodes advance independent cursors so jobs spread.
    for (unsigned node = 0; node < options_.nodes; ++node) {
      for (std::size_t probe = 0; probe < jobs_.size(); ++probe) {
        Job& job = jobs_[(rr_cursor_[node] + probe) % jobs_.size()];
        const bool advanced = !job.finished() && dispatch_slice(node, job);
        if (advanced) {
          rr_cursor_[node] =
              (rr_cursor_[node] + probe + 1) % jobs_.size();
          break;
        }
      }
    }

    // Let the MMAEs drain, then collect completions/faults everywhere.
    system_.run();
    for (unsigned node = 0; node < options_.nodes; ++node) harvest(node);
  }
  return stats_;
}

}  // namespace maco::os
