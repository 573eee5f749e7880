#include "os/scheduler.hpp"

#include "util/assert.hpp"

namespace maco::os {

Scheduler::Scheduler(core::MacoSystem& system, const Options& options)
    : system_(system), options_(options) {
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
  if (job.node >= 0 && job.node != static_cast<int>(node)) return false;
  cpu::CpuCore& cpu = system_.node(node).cpu();
  unsigned dispatched = 0;
  for (std::size_t t = 0;
       t < job.tasks.size() && dispatched < options_.slice_tasks; ++t) {
    GemmTask& task = job.tasks[t];
    if (task.done || task.failed || task.dispatched) continue;

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
    task.dispatched = true;
    job.node = static_cast<int>(node);
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

    // Release the MTQ entry. MA_STATE frees a completed task's; the entry
    // of a task the MMAE aborted stays held until MA_CLEAR (Fig. 3 state
    // 4).
    const bool aborted = entry.exception_en;
    if (aborted) {
      task.failed = true;
      ++stats_.tasks_failed;
    } else {
      task.done = true;
      ++stats_.tasks_completed;
    }
    cpu.regs().write(9, flight.maid);
    cpu.execute_source(aborted ? "ma_clear x9" : "ma_state x8, x9");
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

  // Runaway guard: a task still pending after max_rounds fails, so the
  // caller sees an error instead of a job that silently never finished.
  for (Job& job : jobs_) {
    for (GemmTask& task : job.tasks) {
      if (task.done || task.failed) continue;
      task.failed = true;
      ++stats_.tasks_failed;
    }
  }
  return stats_;
}

}  // namespace maco::os
