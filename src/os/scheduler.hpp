// A minimal operating-system layer over MacoSystem — the software the
// paper's "modified Linux" plays on the FPGA prototype.
//
// The scheduler owns a set of jobs (process + GEMM task list) and drives
// them round-robin over the chip's compute nodes, exercising exactly the
// multi-process machinery of Section III.C:
//   * context switches install a process's page table on a node while
//     earlier tasks from OTHER processes are still in flight — the MTQ/STQ
//     keep per-task state across switches (Fig. 3 state 3);
//   * completions are harvested with MA_STATE, aborted tasks with
//     MA_CLEAR;
//   * MTQ exhaustion (MA_CFG returning the failure sentinel) backs off and
//     retries after a drain;
//   * a task the MMAE aborted with an exception (a page fault: operand
//     pages are mapped when they are allocated and stay mapped, so a fault
//     is an addressing bug with nothing to repair) fails, and so does a
//     task still pending after max_rounds; both count in tasks_failed.
// A job stays on the node that took its first task. That node's STQ runs
// the tasks in issue order, so a job's tasks run one after another, as a
// program's dependent layers must.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/maco_system.hpp"

namespace maco::os {

struct GemmTask {
  isa::GemmParams params;
  bool done = false;        // completed without exception
  bool failed = false;      // raised an exception, or never finished
  bool dispatched = false;  // issued to an MTQ
};

struct Job {
  int id = 0;
  core::Process* process = nullptr;
  std::vector<GemmTask> tasks;
  int node = -1;  // the node that took the first task; -1 before

  bool finished() const noexcept {
    for (const auto& task : tasks) {
      if (!task.done && !task.failed) return false;
    }
    return true;
  }
};

struct SchedulerStats {
  std::uint64_t context_switches = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t mtq_full_backoffs = 0;
  std::uint64_t scheduling_rounds = 0;
};

class Scheduler {
 public:
  struct Options {
    unsigned nodes = 1;            // compute nodes the OS schedules on
    unsigned slice_tasks = 2;      // tasks dispatched per slice
    unsigned max_rounds = 10'000;  // runaway guard: fail what is left
  };

  Scheduler(core::MacoSystem& system, const Options& options);

  Job& add_job(core::Process& process);

  // Runs every job until each task is done or failed; returns stats.
  SchedulerStats run_all();

  // Deque: job references stay valid across add_job calls.
  const std::deque<Job>& jobs() const noexcept { return jobs_; }

 private:
  struct InFlight {
    cpu::Maid maid = 0;
    int job = 0;
    std::size_t task = 0;
  };

  // Dispatches up to slice_tasks of `job` on `node` (none when the job runs
  // on another node); true if any dispatched.
  bool dispatch_slice(unsigned node, Job& job);
  // Harvests every finished task on `node` and releases its MTQ entry.
  void harvest(unsigned node);

  core::MacoSystem& system_;
  Options options_;
  std::deque<Job> jobs_;
  std::vector<std::vector<InFlight>> in_flight_;  // per node
  std::vector<std::size_t> rr_cursor_;            // per node: next job index
  SchedulerStats stats_;
};

}  // namespace maco::os
