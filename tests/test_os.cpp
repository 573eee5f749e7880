// OS layer: round-robin multi-process scheduling over the detailed
// MacoSystem, and how it fails a task the MMAE aborts.
#include <gtest/gtest.h>

#include "os/scheduler.hpp"
#include "util/rng.hpp"

namespace maco::os {
namespace {

core::SystemConfig config_with(unsigned nodes) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = nodes;
  return config;
}

struct PreparedGemm {
  isa::GemmParams params;
  sa::HostMatrix a, b;
  vm::MatrixDesc c_desc;
};

PreparedGemm prepare_gemm(core::MacoSystem& system, core::Process& process,
                          util::Rng& rng, std::uint64_t dim) {
  PreparedGemm prepared;
  prepared.a = sa::HostMatrix::random(dim, dim, rng);
  prepared.b = sa::HostMatrix::random(dim, dim, rng);
  const auto a_desc = system.alloc_matrix(process, dim, dim);
  const auto b_desc = system.alloc_matrix(process, dim, dim);
  prepared.c_desc = system.alloc_matrix(process, dim, dim);
  system.write_matrix(process, a_desc, prepared.a);
  system.write_matrix(process, b_desc, prepared.b);
  system.write_matrix(process, prepared.c_desc, sa::HostMatrix(dim, dim));
  prepared.params.a_base = a_desc.base;
  prepared.params.b_base = b_desc.base;
  prepared.params.c_base = prepared.c_desc.base;
  prepared.params.m = static_cast<std::uint32_t>(dim);
  prepared.params.n = static_cast<std::uint32_t>(dim);
  prepared.params.k = static_cast<std::uint32_t>(dim);
  return prepared;
}

void expect_correct(core::MacoSystem& system, core::Process& process,
                    const PreparedGemm& prepared) {
  sa::HostMatrix expected(prepared.a.rows(), prepared.b.cols());
  sa::reference_gemm(prepared.a, prepared.b, expected);
  EXPECT_TRUE(system.read_matrix(process, prepared.c_desc)
                  .approx_equal(expected, 1e-9));
}

TEST(Scheduler, ThreeJobsTwoNodesAllComplete) {
  core::MacoSystem system(config_with(2));
  util::Rng rng(61);

  Scheduler::Options options;
  options.nodes = 2;
  options.slice_tasks = 2;
  Scheduler scheduler(system, options);

  std::vector<std::vector<PreparedGemm>> prepared(3);
  std::vector<core::Process*> processes;
  for (int j = 0; j < 3; ++j) {
    core::Process& process = system.create_process();
    processes.push_back(&process);
    Job& job = scheduler.add_job(process);
    for (int t = 0; t < 4; ++t) {
      prepared[j].push_back(prepare_gemm(system, process, rng, 64));
      job.tasks.push_back(GemmTask{prepared[j].back().params});
    }
  }

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 12u);
  EXPECT_EQ(stats.tasks_failed, 0u);
  // Round-robin across 3 jobs implies more switches than jobs.
  EXPECT_GT(stats.context_switches, 3u);

  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(scheduler.jobs()[j].finished());
    for (const auto& gemm : prepared[j]) {
      expect_correct(system, *processes[j], gemm);
    }
  }
}

TEST(Scheduler, OneContextSwitchPerDispatchingJob) {
  // N single-task jobs on N nodes: each node dispatches one job, and the
  // jobs it probes without an eligible task cost no context switch.
  for (const unsigned nodes : {1u, 4u, 16u}) {
    core::MacoSystem system(config_with(nodes));
    util::Rng rng(89);
    Scheduler::Options options;
    options.nodes = nodes;
    Scheduler scheduler(system, options);
    for (unsigned j = 0; j < nodes; ++j) {
      core::Process& process = system.create_process();
      scheduler.add_job(process).tasks.push_back(
          GemmTask{prepare_gemm(system, process, rng, 32).params});
    }
    const SchedulerStats stats = scheduler.run_all();
    EXPECT_EQ(stats.tasks_completed, nodes);
    EXPECT_EQ(stats.context_switches, nodes) << nodes << " nodes";
  }
}

TEST(Scheduler, JobRunsItsTasksInOrderOnOneNode) {
  // A job's tasks may depend on each other: all of them run on the node
  // that took the first, each after the previous one ended, even while a
  // second node idles.
  core::MacoSystem system(config_with(2));
  util::Rng rng(97);
  core::Process& process = system.create_process();
  Scheduler::Options options;
  options.nodes = 2;
  Scheduler scheduler(system, options);
  Job& job = scheduler.add_job(process);
  std::vector<PreparedGemm> prepared;
  for (int t = 0; t < 3; ++t) {
    prepared.push_back(prepare_gemm(system, process, rng, 32));
    job.tasks.push_back(GemmTask{prepared.back().params});
  }

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 3u);
  EXPECT_EQ(job.node, 0);
  EXPECT_TRUE(system.node(1).mmae().reports().empty());
  const auto& reports = system.node(0).mmae().reports();
  ASSERT_EQ(reports.size(), 3u);
  for (std::size_t t = 1; t < reports.size(); ++t) {
    EXPECT_GE(reports[t].start, reports[t - 1].end) << "task " << t;
  }
  for (const auto& gemm : prepared) expect_correct(system, process, gemm);
}

TEST(Scheduler, WithoutDemandPagingFaultsFailPermanently) {
  // Pages are mapped when allocated and never later, so a task whose C
  // lies outside every allocation fails on its one dispatch; the job's
  // next task still runs.
  core::MacoSystem system(config_with(1));
  util::Rng rng(73);
  core::Process& process = system.create_process();

  Scheduler scheduler(system, Scheduler::Options{});
  Job& job = scheduler.add_job(process);

  PreparedGemm unmapped = prepare_gemm(system, process, rng, 64);
  unmapped.params.c_base = 0x7f00'0000'0000ull;  // never allocated
  const PreparedGemm good = prepare_gemm(system, process, rng, 64);
  job.tasks.push_back(GemmTask{unmapped.params});
  job.tasks.push_back(GemmTask{good.params});

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_TRUE(job.tasks[0].failed);
  EXPECT_TRUE(job.tasks[1].done);
  EXPECT_EQ(system.node(0).cpu().mtq().occupied(), 0u);
  expect_correct(system, process, good);
}

TEST(Scheduler, TasksLeftAfterMaxRoundsFail) {
  // The runaway guard ends the run with the undispatched task failed, so
  // a caller checking tasks_failed sees the job did not finish.
  core::MacoSystem system(config_with(1));
  util::Rng rng(101);
  core::Process& process = system.create_process();

  Scheduler::Options options;
  options.max_rounds = 1;  // one slice of two tasks
  Scheduler scheduler(system, options);
  Job& job = scheduler.add_job(process);
  for (int t = 0; t < 3; ++t) {
    job.tasks.push_back(
        GemmTask{prepare_gemm(system, process, rng, 32).params});
  }

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 2u);
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_TRUE(job.tasks[2].failed);
  EXPECT_FALSE(job.tasks[2].dispatched);
  EXPECT_TRUE(job.finished());
}

TEST(Scheduler, MoreTasksThanMtqEntriesBacksOffAndFinishes) {
  core::MacoSystem system(config_with(1));
  util::Rng rng(79);
  core::Process& process = system.create_process();

  Scheduler::Options options;
  options.slice_tasks = 32;  // try to dispatch far beyond the 8-entry MTQ
  Scheduler scheduler(system, options);
  Job& job = scheduler.add_job(process);

  std::vector<PreparedGemm> prepared;
  for (int t = 0; t < 12; ++t) {
    prepared.push_back(prepare_gemm(system, process, rng, 32));
    job.tasks.push_back(GemmTask{prepared.back().params});
  }
  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 12u);
  EXPECT_GT(stats.mtq_full_backoffs, 0u);
  for (const auto& gemm : prepared) expect_correct(system, process, gemm);
}

TEST(Scheduler, JobsShareOneNodeWithInterleavedAsids) {
  // Two single-task... rather: two jobs alternating slices on one node;
  // both complete and their MTQ entries carried the right ASIDs while the
  // other process owned the CPU (Fig. 3 state 3 at OS scale).
  core::MacoSystem system(config_with(1));
  util::Rng rng(83);
  core::Process& pa = system.create_process();
  core::Process& pb = system.create_process();

  Scheduler::Options options;
  options.slice_tasks = 1;
  Scheduler scheduler(system, options);
  Job& ja = scheduler.add_job(pa);
  Job& jb = scheduler.add_job(pb);

  std::vector<PreparedGemm> pa_gemms, pb_gemms;
  for (int t = 0; t < 3; ++t) {
    pa_gemms.push_back(prepare_gemm(system, pa, rng, 48));
    ja.tasks.push_back(GemmTask{pa_gemms.back().params});
    pb_gemms.push_back(prepare_gemm(system, pb, rng, 48));
    jb.tasks.push_back(GemmTask{pb_gemms.back().params});
  }

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 6u);
  EXPECT_GE(stats.context_switches, 6u);
  for (const auto& gemm : pa_gemms) expect_correct(system, pa, gemm);
  for (const auto& gemm : pb_gemms) expect_correct(system, pb, gemm);
}

}  // namespace
}  // namespace maco::os
