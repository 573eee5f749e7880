// OS layer: round-robin multi-process scheduling and demand paging over
// the detailed MacoSystem.
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
                          util::Rng& rng, std::uint64_t dim,
                          bool lazy_c = false) {
  PreparedGemm prepared;
  prepared.a = sa::HostMatrix::random(dim, dim, rng);
  prepared.b = sa::HostMatrix::random(dim, dim, rng);
  const auto a_desc = system.alloc_matrix(process, dim, dim);
  const auto b_desc = system.alloc_matrix(process, dim, dim);
  prepared.c_desc = lazy_c ? system.alloc_matrix_lazy(process, dim, dim)
                           : system.alloc_matrix(process, dim, dim);
  system.write_matrix(process, a_desc, prepared.a);
  system.write_matrix(process, b_desc, prepared.b);
  if (!lazy_c) {
    system.write_matrix(process, prepared.c_desc, sa::HostMatrix(dim, dim));
  }
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
  EXPECT_EQ(stats.faults_repaired, 0u);
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

TEST(Scheduler, DemandPagingRepairsLazyOutput) {
  core::MacoSystem system(config_with(1));
  util::Rng rng(67);
  core::Process& process = system.create_process();

  Scheduler::Options options;
  options.nodes = 1;
  Scheduler scheduler(system, options);
  Job& job = scheduler.add_job(process);

  const PreparedGemm prepared =
      prepare_gemm(system, process, rng, 64, /*lazy_c=*/true);
  job.tasks.push_back(GemmTask{prepared.params});

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_EQ(stats.faults_repaired, 1u);
  // 64x64 FP64 = 32 KiB = 8 pages mapped on demand.
  EXPECT_EQ(stats.pages_mapped, 8u);
  EXPECT_EQ(job.tasks[0].dispatches, 1u);  // reset + re-dispatched once

  // calloc semantics: the demand-mapped C started as zeros, so C = A*B.
  expect_correct(system, process, prepared);
}

TEST(Scheduler, RepairedAccumulateTaskIsNumericallyCorrect) {
  // The fault strikes on the first C read — before any partial write — so
  // the retried accumulate task produces exactly one A*B contribution.
  core::MacoSystem system(config_with(1));
  util::Rng rng(71);
  core::Process& process = system.create_process();

  Scheduler scheduler(system, Scheduler::Options{});
  Job& job = scheduler.add_job(process);
  const PreparedGemm prepared =
      prepare_gemm(system, process, rng, 96, /*lazy_c=*/true);
  isa::GemmParams accumulate = prepared.params;
  accumulate.accumulate = true;
  job.tasks.push_back(GemmTask{accumulate});

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_EQ(stats.faults_repaired, 1u);
  expect_correct(system, process, prepared);
}

TEST(Scheduler, WithoutDemandPagingFaultsFailPermanently) {
  core::MacoSystem system(config_with(1));
  util::Rng rng(73);
  core::Process& process = system.create_process();

  Scheduler::Options options;
  options.demand_paging = false;
  Scheduler scheduler(system, options);
  Job& job = scheduler.add_job(process);

  const PreparedGemm lazy =
      prepare_gemm(system, process, rng, 64, /*lazy_c=*/true);
  const PreparedGemm good = prepare_gemm(system, process, rng, 64);
  job.tasks.push_back(GemmTask{lazy.params});
  job.tasks.push_back(GemmTask{good.params});

  const SchedulerStats stats = scheduler.run_all();
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_TRUE(job.tasks[0].failed);
  EXPECT_TRUE(job.tasks[1].done);
  expect_correct(system, process, good);
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

TEST(DemandPagerUnit, MapRangeCountsNewPagesOnly) {
  core::MacoSystem system(config_with(1));
  core::Process& process = system.create_process();
  DemandPager pager(system);

  const auto lazy = system.alloc_matrix_lazy(process, 64, 64);  // 8 pages
  EXPECT_EQ(pager.map_range(process, lazy.base, 64 * 64 * 8), 8u);
  // Second pass: everything already mapped.
  EXPECT_EQ(pager.map_range(process, lazy.base, 64 * 64 * 8), 0u);
  // Partial overlap: only the tail pages are new.
  const auto lazy2 = system.alloc_matrix_lazy(process, 64, 64);
  EXPECT_EQ(pager.map_range(process, lazy2.base, 2 * vm::kPageSize), 2u);
  EXPECT_EQ(pager.map_range(process, lazy2.base, 4 * vm::kPageSize), 2u);
}

}  // namespace
}  // namespace maco::os
