// Deterministic task runtime (omp/task.hpp) and the task-parallel
// workload family (nas MGT/CGT).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "repro/harness/scheduler.hpp"
#include "repro/nas/task_workloads.hpp"
#include "repro/omp/machine.hpp"
#include "repro/omp/task.hpp"
#include "repro/topology/topology.hpp"
#include "repro/trace/event.hpp"

namespace repro::omp {
namespace {

std::vector<NodeId> identity_nodes(std::size_t n) {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(NodeId(static_cast<std::uint32_t>(i)));
  }
  return nodes;
}

std::vector<TaskDesc> noop_tasks(std::size_t count, std::uint32_t home_mod,
                                 Ns estimate) {
  std::vector<TaskDesc> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    TaskDesc t;
    t.home = ThreadId(static_cast<std::uint32_t>(i) % home_mod);
    t.estimate = estimate;
    t.body = [](ThreadId, sim::RegionBuilder&) {};
    tasks.push_back(std::move(t));
  }
  return tasks;
}

bool every_task_exactly_once(const std::vector<TaskAssignment>& schedule,
                             std::size_t num_tasks) {
  std::set<std::uint32_t> seen;
  for (const TaskAssignment& a : schedule) {
    seen.insert(a.task);
  }
  return schedule.size() == num_tasks && seen.size() == num_tasks;
}

TEST(TaskScheduler, BalancedWaveRunsEveryTaskAtHomeWithoutStealing) {
  const topo::FatHypercube topology(16);
  const TaskScheduler scheduler(topology, identity_nodes(16), /*seed=*/1);
  const std::vector<TaskDesc> tasks = noop_tasks(64, 16, 100);
  const std::vector<TaskAssignment> schedule = scheduler.schedule(tasks);
  ASSERT_TRUE(every_task_exactly_once(schedule, tasks.size()));
  for (const TaskAssignment& a : schedule) {
    EXPECT_FALSE(a.stolen);
    EXPECT_EQ(a.executor, tasks[a.task].home);
    EXPECT_EQ(a.victim, tasks[a.task].home);
  }
}

TEST(TaskScheduler, ScheduleIsAPureFunctionOfItsInputs) {
  const topo::FatHypercube topology(16);
  // Imbalanced homes and unequal estimates so stealing happens and the
  // order is nontrivial.
  std::vector<TaskDesc> tasks = noop_tasks(48, 3, 1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].estimate = 50 + 37 * (i % 7);
  }
  const TaskScheduler first(topology, identity_nodes(16), /*seed=*/42);
  const TaskScheduler second(topology, identity_nodes(16), /*seed=*/42);
  const std::vector<TaskAssignment> a = first.schedule(tasks);
  const std::vector<TaskAssignment> b = first.schedule(tasks);
  const std::vector<TaskAssignment> c = second.schedule(tasks);
  ASSERT_TRUE(every_task_exactly_once(a, tasks.size()));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].executor, b[i].executor);
    EXPECT_EQ(a[i].stolen, b[i].stolen);
    EXPECT_EQ(a[i].task, c[i].task);
    EXPECT_EQ(a[i].executor, c[i].executor);
    EXPECT_EQ(a[i].victim, c[i].victim);
    EXPECT_EQ(a[i].steal_count, c[i].steal_count);
  }
}

TEST(TaskScheduler, SeedChangesVictimChoicesButNotCoverage) {
  const topo::FatHypercube topology(16);
  const std::vector<TaskDesc> tasks = noop_tasks(64, 1, 10);
  const TaskScheduler s1(topology, identity_nodes(16), /*seed=*/7);
  const TaskScheduler s2(topology, identity_nodes(16), /*seed=*/8);
  const std::vector<TaskAssignment> a = s1.schedule(tasks);
  const std::vector<TaskAssignment> b = s2.schedule(tasks);
  EXPECT_TRUE(every_task_exactly_once(a, tasks.size()));
  EXPECT_TRUE(every_task_exactly_once(b, tasks.size()));
}

TEST(TaskScheduler, ImbalanceTriggersStealingFromTheLoadedThread) {
  const topo::FatHypercube topology(16);
  const TaskScheduler scheduler(topology, identity_nodes(16), /*seed=*/5);
  // Everything spawned on thread 0: every other executor must steal,
  // and the only possible victim is thread 0.
  const std::vector<TaskDesc> tasks = noop_tasks(64, 1, 10);
  const std::vector<TaskAssignment> schedule = scheduler.schedule(tasks);
  ASSERT_TRUE(every_task_exactly_once(schedule, tasks.size()));
  std::set<std::uint32_t> executors;
  std::size_t steals = 0;
  for (const TaskAssignment& a : schedule) {
    executors.insert(a.executor.value());
    if (a.stolen) {
      ++steals;
      EXPECT_EQ(a.victim.value(), 0u);
      EXPECT_NE(a.executor.value(), 0u);
    }
  }
  EXPECT_GT(steals, 0u);
  EXPECT_GT(executors.size(), 1u) << "work never spread off thread 0";
}

TEST(TaskScheduler, VictimGroupsAreNearestInHierarchyFirst) {
  // hier:4x4 -> 16 leaves; threads 0..3 share the outer group.
  const topo::HierarchicalTopology topology(
      {topo::HierarchicalTopology::Level{4, 1},
       topo::HierarchicalTopology::Level{4, 1}});
  const TaskScheduler scheduler(topology, identity_nodes(16), /*seed=*/0);
  const auto& groups = scheduler.victim_groups(ThreadId(0));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::uint32_t>{1, 2, 3}));
  ASSERT_EQ(groups[1].size(), 12u);
  EXPECT_EQ(groups[1].front(), 4u);
  // LIFO pop for the owner, FIFO steal for thieves: with all tasks on
  // thread 0, thread 0's first executed task is the newest (last
  // spawned) and the first steal takes the oldest (task 0).
  const std::vector<TaskDesc> tasks = noop_tasks(32, 1, 10);
  const std::vector<TaskAssignment> schedule = scheduler.schedule(tasks);
  ASSERT_FALSE(schedule.empty());
  for (const TaskAssignment& a : schedule) {
    if (a.executor.value() == 0 && !a.stolen) {
      EXPECT_EQ(a.task, 31u) << "owner must pop its deque LIFO";
      break;
    }
  }
  for (const TaskAssignment& a : schedule) {
    if (a.stolen) {
      EXPECT_EQ(a.task, 0u) << "first steal must take the oldest task";
      break;
    }
  }
}

TEST(TaskRuntime, RunTasksExecutesThroughTheEngineAndTracesTheProtocol) {
  memsys::MachineConfig config;
  auto machine = Machine::create(config);
  machine->set_placement("ft");
  trace::TraceSink& sink = machine->enable_tracing();
  Runtime& rt = machine->runtime();
  const vm::PageRange data =
      machine->address_space().allocate_pages("task.data", 64);

  const TaskScheduler scheduler(machine->topology(),
                                identity_nodes(rt.num_threads()),
                                /*seed=*/3);
  std::vector<TaskDesc> tasks;
  for (std::uint32_t i = 0; i < 32; ++i) {
    TaskDesc t;
    t.home = ThreadId(0);  // imbalanced on purpose: forces steals
    t.estimate = 100;
    t.body = [data, i](ThreadId executor, sim::RegionBuilder& region) {
      region.access(executor, data.page(2 * i), 8, /*write=*/true);
      region.access(executor, data.page(2 * i + 1), 8, /*write=*/false);
    };
    tasks.push_back(std::move(t));
  }
  const Ns before = rt.now();
  const sim::RegionResult result = run_tasks(rt, scheduler, "wave", tasks);
  EXPECT_GT(result.end, before);
  EXPECT_GT(rt.now(), before);
  ASSERT_FALSE(rt.records().empty());
  EXPECT_EQ(rt.records().back().name, "wave");

  std::size_t spawns = 0;
  std::size_t steals = 0;
  sink.for_each_canonical([&](const trace::TraceEvent& ev) {
    spawns += ev.kind == trace::EventKind::kTaskSpawn ? 1 : 0;
    steals += ev.kind == trace::EventKind::kTaskSteal ? 1 : 0;
  });
  EXPECT_EQ(spawns, tasks.size());
  EXPECT_GT(steals, 0u);
}

TEST(TaskWorkloads, FactoryBuildsThemAndNamesStayOffTheGoldenGrid) {
  for (const std::string& name : nas::task_workload_names()) {
    const auto workload = nas::make_workload(name);
    ASSERT_NE(workload, nullptr);
    EXPECT_EQ(workload->name(), name);
    for (const std::string& golden : nas::workload_names()) {
      EXPECT_NE(golden, name)
          << "task workloads must not join the golden matrix";
    }
  }
}

TEST(TaskWorkloads, MgtAndCgtDigestsIdenticalAcrossJobsAndReruns) {
  std::vector<harness::RunConfig> configs;
  for (const std::string& name : nas::task_workload_names()) {
    harness::RunConfig config;
    config.benchmark = name;
    config.placement = "ft";
    config.iterations = 2;
    config.workload.size_scale = 0.25;
    config.trace = true;
    configs.push_back(std::move(config));
  }
  const std::vector<harness::RunResult> parallel =
      harness::run_experiments(configs, 4);
  const std::vector<harness::RunResult> serial =
      harness::run_experiments(configs, 1);
  const std::vector<harness::RunResult> again =
      harness::run_experiments(configs, 1);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_EQ(serial[i].trace_digest.size(), 16u) << configs[i].benchmark;
    EXPECT_EQ(parallel[i].trace_digest, serial[i].trace_digest)
        << configs[i].benchmark << ": schedule depends on the job count";
    EXPECT_EQ(again[i].trace_digest, serial[i].trace_digest)
        << configs[i].benchmark << ": schedule not stable across reruns";
    EXPECT_GT(serial[i].total, 0u);
  }
}

// The largest sweep point: 512 logical nodes (hier:8x8x8), one task
// workload end to end, 512 page caches over one page space.
TEST(TaskWorkloads, TaskWorkloadsCompleteAt512Nodes) {
  harness::RunConfig config;
  config.benchmark = "MGT";
  config.placement = "rr";
  config.iterations = 2;
  config.workload.size_scale = 0.25;
  config.machine.num_nodes = 512;
  config.machine.topology = "hier:8x8x8";
  config.machine.frames_per_node = 1024;
  const harness::RunResult result = harness::run_benchmark(config);
  EXPECT_GT(result.total, 0u);
  EXPECT_EQ(result.iteration_times.size(), 2u);
}

TEST(TaskWorkloads, CgtRunsOnA64NodeHierarchyDeterministically) {
  harness::RunConfig config;
  config.benchmark = "CGT";
  config.placement = "ft";
  config.iterations = 2;
  config.workload.size_scale = 0.25;
  config.trace = true;
  config.machine.num_nodes = 64;
  config.machine.topology = "hier:4x4x4";
  config.machine.frames_per_node = 4096;
  const std::vector<harness::RunConfig> configs{config};
  const std::vector<harness::RunResult> parallel =
      harness::run_experiments(configs, 4);
  const std::vector<harness::RunResult> serial =
      harness::run_experiments(configs, 1);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(parallel[0].trace_digest, serial[0].trace_digest);
  EXPECT_GT(serial[0].total, 0u);
}

}  // namespace
}  // namespace repro::omp
