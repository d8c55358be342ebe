// Determinism tests for the compiled-program / batched-engine / parallel
// scheduler pipeline:
//  * the batched engine must execute the exact per-op schedule of a
//    naive one-op-at-a-time discrete-event loop (same clocks, same
//    memory-system statistics);
//  * a compiled RegionProgram reused across iterations must behave
//    identically to regenerating + recompiling the region each time;
//  * run_experiments with a parallel job count must produce results
//    byte-identical to the serial jobs=1 mode.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/omp/machine.hpp"
#include "repro/os/daemon.hpp"
#include "repro/sim/engine.hpp"
#include "repro/sim/program.hpp"

namespace repro::harness {
namespace {

std::unique_ptr<omp::Machine> make_machine() {
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  machine->set_placement("ft");
  return machine;
}

/// A region with cross-thread contention (many threads hitting the same
/// pages), private streaming writes and pure-compute gaps: every code
/// path whose order the batched engine must preserve.
sim::RegionBuilder contended_region(omp::Machine& machine,
                                    const vm::PageRange& shared,
                                    const vm::PageRange& priv) {
  omp::Runtime& rt = machine.runtime();
  const std::uint32_t lines = machine.config().lines_per_page();
  sim::RegionBuilder region = rt.make_region();
  for (std::uint32_t t = 0; t < rt.num_threads(); ++t) {
    region.compute(ThreadId(t), 40 + 13 * t);  // stagger the start
    for (std::uint64_t p = 0; p < shared.count; ++p) {
      region.access(ThreadId(t), shared.page(p), lines / 2,
                    /*write=*/(p + t) % 3 == 0, 50);
    }
    const std::uint64_t chunk = priv.count / rt.num_threads();
    for (std::uint64_t p = t * chunk; p < (t + 1) * chunk; ++p) {
      region.access(ThreadId(t), priv.page(p), lines, /*write=*/true,
                    lines * 10, /*stream=*/true);
    }
  }
  return region;
}

/// Every thread starts at the same clock and runs `ties` equal-cost
/// compute-only ops before each access, so all of them reach every
/// first access of a round at exactly the same clock: the order of
/// those writes to shared pages (queue waits, invalidations) is decided
/// by the schedule's tie-break alone.
sim::RegionBuilder tied_region(omp::Machine& machine,
                               const vm::PageRange& shared) {
  omp::Runtime& rt = machine.runtime();
  const std::uint32_t lines = machine.config().lines_per_page();
  sim::RegionBuilder region = rt.make_region();
  constexpr std::uint32_t kRounds = 3;
  constexpr std::uint32_t kTies = 2;
  for (std::uint32_t t = 0; t < rt.num_threads(); ++t) {
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      for (std::uint32_t k = 0; k < kTies; ++k) {
        region.compute(ThreadId(t), 100);
      }
      region.access(ThreadId(t), shared.page(round % shared.count), lines / 4,
                    /*write=*/(t + round) % 2 == 0, 0);
    }
  }
  return region;
}

/// One-op-at-a-time reference engine: the discrete-event loop the
/// batched engine replaced, kept here as the semantics oracle.
std::vector<Ns> reference_run(memsys::MemorySystem& memory,
                              const std::vector<sim::ThreadProgram>& programs,
                              Ns start = 0) {
  struct Pending {
    Ns clock;
    std::uint32_t thread;
    bool operator>(const Pending& o) const {
      return clock != o.clock ? clock > o.clock : thread > o.thread;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue;
  std::vector<std::size_t> cursor(programs.size(), 0);
  std::vector<Ns> end(programs.size(), start);
  for (std::uint32_t t = 0; t < programs.size(); ++t) {
    if (!programs[t].empty()) {
      queue.push({start, t});
    }
  }
  while (!queue.empty()) {
    const Pending cur = queue.top();
    queue.pop();
    const sim::Op& op = programs[cur.thread][cursor[cur.thread]++];
    Ns clock = cur.clock;
    if (op.kind == sim::Op::Kind::kAccess) {
      const auto r = memory.access(
          clock, {ProcId(cur.thread), op.page, op.lines, op.write, op.stream});
      clock += r.elapsed + op.compute;
    } else {
      clock += op.compute;
    }
    if (cursor[cur.thread] < programs[cur.thread].size()) {
      queue.push({clock, cur.thread});
    } else {
      end[cur.thread] = clock;
    }
  }
  return end;
}

void expect_same_stats(const memsys::ProcStats& a,
                       const memsys::ProcStats& b) {
  EXPECT_EQ(a.hit_lines, b.hit_lines);
  EXPECT_EQ(a.local_miss_lines, b.local_miss_lines);
  EXPECT_EQ(a.remote_miss_lines, b.remote_miss_lines);
  EXPECT_EQ(a.queue_wait, b.queue_wait);
  EXPECT_EQ(a.invalidations_sent, b.invalidations_sent);
}

/// A machine for the engine-order oracle. 16 nodes is the paper's
/// Origin; 512 nodes takes multi-word sharer sets and 9 bits of thread
/// id.
struct EngineShape {
  std::size_t nodes;
  const char* topology;
  std::size_t frames_per_node;
};

constexpr EngineShape kEngineShapes[] = {
    {16, "fat-hypercube", 32768},
    {64, "fat-hypercube", 4096},
    {512, "hier:8x8x8", 1024},
};

std::unique_ptr<omp::Machine> make_machine(const EngineShape& shape,
                                           bool daemon) {
  memsys::MachineConfig config;
  config.num_nodes = shape.nodes;
  config.topology = shape.topology;
  config.frames_per_node = shape.frames_per_node;
  auto machine = omp::Machine::create(config);
  machine->set_placement("ft");
  if (daemon) {
    // A low threshold and short cooloffs, so the daemon migrates (and
    // charges its handler cost to the faulting thread) within a region.
    os::DaemonConfig dc;
    dc.threshold = 8;
    dc.page_cooloff_ns = 1000;
    dc.global_min_interval_ns = 100;
    machine->enable_kernel_daemon(dc);
  }
  return machine;
}

TEST(BatchedEngine, MatchesPerOpReference) {
  for (const EngineShape& shape : kEngineShapes) {
    for (const bool daemon : {false, true}) {
      for (const bool tied : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << shape.nodes << " nodes, daemon " << daemon
                     << (tied ? ", tied region" : ", contended region"));
        auto batched = make_machine(shape, daemon);
        auto reference = make_machine(shape, daemon);

        // Four private pages per thread, whatever the thread count.
        const Bytes priv_bytes =
            4 * shape.nodes * batched->config().page_size;
        const auto allocate = [&](omp::Machine& m) {
          return std::pair{m.address_space().allocate("shared", 64 * kKiB),
                           m.address_space().allocate("priv", priv_bytes)};
        };
        const auto [shared_a, priv_a] = allocate(*batched);
        const auto [shared_b, priv_b] = allocate(*reference);

        sim::RegionBuilder region_a =
            tied ? tied_region(*batched, shared_a)
                 : contended_region(*batched, shared_a, priv_a);
        sim::RegionBuilder region_b =
            tied ? tied_region(*reference, shared_b)
                 : contended_region(*reference, shared_b, priv_b);
        const std::vector<sim::ThreadProgram> programs =
            std::move(region_b).take();

        sim::Engine engine(batched->memory());
        const sim::RegionResult result =
            engine.run(0, sim::RegionProgram::compile(std::move(region_a)));
        const std::vector<Ns> expected_end =
            reference_run(reference->memory(), programs);

        ASSERT_EQ(result.thread_end.size(), expected_end.size());
        for (std::size_t t = 0; t < expected_end.size(); ++t) {
          EXPECT_EQ(result.thread_end[t], expected_end[t]) << "thread " << t;
        }
        expect_same_stats(batched->memory().total_stats(),
                          reference->memory().total_stats());
        EXPECT_EQ(batched->kernel().stats(), reference->kernel().stats());
        if (daemon) {
          EXPECT_GT(batched->kernel().daemon()->stats().interrupts, 0u);
          EXPECT_EQ(batched->kernel().daemon()->stats(),
                    reference->kernel().daemon()->stats());
        }
      }
    }
  }
}

// Schedule keys pack clock << b | thread (b = the bits the thread count
// needs), so a clock at or past 2^(64-b) cannot be ordered: the run
// must refuse it rather than wrap. Just below the range a short region
// still runs, and matches the per-op reference there.
TEST(BatchedEngine, ClockPastTheKeyRangeThrows) {
  for (const EngineShape& shape : {kEngineShapes[0], kEngineShapes[2]}) {
    SCOPED_TRACE(::testing::Message() << shape.nodes << " nodes");
    auto batched = make_machine(shape, /*daemon=*/false);
    auto reference = make_machine(shape, /*daemon=*/false);
    const auto shared_a = batched->address_space().allocate("shared", 64 * kKiB);
    const auto shared_b =
        reference->address_space().allocate("shared", 64 * kKiB);
    const auto bits = static_cast<unsigned>(std::bit_width(shape.nodes - 1));
    const Ns range = Ns{1} << (64 - bits);

    sim::Engine engine(batched->memory());
    const sim::RegionProgram program =
        sim::RegionProgram::compile(tied_region(*batched, shared_a));
    EXPECT_THROW(engine.run(range, program), ContractViolation);
    // A region that starts inside the range but ends past it.
    EXPECT_THROW(engine.run(range - 150, program), ContractViolation);

    const Ns start = range / 2;
    const sim::RegionResult result = engine.run(start, program);
    const std::vector<Ns> expected_end = reference_run(
        reference->memory(),
        std::move(tied_region(*reference, shared_b)).take(), start);
    EXPECT_EQ(result.thread_end, expected_end);
  }
}

TEST(RegionProgram, CompileRoundTripsOps) {
  sim::RegionBuilder region(3);
  region.access(ThreadId(0), VPage(7), 4, /*write=*/true, 100);
  region.compute(ThreadId(0), 55);
  region.access(ThreadId(2), VPage(9), 8, /*write=*/false, 0,
                /*stream=*/true);
  const std::vector<sim::ThreadProgram> programs =
      std::move(region).take();
  const sim::RegionProgram program(programs);

  EXPECT_EQ(program.num_threads(), 3u);
  EXPECT_EQ(program.size(), 3u);
  EXPECT_EQ(program.thread_end(0) - program.thread_begin(0), 2u);
  EXPECT_EQ(program.thread_end(1) - program.thread_begin(1), 0u);
  EXPECT_EQ(program.thread_end(2) - program.thread_begin(2), 1u);

  const std::uint32_t first = program.thread_begin(0);
  EXPECT_TRUE(program.is_access(first));
  EXPECT_TRUE(program.is_write(first));
  EXPECT_FALSE(program.is_stream(first));
  EXPECT_EQ(program.page(first), VPage(7));
  EXPECT_EQ(program.lines(first), 4u);
  EXPECT_EQ(program.compute(first), 100u);
  EXPECT_FALSE(program.is_access(first + 1));
  EXPECT_EQ(program.compute(first + 1), 55u);

  const std::uint32_t last = program.thread_begin(2);
  EXPECT_TRUE(program.is_stream(last));
  const sim::Op op = program.op(last);
  EXPECT_EQ(op.kind, sim::Op::Kind::kAccess);
  EXPECT_EQ(op.page, VPage(9));
  EXPECT_EQ(op.lines, 8u);
  EXPECT_FALSE(op.write);
  EXPECT_TRUE(op.stream);
}

TEST(RegionProgram, ReuseMatchesPerIterationRegeneration) {
  auto reused = make_machine();
  auto regenerated = make_machine();
  const auto allocate = [](omp::Machine& m) {
    return std::pair{m.address_space().allocate("shared", 64 * kKiB),
                     m.address_space().allocate("priv", 2 * kMiB)};
  };
  const auto [shared_a, priv_a] = allocate(*reused);
  const auto [shared_b, priv_b] = allocate(*regenerated);

  const sim::RegionProgram program = sim::RegionProgram::compile(
      contended_region(*reused, shared_a, priv_a));
  constexpr int kIterations = 4;
  for (int i = 0; i < kIterations; ++i) {
    reused->runtime().run("phase", program);
    regenerated->runtime().run(
        "phase", contended_region(*regenerated, shared_b, priv_b));
  }

  EXPECT_EQ(reused->runtime().now(), regenerated->runtime().now());
  expect_same_stats(reused->memory().total_stats(),
                    regenerated->memory().total_stats());
}

std::vector<RunConfig> small_matrix(std::uint64_t seed) {
  std::vector<RunConfig> configs;
  for (const std::string placement : {"ft", "rr", "rand", "wc"}) {
    RunConfig config;
    config.benchmark = "CG";
    config.placement = placement;
    config.iterations = 2;
    config.workload.size_scale = 0.25;
    config.seed = seed;
    configs.push_back(std::move(config));
  }
  return configs;
}

TEST(Scheduler, EffectiveJobsResolution) {
  EXPECT_EQ(effective_jobs(3), 3u);
  EXPECT_EQ(effective_jobs(1), 1u);
  {
    ScopedEnv jobs("REPRO_JOBS", "5");
    EXPECT_EQ(effective_jobs(0), 5u);
    EXPECT_EQ(effective_jobs(2), 2u);  // explicit request wins
  }
  EXPECT_GE(effective_jobs(0), 1u);
}

TEST(Scheduler, ParallelOutputByteIdenticalToSerial) {
  for (const std::uint64_t seed : {std::uint64_t{12345}, std::uint64_t{7}}) {
    const std::vector<RunConfig> configs = small_matrix(seed);
    const std::vector<RunResult> serial = run_experiments(configs, 1);
    const std::vector<RunResult> parallel = run_experiments(configs, 4);
    EXPECT_EQ(results_to_json(serial), results_to_json(parallel))
        << "seed " << seed;
  }
}

TEST(Scheduler, TraceDigestIdenticalAcrossJobsAndSeeds) {
  // The canonical trace is ordered by (simulated time, lane, seq), so
  // its digest must not depend on which host worker ran a cell -- for
  // any RNG seed, including ones that drive the "rand" placement.
  for (const std::uint64_t seed :
       {std::uint64_t{12345}, std::uint64_t{7}, std::uint64_t{999}}) {
    std::vector<RunConfig> configs = small_matrix(seed);
    for (RunConfig& config : configs) {
      config.trace = true;
    }
    const std::vector<RunResult> serial = run_experiments(configs, 1);
    const std::vector<RunResult> parallel = run_experiments(configs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].trace_digest.size(), 16u)
          << serial[i].label << " seed " << seed;
      EXPECT_EQ(serial[i].trace_digest, parallel[i].trace_digest)
          << serial[i].label << " seed " << seed;
    }
  }
}

TEST(Scheduler, ResultsComeBackInInputOrder) {
  const std::vector<RunConfig> configs = small_matrix(12345);
  const std::vector<RunResult> results = run_experiments(configs, 4);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].label, configs[i].label());
  }
}

TEST(Scheduler, AggregatesCellFailuresIntoSweepError) {
  std::vector<RunConfig> configs = small_matrix(12345);
  configs[1].kernel_migration = true;  // + upm below: invalid combination
  configs[1].upm_mode = nas::UpmMode::kDistribution;
  EXPECT_THROW(run_experiments(configs, 4), SweepError);
  try {
    (void)run_experiments(configs, 1);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].index, 1u);
    EXPECT_EQ(e.failures()[0].label, configs[1].label());
    EXPECT_FALSE(e.failures()[0].timeout);
    EXPECT_NE(std::string(e.what()).find(configs[1].label()),
              std::string::npos);
  }
}

TEST(Scheduler, SweepErrorListsEveryFailedCell) {
  std::vector<RunConfig> configs = small_matrix(12345);
  ASSERT_GE(configs.size(), 3u);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{2}}) {
    configs[bad].kernel_migration = true;
    configs[bad].upm_mode = nas::UpmMode::kDistribution;
  }
  try {
    (void)run_experiments(configs, 4);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].index, 0u);
    EXPECT_EQ(e.failures()[1].index, 2u);
  }
}

TEST(Scheduler, RunSweepDoesNotThrowAndRunsRemainingCells) {
  std::vector<RunConfig> configs = small_matrix(12345);
  configs[1].kernel_migration = true;
  configs[1].upm_mode = nas::UpmMode::kDistribution;
  SweepOptions options;
  options.jobs = 2;
  const SweepOutcome outcome = run_sweep(configs, options);
  EXPECT_FALSE(outcome.ok());
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.stats.cells_total, configs.size());
  EXPECT_EQ(outcome.stats.cells_failed, 1u);
  EXPECT_EQ(outcome.stats.cells_ok, configs.size() - 1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (i == 1) {
      EXPECT_TRUE(outcome.results[i].label.empty());
    } else {
      EXPECT_EQ(outcome.results[i].label, configs[i].label());
    }
  }
}

}  // namespace
}  // namespace repro::harness
