// A/B validation of the steady-state fast-forward (see
// repro::harness::FastForward): every observable of run_benchmark --
// simulated times, per-iteration vector, region records, all statistic
// blocks, the canonical trace dump and its digest -- must be
// byte-identical whether the timed iterations were simulated in full
// or synthesized by replay -- also where a migration engine acts in
// every iteration: record--replay cells replay their equal per-block
// migrations, and kernel-daemon cells continue the daemon over a logged
// miss stream once the machine settles -- and in line-grain coherence
// cells, which gate on the model's behavioural digest and replay its
// statistics. The suite also pins when the fast-forward must NOT
// engage: a daemon cell whose machine never repeats, and the
// false-sharing cells whose line state repeats only past kMaxPeriod,
// simulate every iteration.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "repro/common/env.hpp"
#include "repro/common/log.hpp"
#include "repro/harness/fast_forward.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/run.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/trace/export.hpp"

namespace repro::harness {
namespace {

RunConfig cell(const std::string& benchmark, const std::string& placement,
               nas::UpmMode mode) {
  RunConfig config;
  config.benchmark = benchmark;
  config.placement = placement;
  config.upm_mode = mode;
  config.iterations = 12;
  config.workload.size_scale = 0.25;
  config.trace = true;
  return config;
}

std::string canonical_dump(const RunResult& result) {
  std::ostringstream os;
  trace::write_canonical(os, *result.trace);
  return os.str();
}

/// Everything results_to_json covers, with the one intentional
/// difference (simulated vs replayed iteration split) normalized away.
std::string comparable_json(const RunResult& result) {
  RunResult copy = result;
  copy.iterations_simulated = 0;
  copy.iterations_replayed = 0;
  return results_to_json({copy});
}

void expect_identical(const RunConfig& config) {
  RunConfig full = config;
  full.no_fast_forward = true;
  const RunResult replayed = run_benchmark(config);
  const RunResult simulated = run_benchmark(full);
  SCOPED_TRACE(config.benchmark + " " + config.label());

  EXPECT_EQ(simulated.iterations_replayed, 0u);
  EXPECT_EQ(replayed.iterations_simulated + replayed.iterations_replayed,
            config.iterations);

  EXPECT_EQ(replayed.total, simulated.total);
  EXPECT_EQ(replayed.iteration_times, simulated.iteration_times);
  EXPECT_EQ(comparable_json(replayed), comparable_json(simulated));
  // Every engine counter, including those the JSON leaves out.
  EXPECT_EQ(replayed.kernel_stats, simulated.kernel_stats);
  EXPECT_EQ(replayed.daemon_stats, simulated.daemon_stats);
  EXPECT_EQ(replayed.upm_stats, simulated.upm_stats);
  EXPECT_EQ(replayed.coherence_totals, simulated.coherence_totals);
  EXPECT_EQ(replayed.trace_digest, simulated.trace_digest);
  EXPECT_EQ(canonical_dump(replayed), canonical_dump(simulated));

  ASSERT_EQ(replayed.records.size(), simulated.records.size());
  for (std::size_t i = 0; i < simulated.records.size(); ++i) {
    EXPECT_EQ(replayed.records[i].name, simulated.records[i].name);
    EXPECT_EQ(replayed.records[i].start, simulated.records[i].start);
    EXPECT_EQ(replayed.records[i].end, simulated.records[i].end);
    EXPECT_EQ(replayed.records[i].imbalance, simulated.records[i].imbalance);
  }
}

class FastForwardIdentical
    : public ::testing::TestWithParam<std::string> {};

TEST_P(FastForwardIdentical, BaseCellsReplayAndMatch) {
  for (const std::string benchmark : {"CG", "BT"}) {
    const RunConfig config =
        cell(benchmark, GetParam(), nas::UpmMode::kOff);
    const RunResult result = run_benchmark(config);
    SCOPED_TRACE(benchmark + " " + config.label());
    // No migration engine: the machine state is periodic almost
    // immediately, so most of the run must be synthesized.
    EXPECT_GT(result.iterations_replayed, 0u);
    expect_identical(config);
  }
}

TEST_P(FastForwardIdentical, UpmlibCellsMatch) {
  for (const std::string benchmark : {"CG", "BT"}) {
    expect_identical(
        cell(benchmark, GetParam(), nas::UpmMode::kDistribution));
  }
}

TEST_P(FastForwardIdentical, RecordReplayCellsMatch) {
  // BT only: CG has no record-replay instrumentation. The cells migrate
  // (and undo) the same pages in every iteration, so equal per-block
  // engine deltas let them replay.
  const RunConfig config = cell("BT", GetParam(), nas::UpmMode::kRecordReplay);
  EXPECT_GT(run_benchmark(config).iterations_replayed, 0u);
  expect_identical(config);
}

INSTANTIATE_TEST_SUITE_P(Placements, FastForwardIdentical,
                         ::testing::Values("ft", "rr", "wc"));

RunConfig daemon_cell(const std::string& benchmark,
                      const std::string& placement) {
  RunConfig config = cell(benchmark, placement, nas::UpmMode::kOff);
  config.kernel_migration = true;
  config.iterations = 16;
  return config;
}

TEST(FastForwardGate, KernelDaemonCellsContinueAndMatch) {
  // Under first-touch the machine settles within three probes and the
  // daemon raises no further interrupt for a while, so the daemon is
  // continued over the logged miss stream while the machine replays.
  for (const std::string benchmark : {"CG", "BT", "SP"}) {
    const RunConfig config = daemon_cell(benchmark, "ft");
    SCOPED_TRACE(benchmark + " " + config.label());
    EXPECT_GT(run_benchmark(config).iterations_replayed, 0u);
    expect_identical(config);
  }
}

TEST(FastForwardGate, ReplayedTraceContinuesTheDaemonAndMatches) {
  // A replayed trace under the daemon: the continuation runs inside
  // the iterations the trace proves repeat (repeating_iterations).
  const std::string path =
      std::string(::testing::TempDir()) + "ff_daemon_replay_cg.rtrc";
  RunConfig dump = cell("CG", "ft", nas::UpmMode::kOff);
  dump.iterations = 16;
  dump_trace(dump, path);
  RunConfig config = daemon_cell("CG", "ft");
  config.replay = path;
  const RunResult replayed = run_benchmark(config);
  EXPECT_GT(replayed.iterations_replayed, 0u);
  expect_identical(config);
  RunConfig direct = daemon_cell("CG", "ft");
  direct.no_fast_forward = true;
  EXPECT_EQ(replayed.trace_digest, run_benchmark(direct).trace_digest);
  std::remove(path.c_str());
}

TEST(FastForwardGate, DaemonContinuationStopsBeforeTheFirstInterrupt) {
  // With a 2 s counter window the machine repeats from the first probe
  // on, and the daemon's first interrupts fire in iteration 6: the
  // continuation must stop before that block and simulate it.
  RunConfig config = daemon_cell("CG", "ft");
  config.iterations = 24;
  config.daemon.window_ns = 2 * kNsPerSec;
  const RunResult result = run_benchmark(config);
  EXPECT_GT(result.daemon_stats.interrupts, 0u);
  EXPECT_GT(result.iterations_replayed, 0u);
  expect_identical(config);
}

TEST(FastForwardGate, ContinuedDaemonResetsWindowsLikeTheLiveOne) {
  // A 20 ms counter window expires every few iterations, so every
  // continued block resets windows and their counters: the
  // continuation must run that code, neither skip nor extrapolate it.
  RunConfig config = daemon_cell("CG", "ft");
  config.iterations = 24;
  config.daemon.window_ns = 20 * kNsPerMs;
  const RunResult result = run_benchmark(config);
  EXPECT_GT(result.iterations_replayed, 0u);
  EXPECT_GT(result.daemon_stats.window_resets, 0u);
  expect_identical(config);
}

TEST(FastForwardGate, KernelDaemonWithUnsettledMachineNeverReplays) {
  RunConfig config = cell("CG", "rr", nas::UpmMode::kOff);
  config.kernel_migration = true;
  const RunResult result = run_benchmark(config);
  // This cell is still migrating, so its machine part (page table,
  // frame allocator, caches) never repeats: neither the full gate nor
  // the daemon continuation's machine-digest rule can hold. (The
  // daemon's own counters are no obstacle: rule 4 asks for equal
  // per-block deltas, and a continued daemon runs for real.) Every
  // iteration must be simulated.
  EXPECT_EQ(result.iterations_replayed, 0u);
  EXPECT_EQ(result.iterations_simulated, config.iterations);
  expect_identical(config);
}

TEST(FastForwardGate, OptOutFlagSimulatesEverything) {
  RunConfig config = cell("CG", "ft", nas::UpmMode::kOff);
  config.no_fast_forward = true;
  const RunResult result = run_benchmark(config);
  EXPECT_EQ(result.iterations_replayed, 0u);
  EXPECT_EQ(result.iterations_simulated, config.iterations);
}

/// A traced line-grain coherence cell at quarter size.
RunConfig coherence_cell(const std::string& benchmark,
                         const std::string& placement,
                         const std::string& policy, nas::UpmMode mode) {
  RunConfig config = cell(benchmark, placement, mode);
  config.coherence = policy;
  config.iterations = 6;
  return config;
}

/// run_benchmark with the INFO log captured: the result and the cell's
/// fast-forward line ("steady state after ..." or "no fast-forward:
/// <rule>").
std::pair<RunResult, std::string> run_logged(const RunConfig& config) {
  std::string log;
  RunResult result;
  {
    const ScopedEnv level("REPRO_LOG", "info");
    refresh_log_level();
    ::testing::internal::CaptureStderr();
    result = run_benchmark(config);
    log = ::testing::internal::GetCapturedStderr();
  }
  refresh_log_level();
  return {std::move(result), log};
}

TEST(FastForwardCoherence, CgCellsReplayAndMatch) {
  // Read-mostly capacity misses: the line state repeats after the first
  // timed iteration, so the cells replay like page-grain ones.
  for (const std::string placement : {"ft", "rr"}) {
    for (const std::string policy : {"msi", "mesi"}) {
      const RunConfig config =
          coherence_cell("CG", placement, policy, nas::UpmMode::kOff);
      SCOPED_TRACE(config.label());
      const RunResult result = run_benchmark(config);
      EXPECT_TRUE(result.coherence_enabled);
      EXPECT_GT(result.iterations_replayed, 0u);
      EXPECT_GT(result.coherence_totals.capacity_miss_lines, 0u);
      expect_identical(config);
    }
  }
}

TEST(FastForwardCoherence, UpmlibCellMatches) {
  const RunConfig config =
      coherence_cell("CG", "ft", "msi", nas::UpmMode::kDistribution);
  EXPECT_GT(run_benchmark(config).iterations_replayed, 0u);
  expect_identical(config);
}

TEST(FastForwardCoherence, SweepGridDeclinesOnTheDigestAndMatches) {
  // coherence_sweep's grid at its own size and iteration count. The
  // false-sharing line state repeats with a period past kMaxPeriod (8
  // for FS ft-msi), so every cell declines on the digest rule and
  // simulates all its iterations.
  for (const std::string benchmark : {"FS", "FSP"}) {
    for (const std::string placement : {"ft", "rr"}) {
      for (const std::string policy : {"msi", "mesi"}) {
        for (const nas::UpmMode mode :
             {nas::UpmMode::kOff, nas::UpmMode::kDistribution}) {
          RunConfig config = coherence_cell(benchmark, placement, policy, mode);
          config.workload.size_scale = 1.0;
          SCOPED_TRACE(benchmark + " " + config.label());
          const auto [result, log] = run_logged(config);
          EXPECT_EQ(result.iterations_replayed, 0u);
          EXPECT_NE(log.find(config.label() + ": no fast-forward: digest\n"),
                    std::string::npos)
              << log;
          expect_identical(config);
        }
      }
    }
  }
}

/// The outcome of CG rand-msi at quarter size driven iteration by
/// iteration, with or without a FastForward watcher.
struct TailRun {
  Ns total = 0;
  std::uint32_t period = 0;
  std::uint32_t replayed = 0;
  coherence::CoherenceStats coherence;
  memsys::ProcStats memory;
  std::uint64_t digest = 0;        // the model's behavioural digest
  std::uint64_t exact_digest = 0;  // its exact-state digest
};

TailRun run_coherence_tail(std::uint32_t iterations, bool fast_forward) {
  const RunConfig config =
      coherence_cell("CG", "rand", "msi", nas::UpmMode::kOff);
  auto machine = omp::Machine::create(config.machine);
  machine->set_placement(config.placement, config.seed);
  coherence::CoherenceModel& model =
      machine->enable_coherence(coherence::CoherenceConfig{});
  auto workload = nas::make_workload(config.benchmark, config.workload);
  workload->setup(*machine);
  workload->cold_start(*machine);
  machine->memory().reset_stats();
  machine->runtime().clear_records();

  TailRun run;
  std::unique_ptr<FastForward> ff;
  if (fast_forward) {
    ff = std::make_unique<FastForward>(*machine, nullptr, nullptr);
  }
  const nas::IterationContext ctx;
  std::vector<Ns> times;
  const Ns t0 = machine->runtime().now();
  for (std::uint32_t step = 1; step <= iterations; ++step) {
    if (ff != nullptr) {
      ff->probe();
      if (ff->ready()) {
        run.period = ff->period();
        run.replayed = ff->replay(step, iterations, times);
        workload->skip_iterations(step, run.replayed);
        model.audit();
        step += run.replayed;
        if (step > iterations) {
          break;
        }
      }
    }
    workload->iteration(*machine, ctx, step);
  }
  model.audit();
  run.total = machine->runtime().now() - t0;
  run.coherence = model.total_stats();
  run.memory = machine->memory().total_stats();
  StateHash digest;
  model.digest(digest);
  run.digest = digest.value();
  StateHash exact;
  model.exact_state_digest(exact);
  run.exact_digest = exact.value();
  return run;
}

TEST(FastForwardCoherence, ReplayLeavesASimulatedTailThatAudits) {
  // CG rand-msi settles into a period-2 cycle after four iterations, so
  // at 13 the replay covers four blocks and leaves one iteration to
  // simulate from the replayed state: its stamps and versions were not
  // shifted, only the statistics advanced.
  constexpr std::uint32_t kIterations = 13;
  const TailRun replayed = run_coherence_tail(kIterations, true);
  const TailRun simulated = run_coherence_tail(kIterations, false);
  EXPECT_EQ(replayed.period, 2u);
  EXPECT_GT(replayed.replayed, 0u);
  EXPECT_EQ(replayed.replayed % replayed.period, 0u);
  EXPECT_EQ((kIterations - 4) % replayed.period, 1u);
  EXPECT_EQ(replayed.total, simulated.total);
  EXPECT_EQ(replayed.coherence, simulated.coherence);
  EXPECT_EQ(replayed.memory.hit_lines, simulated.memory.hit_lines);
  EXPECT_EQ(replayed.memory.remote_miss_lines,
            simulated.memory.remote_miss_lines);
  EXPECT_EQ(replayed.memory.queue_wait, simulated.memory.queue_wait);
  // Equal behaviour, unequal stamps and versions.
  EXPECT_EQ(replayed.digest, simulated.digest);
  EXPECT_NE(replayed.exact_digest, simulated.exact_digest);

  // The same cell through run_benchmark, traced.
  RunConfig config = coherence_cell("CG", "rand", "msi", nas::UpmMode::kOff);
  config.iterations = kIterations;
  const auto [result, log] = run_logged(config);
  EXPECT_NE(log.find("steady state after 5 iterations, replayed 8"),
            std::string::npos)
      << log;
  expect_identical(config);
}

TEST(FastForwardGate, ReplayedSplitIsReportedInJson) {
  const RunConfig config = cell("CG", "rr", nas::UpmMode::kOff);
  const RunResult result = run_benchmark(config);
  ASSERT_GT(result.iterations_replayed, 0u);
  const std::string json = results_to_json({result});
  EXPECT_NE(json.find("\"iterations_simulated\": " +
                      std::to_string(result.iterations_simulated)),
            std::string::npos);
  EXPECT_NE(json.find("\"iterations_replayed\": " +
                      std::to_string(result.iterations_replayed)),
            std::string::npos);
}

}  // namespace
}  // namespace repro::harness
