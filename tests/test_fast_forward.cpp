// A/B validation of the steady-state fast-forward (see
// repro::harness::FastForward): every observable of run_benchmark --
// simulated times, per-iteration vector, region records, all statistic
// blocks, the canonical trace dump and its digest -- must be
// byte-identical whether the timed iterations were simulated in full
// or synthesized by replay -- also where a migration engine acts in
// every iteration: record--replay cells replay their equal per-block
// migrations, and kernel-daemon cells continue the daemon over a logged
// miss stream once the machine settles. The suite also pins when the
// fast-forward must NOT engage: a daemon cell whose machine never
// repeats simulates every iteration.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "repro/harness/json.hpp"
#include "repro/harness/run.hpp"
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
