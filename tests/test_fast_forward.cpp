// A/B validation of the steady-state fast-forward (see
// repro::harness::FastForward): every observable of run_benchmark --
// simulated times, per-iteration vector, region records, all statistic
// blocks, the canonical trace dump and its digest -- must be
// byte-identical whether the timed iterations were simulated in full
// or synthesized by replay. The suite also pins when the fast-forward
// must NOT engage: the kernel daemon's counters (migrations, window
// resets) move in every iteration, so an active-daemon run never
// passes the gate.
#include <gtest/gtest.h>

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
  // BT only: CG has no record-replay instrumentation. Recorded-replay
  // cells migrate (and undo) every iteration, so the entry gate's
  // zero-migration requirement keeps the fast-forward out -- identity
  // must still hold, trivially.
  expect_identical(cell("BT", GetParam(), nas::UpmMode::kRecordReplay));
}

INSTANTIATE_TEST_SUITE_P(Placements, FastForwardIdentical,
                         ::testing::Values("ft", "rr", "wc"));

TEST(FastForwardGate, ActiveKernelDaemonNeverReplays) {
  RunConfig config = cell("CG", "rr", nas::UpmMode::kOff);
  config.kernel_migration = true;
  const RunResult result = run_benchmark(config);
  // Gate rule 4 keeps the daemon out: its cumulative counters change in
  // every iteration. (Its digest is not the obstacle: it mixes
  // saturated ages relative to now, not absolute times.) This cell is
  // still migrating; even once migrations stop -- SP-rr-IRIXmig has
  // 5,341 at 20 iterations and 5,350 at 30 and at 40 -- window_resets
  // rises by ~1,500-1,700 per iteration, because the 500 ms counter
  // window drifts against the ~145 ms iteration. Every iteration must
  // be simulated.
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
