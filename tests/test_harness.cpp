// Harness tests: run configuration labels, the experiment driver and
// the figure plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "repro/common/assert.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/figures.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/run.hpp"

namespace repro::harness {
namespace {

RunConfig tiny_config(const std::string& benchmark) {
  RunConfig config;
  config.benchmark = benchmark;
  config.iterations = 2;
  config.workload.size_scale = 0.25;
  return config;
}

TEST(RunConfig, PaperStyleLabels) {
  RunConfig config;
  config.placement = "rr";
  EXPECT_EQ(config.label(), "rr-base");
  config.kernel_migration = true;
  EXPECT_EQ(config.label(), "rr-IRIXmig");
  config.kernel_migration = false;
  config.upm_mode = nas::UpmMode::kDistribution;
  EXPECT_EQ(config.label(), "rr-upmlib");
  config.upm_mode = nas::UpmMode::kRecordReplay;
  config.placement = "ft";
  EXPECT_EQ(config.label(), "ft-recrep");
}

TEST(RunBenchmark, SmokeEveryBenchmark) {
  for (const auto& name : nas::workload_names()) {
    const RunResult result = run_benchmark(tiny_config(name));
    EXPECT_EQ(result.benchmark, name);
    EXPECT_GT(result.total, 0u) << name;
    EXPECT_EQ(result.iteration_times.size(), 2u);
    EXPECT_FALSE(result.records.empty());
  }
}

TEST(RunBenchmark, RejectsKernelMigrationPlusUpmlib) {
  RunConfig config = tiny_config("BT");
  config.kernel_migration = true;
  config.upm_mode = nas::UpmMode::kDistribution;
  EXPECT_THROW(run_benchmark(config), ContractViolation);
}

TEST(RunBenchmark, RejectsRecordReplayWithoutSupport) {
  RunConfig config = tiny_config("CG");
  config.upm_mode = nas::UpmMode::kRecordReplay;
  EXPECT_THROW(run_benchmark(config), ContractViolation);
}

TEST(RunBenchmark, DeterministicAcrossRuns) {
  const RunResult a = run_benchmark(tiny_config("CG"));
  const RunResult b = run_benchmark(tiny_config("CG"));
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.iteration_times, b.iteration_times);
}

TEST(RunBenchmark, SeedChangesRandomPlacement) {
  RunConfig config = tiny_config("CG");
  config.placement = "rand";
  const RunResult a = run_benchmark(config);
  config.seed = 999;
  const RunResult b = run_benchmark(config);
  EXPECT_NE(a.total, b.total);
}

TEST(RunResult, MeanIterationLastFraction) {
  RunResult result;
  result.iteration_times = {100, 10, 10, 10};
  EXPECT_EQ(result.mean_iteration_last(0.75), 10u);
  EXPECT_EQ(result.mean_iteration_last(1.0), 32u);  // (130)/4
  EXPECT_THROW(result.mean_iteration_last(0.0), ContractViolation);
  EXPECT_EQ(RunResult{}.mean_iteration_last(0.5), 0u);
}

TEST(RunResult, PhaseTimeMatchesBySuffix) {
  RunResult result;
  result.records = {{"BT.z_solve", 0, 100, 1.0},
                    {"BT.x_solve", 100, 250, 1.0},
                    {"BT.z_solve", 250, 300, 1.0}};
  EXPECT_EQ(result.phase_time("z_solve"), 150u);
  EXPECT_EQ(result.phase_time("x_solve"), 150u);
  EXPECT_EQ(result.phase_time("nothing"), 0u);
}

TEST(Figures, EffectiveIterationsHonoursFastMode) {
  FigureOptions options;
  EXPECT_EQ(effective_iterations("BT", options), 0u);  // paper default
  options.fast = true;
  EXPECT_EQ(effective_iterations("BT", options), 20u);
  EXPECT_EQ(effective_iterations("SP", options), 40u);
  EXPECT_EQ(effective_iterations("CG", options), 40u);
  EXPECT_EQ(effective_iterations("MG", options), 0u);
  options.iterations_override = 7;
  EXPECT_EQ(effective_iterations("BT", options), 7u);
}

TEST(FigurePlan, UnionDedupsSharedCells) {
  // Enumeration only: nothing is simulated.
  const FigureOptions options;
  std::map<Figure, std::set<std::uint64_t>> ids;
  std::size_t figure_cells_total = 0;
  for (const Figure figure : kAllFigures) {
    for (const std::string& bench : nas::workload_names()) {
      for (const RunConfig& cell : figure_cells(figure, bench, options, 4)) {
        ids[figure].insert(config_identity(cell));
        ++figure_cells_total;
      }
    }
  }
  EXPECT_EQ(figure_cells_total, 132u);
  const std::set<std::uint64_t>& fig4 = ids[Figure::kFig4];
  EXPECT_TRUE(std::ranges::includes(fig4, ids[Figure::kFig1]));
  EXPECT_TRUE(std::ranges::includes(fig4, ids[Figure::kTable2]));
  EXPECT_LT(ids[Figure::kTable2].size(), fig4.size());
  // What each later figure adds to the ones printed before it.
  std::set<std::uint64_t> seen = fig4;
  const auto added = [&seen](const std::set<std::uint64_t>& figure) {
    std::size_t fresh = 0;
    for (const std::uint64_t id : figure) {
      if (seen.insert(id).second) {
        ++fresh;
      }
    }
    return fresh;
  };
  EXPECT_EQ(added(ids[Figure::kFig5]), 2u);  // BT and SP ft-recrep
  EXPECT_EQ(added(ids[Figure::kFig6]), 4u);  // the scaled BT cells
  EXPECT_EQ(seen.size(), 66u);

  const FigurePlan plan({kAllFigures.begin(), kAllFigures.end()},
                        nas::workload_names(), options, 4);
  ASSERT_EQ(plan.cells().size(), 66u);
  std::set<std::uint64_t> planned;
  for (std::size_t i = 0; i < plan.cells().size(); ++i) {
    const RunConfig& cell = plan.cells()[i];
    planned.insert(config_identity(cell));
    EXPECT_EQ(cell.compute_scale, i < 4 ? 4u : 1u) << i;
  }
  EXPECT_EQ(planned, seen);
}

/// Renders `figures` the way one binary per figure did: each figure's
/// cells in their own run_experiments call.
std::string render_each(const std::vector<Figure>& figures,
                        const std::vector<std::string>& benchmarks,
                        const FigureOptions& options, std::uint32_t scale,
                        const std::string& csv_path,
                        const std::string& json_dir) {
  std::ostringstream os;
  for (const Figure figure : figures) {
    std::vector<std::string> shown;
    std::vector<RunConfig> cells;
    for (const std::string& bench : benchmarks) {
      const std::vector<RunConfig> own =
          figure_cells(figure, bench, options, scale);
      if (!own.empty()) {
        shown.push_back(bench);
        cells.insert(cells.end(), own.begin(), own.end());
      }
    }
    if (shown.empty()) {
      continue;
    }
    const std::vector<RunResult> flat =
        run_experiments(cells, options.sweep());
    // Every shown benchmark has the same number of cells.
    const std::size_t per_bench = flat.size() / shown.size();
    std::vector<std::vector<RunResult>> results(shown.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      results[i / per_bench].push_back(flat[i]);
    }
    render_figure(os, figure, shown, results, scale, csv_path, json_dir);
  }
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(FigurePlan, RendersWhatEachFigureRendersFromItsOwnSweep) {
  FigureOptions options;
  options.iterations_override = 2;
  const std::string root = ::testing::TempDir() + "/repro_figure_plan";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  struct Case {
    std::vector<Figure> figures;
    std::vector<std::string> benchmarks;
  };
  for (const Case& c :
       {Case{{Figure::kFig1, Figure::kFig4, Figure::kTable2}, {"CG"}},
        Case{{Figure::kFig5, Figure::kFig6}, {"BT", "SP"}}}) {
    const FigurePlan plan(c.figures, c.benchmarks, options, 4);
    const SweepOutcome outcome = run_sweep(plan.cells(), options.sweep());
    ASSERT_TRUE(outcome.ok());
    std::ostringstream planned;
    EXPECT_TRUE(plan.render(planned, outcome, root + "/plan.csv",
                            root + "/plan")
                    .empty());
    EXPECT_EQ(planned.str(), render_each(c.figures, c.benchmarks, options, 4,
                                         root + "/each.csv", root + "/each"));
    EXPECT_NE(planned.str().find(c.benchmarks.size() == 1 ? "Table 2"
                                                          : "Figure 6"),
              std::string::npos);
  }
  EXPECT_FALSE(read_file(root + "/plan.csv").empty());
  EXPECT_EQ(read_file(root + "/plan.csv"), read_file(root + "/each.csv"));
  for (const char* name : {"BENCH_fig1_CG.json", "BENCH_fig4_CG.json"}) {
    EXPECT_FALSE(read_file(root + "/plan/" + name).empty()) << name;
    EXPECT_EQ(read_file(root + "/plan/" + name),
              read_file(root + "/each/" + name))
        << name;
  }
  std::filesystem::remove_all(root);
}

TEST(FigurePlan, LeavesOutOnlyTheFiguresThatReadAFailedCell) {
  FigureOptions options;
  options.iterations_override = 2;
  const FigurePlan plan({Figure::kFig1, Figure::kFig4}, {"CG"}, options, 4);
  SweepOutcome outcome = run_sweep(plan.cells(), options.sweep());
  ASSERT_TRUE(outcome.ok());
  // Fail a cell only Fig. 4 reads, the way run_sweep reports one: the
  // first cell past Fig. 1's eight.
  const std::size_t upmlib = 8;
  ASSERT_EQ(plan.cells()[upmlib].label(), "ft-upmlib");
  outcome.results[upmlib] = RunResult{};
  CellFailure failure;
  failure.index = upmlib;
  outcome.failures.push_back(failure);
  std::ostringstream os;
  EXPECT_EQ(plan.render(os, outcome, "", ""),
            std::vector<Figure>{Figure::kFig4});
  EXPECT_NE(os.str().find("Figure 1"), std::string::npos);
  EXPECT_EQ(os.str().find("Figure 4"), std::string::npos);
}

TEST(Figures, ResultsTableAndFindResult) {
  RunResult a;
  a.label = "ft-base";
  a.total = kNsPerSec;
  RunResult b;
  b.label = "wc-base";
  b.total = 2 * kNsPerSec;
  const std::vector<RunResult> results = {a, b};
  EXPECT_EQ(&find_result(results, "wc-base"), &results[1]);
  EXPECT_THROW(find_result(results, "missing"), ContractViolation);

  const TextTable table = results_table(results);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("+100.0%"), std::string::npos);

  std::ostringstream chart;
  print_figure(chart, "demo", results);
  EXPECT_NE(chart.str().find("ft-base"), std::string::npos);
}

TEST(Figures, AppendCsvWritesHeaderOnceAndRows) {
  const std::string path = ::testing::TempDir() + "/repro_results.csv";
  std::filesystem::remove(path);
  RunResult base;
  base.label = "ft-base";
  base.total = kNsPerSec;
  RunResult slow;
  slow.label = "wc-base";
  slow.total = 2 * kNsPerSec;
  append_csv(path, "BT", {base, slow});
  append_csv(path, "SP", {base, slow});
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);  // header + 2x2 rows
  EXPECT_NE(lines[0].find("benchmark,scheme"), std::string::npos);
  EXPECT_NE(lines[1].find("BT,ft-base,1"), std::string::npos);
  EXPECT_NE(lines[4].find("SP,wc-base,2"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Json, WriteResultsJsonCreatesMissingDirectories) {
  const std::string root = ::testing::TempDir() + "/repro_json_nested";
  std::filesystem::remove_all(root);
  RunResult result;
  result.label = "ft-base";
  result.total = kNsPerSec;
  const std::string path = root + "/sub/BENCH_t.json";
  write_results_json(path, "BT", {result});
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"bench\": \"BT\""), std::string::npos);
  std::filesystem::remove_all(root);
}

/// Parses an argv-style list through a Cli wired like the bench
/// binaries (jobs >= 1, iterations >= 1, a flag, strings, a double).
struct CliFixture {
  bool fast = false;
  std::string benchmark;
  std::string trace_dir;
  std::size_t jobs = 0;
  std::uint32_t iterations = 0;
  double scale = 1.0;
  Cli cli{"fixture"};

  CliFixture() {
    cli.add_flag("fast", &fast, "trim");
    cli.add_string("benchmark", &benchmark, "name");
    cli.add_string("trace", &trace_dir, "dir");
    cli.add_uint("jobs", &jobs, "workers", /*min=*/1);
    cli.add_uint("iterations", &iterations, "count", /*min=*/1);
    cli.add_double("scale", &scale, "multiplier");
  }

  Cli::Status parse(std::vector<const char*> args) {
    args.insert(args.begin(), "fixture");
    return cli.parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(Cli, ParsesWellFormedArguments) {
  CliFixture f;
  ASSERT_EQ(f.parse({"--fast", "--benchmark=CG", "--jobs=4",
                     "--iterations=25", "--scale=0.5", "--trace=/tmp/t"}),
            Cli::Status::kOk);
  EXPECT_TRUE(f.fast);
  EXPECT_EQ(f.benchmark, "CG");
  EXPECT_EQ(f.jobs, 4u);
  EXPECT_EQ(f.iterations, 25u);
  EXPECT_DOUBLE_EQ(f.scale, 0.5);
  EXPECT_EQ(f.trace_dir, "/tmp/t");
}

TEST(Cli, RejectsZeroJobs) {
  CliFixture f;
  EXPECT_EQ(f.parse({"--jobs=0"}), Cli::Status::kError);
  EXPECT_NE(f.cli.error().find("below the minimum"), std::string::npos);
  EXPECT_EQ(f.jobs, 0u);  // target untouched on error
}

TEST(Cli, RejectsNegativeAndMalformedNumbers) {
  for (const char* arg :
       {"--jobs=-3", "--jobs=+3", "--jobs=", "--jobs=four",
        "--jobs=3x", "--jobs= 3", "--jobs=3.5",
        "--jobs=99999999999999999999999"}) {
    CliFixture f;
    EXPECT_EQ(f.parse({arg}), Cli::Status::kError) << arg;
    EXPECT_FALSE(f.cli.error().empty()) << arg;
    EXPECT_EQ(f.jobs, 0u) << arg;
  }
}

TEST(Cli, RejectsValuesAboveTheTargetTypeRange) {
  // iterations is uint32: 2^32 parses as a uint64 but must not wrap.
  CliFixture f;
  EXPECT_EQ(f.parse({"--iterations=4294967296"}), Cli::Status::kError);
  EXPECT_NE(f.cli.error().find("out of range"), std::string::npos);
}

TEST(Cli, RejectsUnknownFlagsAndPositionals) {
  {
    CliFixture f;
    EXPECT_EQ(f.parse({"--frobnicate=1"}), Cli::Status::kError);
    EXPECT_NE(f.cli.error().find("unknown flag"), std::string::npos);
  }
  {
    CliFixture f;
    EXPECT_EQ(f.parse({"CG"}), Cli::Status::kError);
    EXPECT_NE(f.cli.error().find("positional"), std::string::npos);
  }
}

TEST(Cli, RejectsMissingValueAndValueOnFlag) {
  {
    CliFixture f;
    EXPECT_EQ(f.parse({"--jobs"}), Cli::Status::kError);
    EXPECT_NE(f.cli.error().find("needs a value"), std::string::npos);
  }
  {
    CliFixture f;
    EXPECT_EQ(f.parse({"--fast=1"}), Cli::Status::kError);
    EXPECT_NE(f.cli.error().find("takes no value"), std::string::npos);
  }
}

TEST(Cli, RejectsNonPositiveDoubles) {
  for (const char* arg : {"--scale=0", "--scale=-0.5", "--scale=nope"}) {
    CliFixture f;
    EXPECT_EQ(f.parse(std::vector<const char*>{arg}), Cli::Status::kError)
        << arg;
    EXPECT_DOUBLE_EQ(f.scale, 1.0) << arg;
  }
}

TEST(Cli, HelpShortCircuitsAndUsageListsEveryOption) {
  CliFixture f;
  EXPECT_EQ(f.parse({"--help"}), Cli::Status::kHelp);
  EXPECT_EQ(f.parse({"-h"}), Cli::Status::kHelp);
  const std::string usage = f.cli.usage();
  for (const char* name :
       {"--fast", "--benchmark", "--trace", "--jobs", "--iterations",
        "--scale"}) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
  EXPECT_NE(usage.find(">= 1"), std::string::npos);
}

TEST(Cli, EmptyStringValueIsAccepted) {
  CliFixture f;
  f.benchmark = "BT";
  ASSERT_EQ(f.parse({"--benchmark="}), Cli::Status::kOk);
  EXPECT_TRUE(f.benchmark.empty());
}

/// A Cli with the trace-frontend flag cluster registered, as the
/// bench/example binaries wire it.
struct ReplayCliFixture {
  ReplayCli replay;
  Cli cli{"fixture"};

  ReplayCliFixture() { replay.register_with(cli); }

  Cli::Status parse(std::vector<const char*> args) {
    args.insert(args.begin(), "fixture");
    return cli.parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(Cli, ReplayFlagsParseAndApplyToTheRunConfig) {
  ReplayCliFixture f;
  ASSERT_EQ(f.parse({"--replay=/tmp/x.rtrc"}), Cli::Status::kOk);
  EXPECT_EQ(f.replay.validate(), "");
  RunConfig config;
  f.replay.apply(config);
  EXPECT_EQ(config.replay, "/tmp/x.rtrc");
  EXPECT_TRUE(config.trace_out.empty());
}

TEST(Cli, ReplayTraceOutParsesAlone) {
  ReplayCliFixture f;
  ASSERT_EQ(f.parse({"--trace-out=/tmp/dump.rtrc"}), Cli::Status::kOk);
  EXPECT_EQ(f.replay.validate(), "");
  RunConfig config;
  f.replay.apply(config);
  EXPECT_EQ(config.trace_out, "/tmp/dump.rtrc");
}

TEST(Cli, ReplayConflictingFlagsFailValidation) {
  ReplayCliFixture f;
  ASSERT_EQ(f.parse({"--trace-out=/tmp/a.rtrc", "--replay=/tmp/b.rtrc"}),
            Cli::Status::kOk);
  EXPECT_NE(f.replay.validate().find("mutually exclusive"),
            std::string::npos);
}

TEST(Cli, ReplayFlagsAreStrictlyParsed) {
  {
    ReplayCliFixture f;
    EXPECT_EQ(f.parse({"--replay"}), Cli::Status::kError);  // missing value
  }
  {
    ReplayCliFixture f;
    EXPECT_EQ(f.parse({"--pipeline"}), Cli::Status::kError);  // removed
  }
  {
    ReplayCliFixture f;
    const std::string usage = f.cli.usage();
    for (const char* name : {"--trace-out", "--replay"}) {
      EXPECT_NE(usage.find(name), std::string::npos) << name;
    }
  }
}

TEST(Figures, MeanSlowdownAveragesAcrossBenchmarks) {
  RunResult base;
  base.label = "ft-base";
  base.total = kNsPerSec;
  RunResult slow;
  slow.label = "wc-base";
  slow.total = 2 * kNsPerSec;
  RunResult slower = slow;
  slower.total = 4 * kNsPerSec;
  const std::vector<std::vector<RunResult>> per_benchmark = {
      {base, slow}, {base, slower}};
  EXPECT_DOUBLE_EQ(mean_slowdown(per_benchmark, "wc-base", "ft-base"), 2.0);
}

}  // namespace
}  // namespace repro::harness
