// The paper's reproduction: Figure 1, Figure 4, Table 2, Figure 5 and
// Figure 6, in that order, from one sweep.
//
// The five results read one benchmark x placement x engine grid on the
// simulated 16-processor Origin2000 (Figure 6 adds four BT cells whose
// solver bodies repeat --scale times). Figure 4 reads every Figure 1
// cell, and Table 2 and Figure 5 read Figure 4's, so the figures' 132
// cells hold 66 distinct configurations: the plan runs each once, the
// scaled cells first, and renders every figure from the results (see
// harness/figures.hpp). The paper's claims each figure reproduces are
// listed in EXPERIMENTS.md.
//
// Usage: reproduce [--fast] [--iterations=N] [--benchmark=NAME]
//                  [--scale=K] [--jobs=N] [--cell-timeout-ms=MS]
//                  [--no-fast-forward] [--csv=PATH] [--json=DIR]
//                  [--trace=DIR]
//
// --benchmark keeps one benchmark in every figure and skips the
// figures that do not show it (Figure 5 shows BT and SP, Figure 6 BT).
// --csv=PATH appends the Figure 1 rows, then the Figure 4 rows;
// --json=DIR writes BENCH_fig1_<benchmark>.json and
// BENCH_fig4_<benchmark>.json; --trace=DIR exports every cell's
// TRACE_*.{trace,chrome.json} (see DESIGN.md §10). A failed cell is
// reported on stderr as a FAILED line, the figures that read it are
// left out, and the exit code names the failure class (see
// SweepOutcome::exit_code).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "repro/harness/cli.hpp"
#include "repro/harness/figures.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/nas/workload.hpp"

using namespace repro;
using namespace repro::harness;

int main(int argc, char** argv) {
  FigureOptions options;
  std::string benchmark;
  std::uint32_t scale = 4;
  std::string csv_path;
  std::string json_dir;
  Cli cli("reproduce");
  cli.add_flag("fast", &options.fast,
               "trim the long benchmarks (BT 20, SP and CG 40 iterations)");
  cli.add_uint("iterations", &options.iterations_override,
               "override the per-benchmark iteration count", /*min=*/1);
  cli.add_string("benchmark", &benchmark,
                 "keep one benchmark (BT, SP, CG, MG or FT) in every figure");
  cli.add_uint("scale", &scale, "Figure 6's solver-body repetition factor",
               /*min=*/1);
  cli.add_uint("jobs", &options.jobs, "worker threads for the run matrix",
               /*min=*/1);
  cli.add_uint("cell-timeout-ms", &options.cell_timeout_ms,
               "abort any cell exceeding this wall-clock budget (ms; env "
               "REPRO_CELL_TIMEOUT_MS)",
               /*min=*/1);
  cli.add_flag("no-fast-forward", &options.no_fast_forward,
               "simulate every iteration in full (disable the "
               "steady-state fast-forward)");
  cli.add_string("csv", &csv_path,
                 "append the Figure 1 and Figure 4 rows to this CSV file");
  cli.add_string("json", &json_dir,
                 "write the Figure 1 and Figure 4 BENCH_*.json files here");
  cli.add_string("trace", &options.trace_dir,
                 "record event traces and export them here");
  switch (cli.parse(argc, argv)) {
    case Cli::Status::kHelp:
      std::cout << cli.usage();
      return 0;
    case Cli::Status::kError:
      std::cerr << "error: " << cli.error() << "\n\n" << cli.usage();
      return 2;
    case Cli::Status::kOk:
      break;
  }
  std::vector<std::string> benchmarks = nas::workload_names();
  if (!benchmark.empty()) {
    if (std::ranges::find(benchmarks, benchmark) == benchmarks.end()) {
      std::cerr << "error: --benchmark expects BT, SP, CG, MG or FT\n\n"
                << cli.usage();
      return 2;
    }
    benchmarks = {benchmark};
  }

  const FigurePlan plan({kAllFigures.begin(), kAllFigures.end()},
                        std::move(benchmarks), options, scale);
  const SweepOutcome outcome = run_sweep(plan.cells(), options.sweep());
  for (const CellFailure& f : outcome.failures) {
    std::cerr << "FAILED " << f.describe() << '\n';
  }
  for (const Figure figure : plan.render(std::cout, outcome, csv_path,
                                         json_dir)) {
    std::cerr << figure_name(figure) << ": not rendered, it reads a "
                                        "failed cell\n";
  }
  return outcome.exit_code();
}
