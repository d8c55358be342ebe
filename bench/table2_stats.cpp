// Table 2: statistics from executing the NAS benchmarks with different
// page placement schemes and the UPMlib migration engine.
//
// Two paper claims per benchmark x {rr, rand, wc}:
//  * the slowdown (vs. first-touch) over the LAST 75% of the iterations
//    is tiny (<= 2.7%, mostly < 1%): the engine reaches a stable,
//    first-touch-equivalent placement early;
//  * the overwhelming majority of migrations (78%-100%) happen after
//    the first iteration.
//
// Usage: table2_stats [--fast] [--iterations=N] [--jobs=N]
#include <iostream>
#include <string>

#include "repro/common/env.hpp"
#include "repro/common/stats.hpp"
#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/figures.hpp"
#include "repro/harness/scheduler.hpp"

using namespace repro;
using namespace repro::harness;

int main(int argc, char** argv) {
  FigureOptions options;
  bool fast = false;
  Cli cli("table2_stats");
  cli.add_flag("fast", &fast, "trim the long benchmarks (REPRO_FAST)");
  cli.add_flag("no-fast-forward", &options.no_fast_forward,
               "simulate every iteration in full (disable the "
               "steady-state fast-forward)");
  cli.add_uint("iterations", &options.iterations_override,
               "override the per-benchmark iteration count", /*min=*/1);
  cli.add_uint("jobs", &options.jobs, "worker threads for the run matrix",
               /*min=*/1);
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
  if (fast) {
    Env::global().set("REPRO_FAST", "1");
  }

  std::cout << "Table 2: UPMlib engine statistics (slowdown over the "
               "last 75% of iterations\nvs ft-base, and the fraction of "
               "migrations performed by the first invocation)\n\n";

  TextTable table({"Benchmark", "rr last-75%", "rand last-75%",
                   "wc last-75%", "rr 1st-iter", "rand 1st-iter",
                   "wc 1st-iter"});

  for (const std::string& bench : nas::workload_names()) {
    // Cells: ft baseline first, then the three upmlib placements.
    std::vector<RunConfig> configs;
    configs.push_back(base_config(bench, options));
    for (const std::string placement : {"rr", "rand", "wc"}) {
      RunConfig config = base_config(bench, options);
      config.placement = placement;
      config.upm_mode = nas::UpmMode::kDistribution;
      configs.push_back(std::move(config));
    }
    const std::vector<RunResult> results =
        run_experiments(configs, options.sweep());
    const double ft_late =
        static_cast<double>(results[0].mean_iteration_last(0.75));

    std::vector<std::string> row = {bench};
    std::vector<std::string> fractions;
    for (std::size_t p = 1; p < results.size(); ++p) {
      const RunResult& r = results[p];
      row.push_back(fmt_percent(slowdown(
          static_cast<double>(r.mean_iteration_last(0.75)), ft_late)));
      fractions.push_back(fmt_double(
          r.upm_stats.first_invocation_fraction() * 100.0, 0) + "%");
    }
    row.insert(row.end(), fractions.begin(), fractions.end());
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nPaper: last-75% slowdowns all <= 2.7%; first-iteration "
               "migration fractions 78%-100%.\n";
  return 0;
}
