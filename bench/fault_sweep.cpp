// Fault sweep: UPMlib convergence and graceful degradation under
// deterministic fault injection (see src/fault and DESIGN.md "Fault
// injection & graceful degradation").
//
// The paper's experiments run on a dedicated machine. This bench asks
// what happens off that happy path: reference counters get corrupted,
// page moves come back BUSY, nodes stall and threads lose timeslices
// -- does the adaptive engine still converge, and how much of its gain
// survives? The matrix is {benchmarks} x {fault rates} x {ft,rr,wc} x
// {base,upmlib}. Rate-0 cells carry an empty FaultPlan, so they are
// byte-identical to Figure 4's cells in `reproduce` (same configs, no
// injector) -- the sweep's own built-in control group.
//
// Fault cells enable UPMlib's counter hysteresis (two consecutive
// qualifying passes before a migration) so one corrupted counter read
// cannot trigger a migration storm; fault-free cells keep the paper's
// immediate-migration behaviour.
//
// Usage: fault_sweep [--fast] [--iterations=N] [--benchmark=NAME]
//                    [--rates=0,0.01,0.05] [--fault-seed=S] [--jobs=N]
//                    [--json=DIR] [--trace=DIR] [--cell-timeout-ms=MS]
//                    [--checkpoint-dir=DIR]
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/stats.hpp"
#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/figures.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/scheduler.hpp"

using namespace repro;
using namespace repro::harness;

namespace {

/// Parses "0,0.01,0.05" into rates; returns false on malformed input.
bool parse_rates(const std::string& csv, std::vector<double>* out) {
  out->clear();
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    try {
      std::size_t used = 0;
      const double rate = std::stod(item, &used);
      if (used != item.size() || rate < 0.0 || rate > 1.0) {
        return false;
      }
      out->push_back(rate);
    } catch (const std::exception&) {
      return false;
    }
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  FigureOptions options;
  std::string benchmark;
  std::string json_path;
  std::string rates_csv = "0,0.01,0.05";
  std::uint64_t fault_seed = fault::FaultPlan{}.seed;
  Cli cli("fault_sweep");
  cli.add_flag("fast", &options.fast, "trim the long benchmarks");
  cli.add_uint("iterations", &options.iterations_override,
               "override the per-benchmark iteration count", /*min=*/1);
  cli.add_string("benchmark", &benchmark, "run a single benchmark");
  cli.add_string("rates", &rates_csv,
                 "comma-separated fault rates in [0,1] (0 = control row)");
  cli.add_uint("fault-seed", &fault_seed,
               "seed of the deterministic fault streams");
  cli.add_uint("jobs", &options.jobs, "worker threads for the run matrix",
               /*min=*/1);
  cli.add_string("json", &json_path, "write BENCH_*.json files here");
  cli.add_string("trace", &options.trace_dir,
                 "record event traces and export them here");
  cli.add_uint("cell-timeout-ms", &options.cell_timeout_ms,
               "abort any cell exceeding this wall-clock budget (ms; env "
               "REPRO_CELL_TIMEOUT_MS)",
               /*min=*/1);
  cli.add_string("checkpoint-dir", &options.checkpoint_dir,
                 "save/resume completed cells in this directory");
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
  std::vector<double> rates;
  if (!parse_rates(rates_csv, &rates)) {
    std::cerr << "error: --rates must be a comma-separated list of "
                 "values in [0,1]\n";
    return 2;
  }
  const std::vector<std::string> benchmarks =
      benchmark.empty() ? nas::workload_names()
                        : std::vector<std::string>{benchmark};

  std::cout << "Fault sweep: UPMlib degradation under injected faults "
               "(simulated 16-proc Origin2000)\n\n";

  // Worst failure class across every benchmark's sweep decides the
  // process exit code (fault=3 < timeout=4 < crash=6; see
  // failure_exit_code).
  int exit_code = 0;
  for (const std::string& bench : benchmarks) {
    std::vector<RunConfig> configs;
    for (const double rate : rates) {
      for (const std::string placement : {"ft", "rr", "wc"}) {
        for (const bool upm : {false, true}) {
          RunConfig config = base_config(bench, options);
          config.placement = placement;
          if (upm) {
            config.upm_mode = nas::UpmMode::kDistribution;
          }
          if (rate > 0.0) {
            config.fault.seed = fault_seed;
            config.fault.set_rate(rate);
            // One garbled counter read must not trigger a migration
            // storm: require two consecutive qualifying passes.
            config.upm.hysteresis_passes = 2;
          }
          configs.push_back(std::move(config));
        }
      }
    }
    const SweepOutcome outcome = run_sweep(configs, options.sweep());
    for (const CellFailure& f : outcome.failures) {
      std::cerr << "FAILED " << f.describe() << '\n';
    }
    exit_code = std::max(exit_code, outcome.exit_code());

    // One row per cell; slowdowns are vs. this benchmark's fault-free
    // ft-base cell (the paper's usual baseline).
    std::vector<RunResult> results;
    const std::size_t cells_per_rate = 6;
    double base_seconds = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i].fault.empty() && configs[i].label() == "ft-base" &&
          outcome.results[i].total != 0) {
        base_seconds = outcome.results[i].seconds();
        break;
      }
    }
    TextTable table({"rate", "scheme", "time (s)", "vs ft-base@0",
                     "faults", "busy retries", "give-ups", "deferrals"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const RunResult& r = outcome.results[i];
      if (r.label.empty()) {
        continue;  // failed cell; already reported above
      }
      table.add_row(
          {fmt_double(rates[i / cells_per_rate], 3), r.label,
           fmt_double(r.seconds(), 3),
           base_seconds > 0.0
               ? fmt_percent(slowdown(r.seconds(), base_seconds))
               : "n/a",
           std::to_string(r.fault_stats.injected_total()),
           std::to_string(r.upm_stats.busy_retries),
           std::to_string(r.upm_stats.give_ups),
           std::to_string(r.upm_stats.hysteresis_deferrals)});
      results.push_back(r);
    }
    std::cout << "NAS " << bench << ":\n";
    table.print(std::cout);
    std::cout << "  cells: " << outcome.stats.cells_ok << "/"
              << outcome.stats.cells_total << " ok, "
              << outcome.stats.cells_resumed << " resumed, "
              << outcome.stats.watchdog_fires << " watchdog\n\n";
    if (!json_path.empty()) {
      write_results_json(json_path + "/BENCH_fault_" + bench + ".json",
                         "fault_sweep/" + bench, results);
    }
  }
  return exit_code;
}
