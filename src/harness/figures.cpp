#include "repro/harness/figures.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/common/stats.hpp"
#include "repro/harness/scheduler.hpp"

namespace repro::harness {

std::uint32_t effective_iterations(const std::string& benchmark,
                                   const FigureOptions& options) {
  if (options.iterations_override != 0) {
    return options.iterations_override;
  }
  if (Env::global().get_bool("REPRO_FAST", false)) {
    // Trim the two long benchmarks; the short ones already match the
    // paper's counts.
    if (benchmark == "BT") {
      return 20;
    }
    if (benchmark == "SP" || benchmark == "CG") {
      return 40;
    }
  }
  return 0;  // benchmark default
}

RunConfig base_config(const std::string& benchmark,
                      const FigureOptions& options) {
  RunConfig config;
  config.benchmark = benchmark;
  config.machine = options.machine;
  config.seed = options.seed;
  config.iterations = effective_iterations(benchmark, options);
  config.trace_dir = options.trace_dir;
  config.no_fast_forward = options.no_fast_forward;
  config.fault = options.fault;
  return config;
}

SweepOptions FigureOptions::sweep() const {
  SweepOptions s;
  s.jobs = jobs;
  s.cell_timeout_ms = cell_timeout_ms;
  s.checkpoint_dir = checkpoint_dir;
  return s;
}

std::vector<RunResult> run_placement_matrix(const std::string& benchmark,
                                            const FigureOptions& options) {
  std::vector<RunConfig> configs;
  for (const std::string placement : {"ft", "rr", "rand", "wc"}) {
    for (const bool kernel_mig : {false, true}) {
      RunConfig config = base_config(benchmark, options);
      config.placement = placement;
      config.kernel_migration = kernel_mig;
      configs.push_back(std::move(config));
    }
  }
  return run_experiments(configs, options.sweep());
}

std::vector<RunResult> run_upmlib_row(const std::string& benchmark,
                                      const FigureOptions& options) {
  std::vector<RunConfig> configs;
  for (const std::string placement : {"ft", "rr", "rand", "wc"}) {
    RunConfig config = base_config(benchmark, options);
    config.placement = placement;
    config.upm_mode = nas::UpmMode::kDistribution;
    configs.push_back(std::move(config));
  }
  return run_experiments(configs, options.sweep());
}

void print_figure(std::ostream& os, const std::string& title,
                  const std::vector<RunResult>& results,
                  const std::string& baseline_label) {
  BarChart chart(title, "s");
  for (const RunResult& r : results) {
    chart.add(r.label, r.seconds(),
              ns_to_seconds(r.upm_stats.recrep_cost));
    if (r.label == baseline_label) {
      chart.set_baseline(r.seconds());
    }
  }
  chart.print(os);
}

TextTable results_table(const std::vector<RunResult>& results,
                        const std::string& baseline_label) {
  const RunResult& base = find_result(results, baseline_label);
  TextTable table({"scheme", "time (s)", "vs " + baseline_label,
                   "remote miss frac", "migrations"});
  for (const RunResult& r : results) {
    const std::uint64_t migrations = r.upm_stats.distribution_migrations +
                                     r.upm_stats.replay_migrations +
                                     r.upm_stats.undo_migrations +
                                     r.daemon_stats.migrations;
    table.add_row({r.label, fmt_double(r.seconds(), 3),
                   fmt_percent(slowdown(r.seconds(), base.seconds())),
                   fmt_double(r.memory_totals.remote_fraction(), 3),
                   std::to_string(migrations)});
  }
  return table;
}

void append_csv(const std::string& path, const std::string& benchmark,
                const std::vector<RunResult>& results,
                const std::string& baseline_label) {
  const bool fresh = !std::filesystem::exists(path);
  std::ofstream out(path, std::ios::app);
  REPRO_REQUIRE_MSG(out.good(), "cannot open CSV output file");
  if (fresh) {
    out << "benchmark,scheme,seconds,slowdown_vs_baseline,"
           "remote_fraction,migrations\n";
  }
  const RunResult& base = find_result(results, baseline_label);
  for (const RunResult& r : results) {
    const std::uint64_t migrations = r.upm_stats.distribution_migrations +
                                     r.upm_stats.replay_migrations +
                                     r.upm_stats.undo_migrations +
                                     r.daemon_stats.migrations;
    out << benchmark << ',' << r.label << ',' << r.seconds() << ','
        << slowdown(r.seconds(), base.seconds()) << ','
        << r.memory_totals.remote_fraction() << ',' << migrations
        << '\n';
  }
}

const RunResult& find_result(const std::vector<RunResult>& results,
                             const std::string& label) {
  for (const RunResult& r : results) {
    if (r.label == label) {
      return r;
    }
  }
  REPRO_UNREACHABLE("result label not found");
}

double mean_slowdown(const std::vector<std::vector<RunResult>>& per_benchmark,
                     const std::string& label,
                     const std::string& baseline_label) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& results : per_benchmark) {
    const RunResult& r = find_result(results, label);
    const RunResult& base = find_result(results, baseline_label);
    sum += slowdown(r.seconds(), base.seconds());
    ++count;
  }
  REPRO_REQUIRE(count > 0);
  return sum / static_cast<double>(count);
}

}  // namespace repro::harness
