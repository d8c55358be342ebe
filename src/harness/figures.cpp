#include "repro/harness/figures.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "repro/common/assert.hpp"
#include "repro/common/stats.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/scheduler.hpp"

namespace repro::harness {

std::uint32_t effective_iterations(const std::string& benchmark,
                                   const FigureOptions& options) {
  if (options.iterations_override != 0) {
    return options.iterations_override;
  }
  if (options.fast) {
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
  config.iterations = effective_iterations(benchmark, options);
  config.trace_dir = options.trace_dir;
  config.no_fast_forward = options.no_fast_forward;
  return config;
}

SweepOptions FigureOptions::sweep() const {
  SweepOptions s;
  s.jobs = jobs;
  s.cell_timeout_ms = cell_timeout_ms;
  s.checkpoint_dir = checkpoint_dir;
  return s;
}

const char* figure_name(Figure figure) {
  switch (figure) {
    case Figure::kFig1:
      return "fig1";
    case Figure::kFig4:
      return "fig4";
    case Figure::kTable2:
      return "table2";
    case Figure::kFig5:
      return "fig5";
    case Figure::kFig6:
      return "fig6";
  }
  REPRO_UNREACHABLE("unknown Figure");
}

namespace {

/// ft x {base, IRIXmig, upmlib, recrep}: Fig. 5's bars, and Fig. 6's
/// with every solver body repeated `scale` times.
std::vector<RunConfig> recrep_cells(const std::string& benchmark,
                                    const FigureOptions& options,
                                    std::uint32_t scale) {
  std::vector<RunConfig> cells;
  for (int variant = 0; variant < 4; ++variant) {
    RunConfig config = base_config(benchmark, options);
    config.compute_scale = scale;
    config.kernel_migration = variant == 1;
    if (variant == 2) {
      config.upm_mode = nas::UpmMode::kDistribution;
    } else if (variant == 3) {
      config.upm_mode = nas::UpmMode::kRecordReplay;
      config.upm.max_critical_pages = 20;
    }
    cells.push_back(std::move(config));
  }
  return cells;
}

/// The paper's mean slowdown for one scheme of a figure's summary.
struct PaperMean {
  const char* label;
  const char* paper;
};

constexpr PaperMean kFig1Means[] = {
    {"rr-base", "~+22%"},    {"rand-base", "~+23%"},
    {"wc-base", "~+90%"},    {"rr-IRIXmig", "~+16%"},
    {"rand-IRIXmig", "~+17%"}, {"wc-IRIXmig", "~+61%"}};
constexpr PaperMean kFig4Means[] = {
    {"ft-upmlib", "-6% .. -22% (except CG ~0)"},
    {"rr-upmlib", "~+5%"},
    {"rand-upmlib", "~+6%"},
    {"wc-upmlib", "~+14%"}};

/// Fig. 1 and Fig. 4: a chart and a table per benchmark, then the mean
/// slowdowns across benchmarks.
void render_placement(std::ostream& os, Figure figure,
                      const std::vector<std::string>& benchmarks,
                      const std::vector<std::vector<RunResult>>& results,
                      const std::string& csv_path,
                      const std::string& json_dir) {
  const bool fig1 = figure == Figure::kFig1;
  os << (fig1 ? "Figure 1: impact of page placement on the NAS benchmarks "
                "(simulated 16-proc Origin2000)\n\n"
              : "Figure 4: UPMlib distribution mode under the four page "
                "placement schemes (simulated 16-proc Origin2000)\n\n");
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const std::string& bench = benchmarks[b];
    print_figure(os, "NAS " + bench + ", Class A (scaled), 16 processors",
                 results[b]);
    results_table(results[b]).print(os);
    os << '\n';
    if (!csv_path.empty()) {
      append_csv(csv_path, bench, results[b]);
    }
    if (!json_dir.empty()) {
      // The per-figure binaries' file and bench names, so BENCH files
      // stay byte-identical to theirs.
      write_results_json(
          json_dir + "/BENCH_" + figure_name(figure) + "_" + bench + ".json",
          (fig1 ? "fig1_placement/" : "fig4_upmlib/") + bench, results[b]);
    }
  }
  if (benchmarks.size() > 1) {
    TextTable summary({"scheme", "mean slowdown vs ft-base", "paper"});
    std::span<const PaperMean> means = kFig4Means;
    if (fig1) {
      means = kFig1Means;
    }
    for (const PaperMean& mean : means) {
      summary.add_row(
          {mean.label,
           fmt_percent(mean_slowdown(results, mean.label, "ft-base")),
           mean.paper});
    }
    os << "Average across benchmarks:\n";
    summary.print(os);
  }
}

void render_table2(std::ostream& os,
                   const std::vector<std::string>& benchmarks,
                   const std::vector<std::vector<RunResult>>& results) {
  os << "Table 2: UPMlib engine statistics (slowdown over the "
        "last 75% of iterations\nvs ft-base, and the fraction of "
        "migrations performed by the first invocation)\n\n";
  TextTable table({"Benchmark", "rr last-75%", "rand last-75%",
                   "wc last-75%", "rr 1st-iter", "rand 1st-iter",
                   "wc 1st-iter"});
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    // Cells: ft baseline first, then the three upmlib placements.
    const std::vector<RunResult>& cells = results[b];
    const double ft_late =
        static_cast<double>(cells[0].mean_iteration_last(0.75));
    std::vector<std::string> row = {benchmarks[b]};
    std::vector<std::string> fractions;
    for (std::size_t p = 1; p < cells.size(); ++p) {
      const RunResult& r = cells[p];
      row.push_back(fmt_percent(slowdown(
          static_cast<double>(r.mean_iteration_last(0.75)), ft_late)));
      fractions.push_back(fmt_double(
          r.upm_stats.first_invocation_fraction() * 100.0, 0) + "%");
    }
    row.insert(row.end(), fractions.begin(), fractions.end());
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "\nPaper: last-75% slowdowns all <= 2.7%; first-iteration "
        "migration fractions 78%-100%.\n";
}

/// Fig. 5 and Fig. 6: a chart and a z_solve table per benchmark; Fig. 5
/// also counts the record-replay migrations, Fig. 6 compares ft-recrep
/// with ft-upmlib.
void render_recrep(std::ostream& os, Figure figure,
                   const std::vector<std::string>& benchmarks,
                   const std::vector<std::vector<RunResult>>& results,
                   std::uint32_t scale) {
  const bool fig5 = figure == Figure::kFig5;
  if (fig5) {
    os << "Figure 5: record-replay in NAS BT and SP (first-touch "
          "placement, n = 20 critical pages)\n\n";
  } else {
    os << "Figure 6: record-replay in the synthetically scaled BT "
          "(each solver body x" << scale << ")\n\n";
  }
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const std::vector<RunResult>& cells = results[b];
    print_figure(os,
                 "NAS " + benchmarks[b] +
                     (fig5 ? ", Class A (scaled)"
                           : " (scaled x" + std::to_string(scale) + ")") +
                     ", 16 processors",
                 cells);
    std::vector<std::string> columns = {"scheme", "time (s)", "z_solve (s)",
                                        "recrep overhead (s)"};
    if (fig5) {
      columns.emplace_back("replay+undo migrations");
    }
    TextTable table(std::move(columns));
    for (const RunResult& r : cells) {
      std::vector<std::string> row = {
          r.label, fmt_double(r.seconds(), 3),
          fmt_double(ns_to_seconds(r.phase_time("z_solve")), 3),
          fmt_double(ns_to_seconds(r.upm_stats.recrep_cost), 3)};
      if (fig5) {
        row.push_back(std::to_string(r.upm_stats.replay_migrations +
                                     r.upm_stats.undo_migrations));
      }
      table.add_row(std::move(row));
    }
    table.print(os);
    if (fig5) {
      os << '\n';
      continue;
    }
    const RunResult& dist = find_result(cells, "ft-upmlib");
    const RunResult& recrep = find_result(cells, "ft-recrep");
    os << "\nft-recrep vs ft-upmlib: "
       << fmt_percent(slowdown(recrep.seconds(), dist.seconds()))
       << " (paper: about -5% -- record-replay wins once the phase "
          "is long enough)\n";
  }
}

}  // namespace

std::vector<RunConfig> figure_cells(Figure figure,
                                    const std::string& benchmark,
                                    const FigureOptions& options,
                                    std::uint32_t scale) {
  std::vector<RunConfig> cells;
  switch (figure) {
    case Figure::kFig1:
    case Figure::kFig4:
      for (const std::string placement : {"ft", "rr", "rand", "wc"}) {
        RunConfig config = base_config(benchmark, options);
        config.placement = placement;
        cells.push_back(config);
        config.kernel_migration = true;
        cells.push_back(config);
        if (figure == Figure::kFig4) {
          config.kernel_migration = false;
          config.upm_mode = nas::UpmMode::kDistribution;
          cells.push_back(std::move(config));
        }
      }
      break;
    case Figure::kTable2:
      cells.push_back(base_config(benchmark, options));
      for (const std::string placement : {"rr", "rand", "wc"}) {
        RunConfig config = base_config(benchmark, options);
        config.placement = placement;
        config.upm_mode = nas::UpmMode::kDistribution;
        cells.push_back(std::move(config));
      }
      break;
    case Figure::kFig5:
      if (benchmark == "BT" || benchmark == "SP") {
        cells = recrep_cells(benchmark, options, 1);
      }
      break;
    case Figure::kFig6:
      if (benchmark == "BT") {
        cells = recrep_cells(benchmark, options, scale);
      }
      break;
  }
  return cells;
}

void render_figure(std::ostream& os, Figure figure,
                   const std::vector<std::string>& benchmarks,
                   const std::vector<std::vector<RunResult>>& results,
                   std::uint32_t scale, const std::string& csv_path,
                   const std::string& json_dir) {
  REPRO_REQUIRE(results.size() == benchmarks.size());
  switch (figure) {
    case Figure::kFig1:
    case Figure::kFig4:
      render_placement(os, figure, benchmarks, results, csv_path, json_dir);
      return;
    case Figure::kTable2:
      render_table2(os, benchmarks, results);
      return;
    case Figure::kFig5:
    case Figure::kFig6:
      render_recrep(os, figure, benchmarks, results, scale);
      return;
  }
}

FigurePlan::FigurePlan(std::vector<Figure> figures,
                       std::vector<std::string> benchmarks,
                       FigureOptions options, std::uint32_t scale)
    : figures_(std::move(figures)),
      benchmarks_(std::move(benchmarks)),
      options_(std::move(options)),
      scale_(scale) {
  std::unordered_set<std::uint64_t> seen;
  for (const Figure figure : figures_) {
    for (const std::string& bench : benchmarks_) {
      for (RunConfig& cell : figure_cells(figure, bench, options_, scale_)) {
        if (seen.insert(config_identity(cell)).second) {
          cells_.push_back(std::move(cell));
        }
      }
    }
  }
  std::stable_sort(cells_.begin(), cells_.end(),
                   [](const RunConfig& a, const RunConfig& b) {
                     return a.compute_scale > b.compute_scale;
                   });
}

std::vector<Figure> FigurePlan::render(std::ostream& os,
                                       const SweepOutcome& outcome,
                                       const std::string& csv_path,
                                       const std::string& json_dir) const {
  REPRO_REQUIRE(outcome.results.size() == cells_.size());
  std::vector<bool> failed(cells_.size(), false);
  for (const CellFailure& f : outcome.failures) {
    failed[f.index] = true;
  }
  std::unordered_map<std::uint64_t, const RunResult*> by_identity;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!failed[i]) {
      by_identity.emplace(config_identity(cells_[i]), &outcome.results[i]);
    }
  }
  std::vector<Figure> not_rendered;
  for (const Figure figure : figures_) {
    std::vector<std::string> shown;
    std::vector<std::vector<RunResult>> results;
    bool whole = true;
    for (const std::string& bench : benchmarks_) {
      const std::vector<RunConfig> cells =
          figure_cells(figure, bench, options_, scale_);
      if (cells.empty()) {
        continue;
      }
      shown.push_back(bench);
      results.emplace_back();
      for (const RunConfig& cell : cells) {
        const auto it = by_identity.find(config_identity(cell));
        if (it == by_identity.end()) {
          whole = false;
        } else {
          results.back().push_back(*it->second);
        }
      }
    }
    if (shown.empty()) {
      continue;
    }
    if (!whole) {
      not_rendered.push_back(figure);
      continue;
    }
    render_figure(os, figure, shown, results, scale_, csv_path, json_dir);
  }
  return not_rendered;
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
