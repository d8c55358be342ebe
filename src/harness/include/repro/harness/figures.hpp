// The paper's figures and tables as one reproduction plan: which cells
// each figure reads, the plan that runs the union of those cells once,
// and the paper-style chart/table rendering.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "repro/common/table.hpp"
#include "repro/harness/run.hpp"
#include "repro/harness/scheduler.hpp"

namespace repro::harness {

struct FigureOptions {
  /// 0 = the paper's iteration counts (BT 200, SP 400, CG 400, MG 4,
  /// FT 6), or the trimmed counts under `fast`.
  std::uint32_t iterations_override = 0;
  /// Trim the long benchmarks for quick runs (--fast): BT to 20, SP and
  /// CG to 40 iterations; the short ones already match the paper.
  bool fast = false;
  /// Worker threads for the run matrix (see scheduler.hpp): 0 = auto
  /// (REPRO_JOBS, else hardware concurrency); 1 = serial.
  std::size_t jobs = 0;
  /// Non-empty: record an event trace of every run and export the
  /// canonical dump + Chrome trace into this directory (--trace=DIR).
  std::string trace_dir;
  /// Simulate every timed iteration in full instead of fast-forwarding
  /// once a steady state is detected (--no-fast-forward).
  bool no_fast_forward = false;
  /// Per-cell wall-clock watchdog in milliseconds (--cell-timeout-ms);
  /// 0 disables it. See SweepOptions.
  std::uint32_t cell_timeout_ms = 0;
  /// Checkpoint/resume directory (--checkpoint-dir), a ResultCache
  /// directory; empty = off. See SweepOptions::checkpoint_dir.
  std::string checkpoint_dir;

  /// The SweepOptions these figure options imply.
  [[nodiscard]] SweepOptions sweep() const;
};

/// Iterations to run for `benchmark` under `options` (0 = the
/// benchmark's paper default).
[[nodiscard]] std::uint32_t effective_iterations(
    const std::string& benchmark, const FigureOptions& options);

/// Builds the RunConfig shared by all figure benches.
[[nodiscard]] RunConfig base_config(const std::string& benchmark,
                                    const FigureOptions& options);

/// The paper's results that read the benchmark x placement x engine
/// grid, in print order.
enum class Figure : std::uint8_t { kFig1, kFig4, kTable2, kFig5, kFig6 };

inline constexpr std::array<Figure, 5> kAllFigures = {
    Figure::kFig1, Figure::kFig4, Figure::kTable2, Figure::kFig5,
    Figure::kFig6};

/// "fig1", "fig4", "table2", "fig5" or "fig6".
[[nodiscard]] const char* figure_name(Figure figure);

/// The cells `figure` reads for `benchmark`, in the order its renderer
/// takes them; empty when the figure does not show the benchmark
/// (Fig. 5 shows BT and SP, Fig. 6 only BT). `scale` is Fig. 6's
/// solver-body repetition factor.
///  - Fig. 1: {ft,rr,rand,wc} x {base, IRIXmig};
///  - Fig. 4: {ft,rr,rand,wc} x {base, IRIXmig, upmlib};
///  - Table 2: ft-base, then {rr,rand,wc}-upmlib;
///  - Fig. 5 and Fig. 6: ft x {base, IRIXmig, upmlib, recrep with n = 20
///    critical pages}, at compute_scale 1 and `scale`.
[[nodiscard]] std::vector<RunConfig> figure_cells(
    Figure figure, const std::string& benchmark,
    const FigureOptions& options, std::uint32_t scale);

/// Renders `figure`: `results[b]` holds the results of
/// figure_cells(figure, benchmarks[b], ...) in that order. Fig. 1 and
/// Fig. 4 also append their rows to `csv_path` and write
/// BENCH_fig{1,4}_<benchmark>.json into `json_dir` (each when
/// non-empty).
void render_figure(std::ostream& os, Figure figure,
                   const std::vector<std::string>& benchmarks,
                   const std::vector<std::vector<RunResult>>& results,
                   std::uint32_t scale, const std::string& csv_path,
                   const std::string& json_dir);

/// Several figures as one sweep. Fig. 4 reads every Fig. 1 cell, and
/// Table 2 and Fig. 5 read Fig. 4's, so the plan runs each distinct
/// config_identity once and renders every figure from the results
/// looked up by identity.
class FigurePlan {
 public:
  FigurePlan(std::vector<Figure> figures,
             std::vector<std::string> benchmarks, FigureOptions options,
             std::uint32_t scale);

  /// The distinct cells, those with a compute_scale above 1 first: a
  /// scaled cell costs several unscaled ones and would otherwise start
  /// last and finish alone on one worker.
  [[nodiscard]] const std::vector<RunConfig>& cells() const {
    return cells_;
  }

  /// Renders, in order, each figure that shows one of the benchmarks,
  /// from `outcome` = run_sweep(cells(), ...); csv_path and json_dir as
  /// in render_figure. A figure that reads a failed cell is not
  /// rendered; returns those figures.
  std::vector<Figure> render(std::ostream& os, const SweepOutcome& outcome,
                             const std::string& csv_path,
                             const std::string& json_dir) const;

 private:
  std::vector<Figure> figures_;
  std::vector<std::string> benchmarks_;
  FigureOptions options_;
  std::uint32_t scale_;
  std::vector<RunConfig> cells_;
};

/// Renders one benchmark's results as a paper-style horizontal bar
/// chart; the bar whose label equals `baseline_label` becomes the
/// baseline line.
void print_figure(std::ostream& os, const std::string& title,
                  const std::vector<RunResult>& results,
                  const std::string& baseline_label = "ft-base");

/// Summary table: label, execution time, slowdown vs. baseline, remote
/// miss fraction.
[[nodiscard]] TextTable results_table(const std::vector<RunResult>& results,
                                      const std::string& baseline_label =
                                          "ft-base");

/// Finds a result by label; throws if absent.
[[nodiscard]] const RunResult& find_result(
    const std::vector<RunResult>& results, const std::string& label);

/// Appends one benchmark's results to a CSV file (creating it with a
/// header on first use). Columns: benchmark, scheme, seconds, slowdown
/// vs baseline, remote fraction, migrations.
void append_csv(const std::string& path, const std::string& benchmark,
                const std::vector<RunResult>& results,
                const std::string& baseline_label = "ft-base");

/// Mean slowdown (fraction) of the labelled scheme vs. baseline across
/// several benchmarks' result vectors.
[[nodiscard]] double mean_slowdown(
    const std::vector<std::vector<RunResult>>& per_benchmark,
    const std::string& label, const std::string& baseline_label);

}  // namespace repro::harness
