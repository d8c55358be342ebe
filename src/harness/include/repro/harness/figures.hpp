// Shared plumbing for the bench binaries that regenerate the paper's
// figures and tables: run matrices, slowdown computation and the
// paper-style chart/table rendering.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "repro/common/table.hpp"
#include "repro/harness/run.hpp"
#include "repro/harness/scheduler.hpp"

namespace repro::harness {

struct FigureOptions {
  /// 0 = the paper's iteration counts (BT 200, SP 15, CG 400, MG 4,
  /// FT 6); the REPRO_FAST environment variable trims the two long
  /// benchmarks for quick runs.
  std::uint32_t iterations_override = 0;
  std::uint64_t seed = 12345;
  /// Worker threads for the run matrix (see scheduler.hpp): 0 = auto
  /// (REPRO_JOBS, else hardware concurrency); 1 = serial.
  std::size_t jobs = 0;
  /// Non-empty: record an event trace of every run and export the
  /// canonical dump + Chrome trace into this directory (--trace=DIR).
  std::string trace_dir;
  /// Simulate every timed iteration in full instead of fast-forwarding
  /// once a steady state is detected (--no-fast-forward).
  bool no_fast_forward = false;
  /// Fault-injection plan applied to every cell (--fault-seed /
  /// --fault-rate; empty = no injector, byte-identical to a build
  /// without the fault subsystem).
  fault::FaultPlan fault;
  /// Per-cell wall-clock watchdog in milliseconds (--cell-timeout);
  /// 0 disables it. See SweepOptions.
  std::uint32_t cell_timeout_ms = 0;
  /// Checkpoint/resume directory (--checkpoint-dir), a ResultCache
  /// directory; empty = off. See SweepOptions::checkpoint_dir.
  std::string checkpoint_dir;
  memsys::MachineConfig machine;

  /// The SweepOptions these figure options imply.
  [[nodiscard]] SweepOptions sweep() const;
};

/// Iterations to run for `benchmark` under `options` (honours
/// REPRO_FAST).
[[nodiscard]] std::uint32_t effective_iterations(
    const std::string& benchmark, const FigureOptions& options);

/// Builds the RunConfig shared by all figure benches.
[[nodiscard]] RunConfig base_config(const std::string& benchmark,
                                    const FigureOptions& options);

/// Figure 1 row for one benchmark: {ft,rr,rand,wc} x {-, IRIXmig}.
[[nodiscard]] std::vector<RunResult> run_placement_matrix(
    const std::string& benchmark, const FigureOptions& options);

/// Figure 4 additions: {ft,rr,rand,wc}-upmlib.
[[nodiscard]] std::vector<RunResult> run_upmlib_row(
    const std::string& benchmark, const FigureOptions& options);

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
