// Parallel experiment scheduler with failure aggregation and resume.
//
// Every cell of a run matrix is an independent simulation: it builds
// its own Machine from its RunConfig (own memory system, address space,
// RNG seeded from the config), so cells share no mutable state and can
// run on host threads concurrently. The scheduler hands cells to a
// thread pool and stores each result at its config's index, so the
// returned vector is in input order regardless of which worker finished
// first -- with deterministic per-cell simulations this makes the whole
// sweep's output independent of the job count.
//
// Resilience (see DESIGN.md "Fault injection & graceful degradation"):
// a failing cell no longer aborts the sweep. Every cell runs to a
// verdict; failures are collected into CellFailure records (input
// order) and either returned alongside the successes (run_sweep) or
// raised as one SweepError that lists *every* failed cell
// (run_experiments). A wall-clock watchdog and checkpoint/resume make
// long sweeps survivable: a killed sweep rerun with the same checkpoint
// directory (a ResultCache, see result_cache.hpp) skips completed
// cells, and so does any other sweep that shares cells with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "repro/harness/run.hpp"

namespace repro::harness {

/// Resolves a requested job count: 0 means "pick for me" -- the
/// REPRO_JOBS environment variable if set, else the hardware
/// concurrency. Always at least 1.
[[nodiscard]] std::size_t effective_jobs(std::size_t requested);

/// Resolves a cell watchdog budget: a nonzero `requested` wins;
/// otherwise the strictly parsed REPRO_CELL_TIMEOUT_MS environment
/// variable (garbage or out-of-range values throw ContractViolation --
/// a silently ignored watchdog is worse than a crash); 0 = no
/// watchdog. Consulted by run_sweep, so the watchdog is reachable on
/// every sweep-driving binary even without the --cell-timeout-ms flag.
[[nodiscard]] std::uint32_t effective_cell_timeout_ms(
    std::uint32_t requested);

/// Why a cell ultimately failed. The numeric order is the severity
/// order exit_code() reports (higher = reported when classes mix);
/// each class maps to its own process exit code so callers and CI can
/// tell a deterministic simulation fault from a blown deadline from a
/// dead worker without parsing stderr.
enum class FailureClass : std::uint8_t {
  /// The simulation itself threw (contract violation, bad config, ...).
  kFault = 0,
  /// The wall-clock watchdog fired (CellTimeoutError).
  kTimeout = 1,
  /// The process computing the cell died (service worker pool; an
  /// in-process sweep never produces this class). Pinned at 3 so its
  /// exit code stays 6 for scripts that test it.
  kCrash = 3,
};

/// Stable lowercase identifier ("fault", "timeout", "crash").
[[nodiscard]] const char* failure_class_name(FailureClass cls);

/// Process exit code for a failure class: fault=3, timeout=4, crash=6
/// (0 = success, 1 = generic, 2 = usage error by convention).
[[nodiscard]] int failure_exit_code(FailureClass cls);

/// One failed cell of a sweep.
struct CellFailure {
  /// Index into the sweep's config vector.
  std::size_t index = 0;
  std::string benchmark;
  /// RunConfig::label() of the cell ("ft-upmlib", ...).
  std::string label;
  /// what() of the final exception.
  std::string message;
  /// The failure was a CellTimeoutError (watchdog).
  bool timeout = false;
  /// Failure classification (see FailureClass); `timeout` above is
  /// kept in sync for existing callers.
  FailureClass cls = FailureClass::kFault;

  /// "BT ft-upmlib [timeout]: <message>" -- the line
  /// SweepError::format joins.
  [[nodiscard]] std::string describe() const;
};

/// Host-side sweep supervision knobs (per sweep, not per cell).
struct SweepOptions {
  /// Worker threads; 0 = effective_jobs default.
  std::size_t jobs = 0;
  /// Default wall-clock watchdog applied to every cell whose own
  /// RunConfig::cell_timeout_ms is 0 (a per-cell value wins). 0 = no
  /// default watchdog.
  std::uint32_t cell_timeout_ms = 0;
  /// ResultCache directory (result_cache.hpp); the sweep daemon's
  /// --cache-dir reads and writes the same format. Empty = no
  /// checkpointing. Cells found here under their config_identity are
  /// decoded instead of re-simulated; each successful cell is added
  /// as it finishes. One process at a time per directory.
  std::string checkpoint_dir;
};

/// What the sweep did, for reporting and the JSON metadata block.
struct SweepStats {
  std::size_t cells_total = 0;
  std::size_t cells_ok = 0;
  std::size_t cells_failed = 0;
  /// Cells decoded from the checkpoint directory instead of simulated.
  std::size_t cells_resumed = 0;
  /// Cells aborted by the wall-clock watchdog.
  std::size_t watchdog_fires = 0;
};

struct SweepOutcome {
  /// One entry per config, in input order. A failed cell's entry is a
  /// default-constructed RunResult; check `failures` for its indices.
  std::vector<RunResult> results;
  /// Every failed cell, in input order (empty on full success).
  std::vector<CellFailure> failures;
  SweepStats stats;

  [[nodiscard]] bool ok() const { return failures.empty(); }

  /// 0 on full success; otherwise failure_exit_code() of the
  /// most-severe failure class present (crash > timeout > fault), so a
  /// bench's exit status names what went wrong.
  [[nodiscard]] int exit_code() const;
};

/// Aggregated sweep failure: lists every failed cell, not just the
/// first. Thrown by run_experiments; built from run_sweep's failures.
class SweepError : public std::runtime_error {
 public:
  explicit SweepError(std::vector<CellFailure> failures)
      : std::runtime_error(format(failures)), failures_(std::move(failures)) {}

  [[nodiscard]] const std::vector<CellFailure>& failures() const {
    return failures_;
  }

  /// "3 of 12 cells failed:" + one describe() line per failure.
  [[nodiscard]] static std::string format(
      const std::vector<CellFailure>& failures);

 private:
  std::vector<CellFailure> failures_;
};

/// Runs every config through run_benchmark on options.jobs worker
/// threads and returns all results, all failures and the sweep
/// statistics without throwing on cell failures (option parsing /
/// contract violations in the scheduler itself still throw). Cells are
/// deterministic, so a failed cell is not retried; the remaining cells
/// always run.
[[nodiscard]] SweepOutcome run_sweep(const std::vector<RunConfig>& configs,
                                     const SweepOptions& options);

/// Throwing wrappers: return the results in input order on full
/// success, raise one SweepError describing *every* failed cell
/// otherwise. jobs=1 runs inline on the calling thread -- the
/// bit-exact serial mode.
[[nodiscard]] std::vector<RunResult> run_experiments(
    const std::vector<RunConfig>& configs, std::size_t jobs = 0);
[[nodiscard]] std::vector<RunResult> run_experiments(
    const std::vector<RunConfig>& configs, const SweepOptions& options);

}  // namespace repro::harness
