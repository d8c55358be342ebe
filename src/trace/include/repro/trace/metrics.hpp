// MetricsRegistry: per-iteration counters derived from a trace.
//
// The trace is the single source of truth; the registry walks every
// lane's events and buckets them by outer iteration, producing
// the numbers the paper's tables are made of (migrations per
// invocation, remote-access ratio, queue-pressure percentiles,
// barrier time) without any second accounting path in the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/trace/sink.hpp"

namespace repro::trace {

struct IterationMetrics {
  /// Outer iteration (0 = setup + cold start, 1.. = timed).
  std::uint32_t iteration = 0;
  /// Kernel-level page migrations, however requested.
  std::uint64_t migrations = 0;
  /// Migrations performed by UPMlib calls (migrate_memory + replay +
  /// undo; from kUpmCall payloads).
  std::uint64_t upm_migrations = 0;
  /// Migrations performed by the kernel daemon (kDaemonScan decisions).
  std::uint64_t daemon_migrations = 0;
  std::uint64_t replications = 0;
  std::uint64_t freezes = 0;
  Ns migration_cost = 0;
  /// Total join-barrier wait across all threads and regions.
  Ns barrier_wait = 0;
  /// Miss lines from kIterationEnd (0 for iteration 0: the harness
  /// resets memory statistics after cold start).
  std::uint64_t remote_miss_lines = 0;
  std::uint64_t local_miss_lines = 0;
  /// 95th percentile (nearest-rank) of the node-queue backlog samples
  /// taken at region joins within the iteration.
  Ns queue_backlog_p95 = 0;
  /// Faults injected (kFaultInjection events, all classes).
  std::uint64_t faults_injected = 0;
  /// Line-grain coherence counters (all zero unless the run had the
  /// coherence model attached; see repro::coherence).
  std::uint64_t line_fills = 0;         ///< kLineFill payload a
  std::uint64_t coherence_misses = 0;   ///< coherence-classified fills
  std::uint64_t line_invalidations = 0; ///< copies killed (kLineInvalidate b)
  std::uint64_t line_upgrades = 0;      ///< S->M upgrades
  std::uint64_t line_writebacks = 0;    ///< dirty evictions

  /// Fraction of miss lines served remotely; 0 when no misses.
  [[nodiscard]] double remote_ratio() const;
};

class MetricsRegistry {
 public:
  /// Derives metrics from the sink's events. Every field is a sum or
  /// a percentile per iteration, so the result equals a walk of the
  /// canonical stream; the lanes are read in place, unsorted.
  explicit MetricsRegistry(const TraceSink& sink);

  /// Per-iteration rows, ascending by iteration; only iterations that
  /// produced at least one event appear.
  [[nodiscard]] const std::vector<IterationMetrics>& per_iteration() const {
    return rows_;
  }

  /// Sums across all iterations (queue_backlog_p95 is recomputed over
  /// every sample, not averaged).
  [[nodiscard]] IterationMetrics totals() const { return totals_; }

  /// Migration counts of the timed iterations (iteration >= 1), in
  /// iteration order -- the shape Table 2's "migrations in the first
  /// iteration" argument is about.
  [[nodiscard]] std::vector<std::uint64_t> migrations_per_timed_iteration()
      const;

 private:
  std::vector<IterationMetrics> rows_;
  IterationMetrics totals_;
};

/// Nearest-rank p95 of a sample set (0 for an empty set). Exposed for
/// tests; `samples` is consumed (sorted in place).
[[nodiscard]] Ns percentile95(std::vector<Ns> samples);

}  // namespace repro::trace
