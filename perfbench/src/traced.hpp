// The traced run: per-layer host cost of one workload.
//
// drive_cell() is a copy of harness::run_benchmark's cell loop that
// times each call into a layer's public entry point (Machine::create,
// Workload::setup/cold_start/iteration, FastForward::probe/replay,
// Upmlib::migrate_memory) and reads each layer's counters. So the copy
// cannot drift from the real loop unnoticed, every cell it drives is
// also run through run_benchmark and the two result digests must match.
//
// Layers that run inside memory accesses have no entry point of their
// own, so their cost is attributed by difference against a twin cell
// with every iteration simulated (no fast-forward) and that layer off:
// the kernel daemon against the base twin, the coherence model against
// the page-grain twin, RTRC replay against the direct run.
//
// Every traced run reports every layer. When the workload never runs a
// layer (no daemon cell in service-grid, say), that layer's metrics
// come from a small probe cell instead, and the report says so.
#pragma once

#include "metrics.hpp"
#include "repro/harness/run.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host cost and counters summed over the cells of one traced run.
struct LayerSums {
  std::uint64_t ff_probes = 0;
  double ff_probe_ms = 0.0;
  double ff_replay_ms = 0.0;
  std::uint64_t iterations_timed = 0;
  std::uint64_t iterations_replayed = 0;

  double machine_ms = 0.0;
  double setup_ms = 0.0;
  double cold_start_ms = 0.0;
  double iteration_ms = 0.0;
  std::uint64_t iterations_simulated = 0;
  std::uint64_t ops = 0;

  std::uint64_t lines = 0;
  std::uint64_t miss_lines = 0;
  std::uint64_t remote_lines = 0;
  std::uint64_t tlb_misses = 0;

  std::uint64_t daemon_cells = 0;
  std::uint64_t daemon_interrupts = 0;
  std::uint64_t daemon_migrations = 0;
  double daemon_ms = 0.0;

  std::uint64_t migrate_calls = 0;
  double migrate_ms = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t recrep_migrations = 0;

  std::uint64_t dumps = 0;
  double dump_ms = 0.0;
  std::uint64_t dump_bytes = 0;
  std::uint64_t dump_ops = 0;
  double decode_ms = 0.0;
  std::uint64_t decoded_ops = 0;
  double replay_ms = 0.0;
  double direct_ms = 0.0;

  std::uint64_t coherence_cells = 0;
  std::uint64_t coherence_lines = 0;
  std::uint64_t coherence_miss_lines = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t upgrades = 0;
  double coherence_iteration_ms = 0.0;
  double pagegrain_iteration_ms = 0.0;

  std::uint64_t trace_events = 0;
};

struct DrivenCell {
  repro::harness::RunResult result;
  double wall_ms = 0.0;
  /// Host time inside Workload::iteration alone.
  double iteration_ms = 0.0;
};

/// Runs `config` like run_benchmark does, adding its host cost and
/// counters to `sums`. Analysis, fault plans, live trace dumps and
/// cell timeouts are outside the copy and rejected.
[[nodiscard]] DrivenCell drive_cell(const repro::harness::RunConfig& config,
                                    LayerSums& sums);

/// Runs `options.workload` traced and returns its per-layer metrics.
[[nodiscard]] Outcome run_traced(const Options& options);

}  // namespace perfbench
