// Experiment driver: builds a machine, instantiates a workload, runs
// the cold-start plus timed iterations under a given placement scheme
// and migration engine, and collects everything the paper's tables and
// figures need.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "repro/analysis/diagnostic.hpp"
#include "repro/coherence/config.hpp"
#include "repro/coherence/model.hpp"
#include "repro/fault/injector.hpp"
#include "repro/fault/plan.hpp"
#include "repro/memsys/config.hpp"
#include "repro/memsys/memory_system.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/runtime.hpp"
#include "repro/os/daemon.hpp"
#include "repro/os/kernel.hpp"
#include "repro/trace/metrics.hpp"
#include "repro/trace/sink.hpp"
#include "repro/upmlib/upmlib.hpp"

namespace repro::harness {

/// One experiment cell. Every field either feeds config_identity (see
/// harness/checkpoint.hpp) or is on its host-only list; whoever adds a
/// field adds a row to the table in
/// Checkpoint.IdentityCoversTheCoherenceModel.
struct RunConfig {
  std::string benchmark = "BT";
  /// "ft" | "rr" | "rand" | "wc" (paper Section 2).
  std::string placement = "ft";
  /// DSM_MIGRATION: the IRIX kernel migration daemon.
  bool kernel_migration = false;
  /// UPMlib mode (off / distribution / record-replay).
  nas::UpmMode upm_mode = nas::UpmMode::kOff;
  /// 0 = the benchmark's paper-default iteration count.
  std::uint32_t iterations = 0;
  /// Fig. 6 synthetic phase scaling.
  std::uint32_t compute_scale = 1;
  std::uint64_t seed = 12345;
  /// Run the static analyzer (repro::analysis) over every timed-phase
  /// region and the UPMlib call trace, log the findings through the
  /// leveled logger and return them in RunResult::diagnostics. Also
  /// enabled by REPRO_ANALYZE=1 in the environment.
  bool analyze = false;
  /// Record a structured event trace of the timed iterations (see
  /// repro::trace). The result then carries the sink, its canonical
  /// digest and the per-iteration metrics derived from the stream.
  /// Implied by a non-empty trace_dir or the REPRO_TRACE environment
  /// variable. Off (a null pointer everywhere) by default.
  bool trace = false;
  /// Directory to export TRACE_<benchmark>_<label>.trace (canonical
  /// dump) and .chrome.json (chrome://tracing / Perfetto) into; created
  /// if missing. Empty = keep the trace in memory only.
  std::string trace_dir;
  /// Disables the steady-state fast-forward (see
  /// repro::harness::FastForward): every timed iteration is simulated
  /// in full. Results are byte-identical either way -- this exists for
  /// A/B validation and timing honesty checks. Also forced off by
  /// REPRO_FAST_FORWARD=0 in the environment, and implicitly when
  /// `analyze` is set (the analyzer inspects each executed region).
  bool no_fast_forward = false;
  /// Deterministic fault-injection plan (see repro::fault). The
  /// default (all rates zero) attaches no injector at all, so the run
  /// is byte-identical to a build without the fault subsystem. A
  /// non-empty plan also declines the fast-forward by construction
  /// (the injector's digest is aperiodic while faults can fire).
  fault::FaultPlan fault;
  /// Host-side watchdog: abort this cell with CellTimeoutError when
  /// its wall-clock run time exceeds this many milliseconds (checked
  /// at iteration boundaries, so the simulation state is never torn).
  /// 0 disables the watchdog.
  std::uint32_t cell_timeout_ms = 0;
  /// Before simulating, dump the workload's frontend stream (regions,
  /// bindings, advances) to this RTRC trace file with dump_trace (see
  /// src/tracefmt and DESIGN.md §16). Mutually exclusive with `replay`;
  /// rejected for record-replay cells (their UPMlib calls fire *inside*
  /// iterations and are not replayable).
  std::string trace_out;
  /// Replay this RTRC trace file instead of instantiating `benchmark`
  /// (which is then ignored -- the workload's name comes from the
  /// trace). Placement, UPMlib distribution, the kernel daemon,
  /// coherence and tracing all compose unchanged; replaying a cell's
  /// dump under the cell's own config is byte-identical to simulating
  /// it directly. The fast-forward seeks past the iterations it
  /// synthesizes, up to the first whose chunk digests differ from the
  /// steady-state block's.
  std::string replay;
  /// Retired pipelined-replay switch; run_benchmark rejects true.
  bool pipeline = false;
  /// Line-grain coherence protocol: "" (off, the page-grain default --
  /// byte-identical to builds without repro::coherence), "msi" or
  /// "mesi". When set, the memory system classifies hits and misses
  /// through per-processor private caches and a line-grain sharer
  /// directory (see repro::coherence) and the label gains a
  /// "-msi"/"-mesi" suffix. The steady-state fast-forward gates on the
  /// model's behavioural digest and replays its statistics like the
  /// memory system's.
  std::string coherence;
  /// Geometry/cost overrides for the coherence model; ignored unless
  /// `coherence` is non-empty (the policy field is overwritten from the
  /// string above).
  coherence::CoherenceConfig coherence_config;

  memsys::MachineConfig machine;
  os::DaemonConfig daemon;
  upm::UpmConfig upm;
  nas::WorkloadParams workload;

  /// Paper-style label, e.g. "ft-base", "rr-IRIXmig", "wc-upmlib",
  /// "ft-recrep" ("base" = no migration engine at all).
  [[nodiscard]] std::string label() const;
};

/// Thrown by run_benchmark when a cell exceeds its wall-clock
/// watchdog deadline (RunConfig::cell_timeout_ms). The sweep scheduler
/// reports it in the aggregated error as a timeout failure.
class CellTimeoutError : public std::runtime_error {
 public:
  explicit CellTimeoutError(const std::string& what)
      : std::runtime_error(what) {}
};

struct RunResult {
  std::string label;
  std::string benchmark;
  /// Total simulated time of the timed iterations (cold start excluded).
  Ns total = 0;
  std::vector<Ns> iteration_times;
  std::vector<omp::RegionRecord> records;
  upm::UpmStats upm_stats;
  os::KernelStats kernel_stats;
  os::DaemonStats daemon_stats;
  memsys::ProcStats memory_totals;
  /// Static-analysis findings (empty unless RunConfig::analyze or
  /// REPRO_ANALYZE=1).
  std::vector<analysis::Diagnostic> diagnostics;
  /// The event trace of the timed iterations (null unless tracing was
  /// requested); shared so results stay copyable.
  std::shared_ptr<const trace::TraceSink> trace;
  /// FNV-1a digest of the canonical dump (16 hex chars; empty when
  /// tracing was off). Byte-identical across --jobs counts and reruns.
  std::string trace_digest;
  /// Per-iteration counters derived from the trace (same condition).
  std::vector<trace::IterationMetrics> iteration_metrics;
  /// How the timed iterations were produced: simulated in full versus
  /// synthesized by the steady-state fast-forward (they always sum to
  /// the requested iteration count).
  std::uint32_t iterations_simulated = 0;
  std::uint32_t iterations_replayed = 0;
  /// Injected-fault accounting (all zero when the plan was empty).
  fault::FaultStats fault_stats;
  /// Largest class rate of the cell's plan (0 = faults disabled);
  /// carried into BENCH_*.json so sweep rows are self-describing.
  double fault_rate = 0.0;
  /// Aggregate line-grain coherence counters over the timed iterations
  /// (all zero when RunConfig::coherence was empty).
  coherence::CoherenceStats coherence_totals;
  /// Whether the run executed under the line-grain coherence model.
  bool coherence_enabled = false;

  [[nodiscard]] double seconds() const { return ns_to_seconds(total); }

  /// Mean time of the last `fraction` of the iterations (paper Table 2
  /// reports slowdown over the last 75%).
  [[nodiscard]] Ns mean_iteration_last(double fraction) const;

  /// Sum of the durations of all regions whose name ends with `suffix`.
  [[nodiscard]] Ns phase_time(const std::string& suffix) const;
};

/// Runs one experiment configuration end to end.
[[nodiscard]] RunResult run_benchmark(const RunConfig& config);

/// Aggregate counters of a finished trace dump.
struct TraceDumpStats {
  std::uint64_t records = 0;
  std::uint64_t ops = 0;  // dispatched: each region counts its program
  std::uint64_t regions = 0;
  std::uint64_t programs = 0;  // distinct programs, each stored once
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint32_t iterations = 0;
};

/// Dumps `config`'s workload to an RTRC trace at `path` without
/// simulating: the machine is built, the workload set up, and the cold
/// start plus every timed iteration dispatched in the runtime's
/// dry-run mode. The declarative workloads' region streams are pure
/// functions of the workload parameters, never of simulated machine
/// state, so one dry dump replays under any placement/engine
/// configuration. run_benchmark calls this for `trace_out`.
/// Record-replay cells are rejected.
TraceDumpStats dump_trace(const RunConfig& config, const std::string& path);

}  // namespace repro::harness
