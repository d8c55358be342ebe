// Steady-state fast-forward for the experiment harness.
//
// Iterative NAS workloads reach a fixed point after their warm-up
// transient: placement stops changing, caches and TLBs cycle through
// the same content, the migration engines are quiescent, and every
// further timed iteration repeats the previous one exactly (shifted in
// absolute time). Simulating those iterations one by one is pure
// overhead -- the paper-default iteration counts (BT 200, SP 400, ...)
// exist to amortize real-machine noise, not to exercise new simulator
// state.
//
// The FastForward watcher snapshots a cheap digest of all
// behaviour-relevant mutable state at the top of every timed iteration
// (see DESIGN.md "Steady-state fast-forward" for the exact coverage).
// The fixed point need not be a single state: cache/TLB eviction phase
// can settle into a short cycle instead (SP under random placement
// alternates between two states forever), so the watcher looks for the
// smallest period p <= kMaxPeriod such that the last 2p+1 snapshots
// are (a) digest-periodic with period p and (b) produced identical
// per-sub-iteration deltas across the two p-iteration blocks --
// iteration times, per-processor memory statistics, zero
// kernel/daemon/UPMlib migration activity, matching region records and
// trace-event streams shifted by one block period. Determinism then
// guarantees every remaining iteration repeats the cached block, so
// the harness replays whole blocks instead of simulating: the cached
// block's trace events are re-stamped (time += c * period, iteration
// += c * p, cumulative payloads extrapolated by their per-block
// deltas), region records are shifted, statistics advance by delta *
// blocks and the memory queues' horizons move with the clock. The
// fewer-than-p leftover iterations are then simulated for real from
// the time-shifted steady state. Results are byte-identical to the
// full simulation, including the canonical trace dump and its digest.
// Determinism covers the machine, not the frontend: the harness caps
// each replay at the iterations the workload proves dispatch what the
// cached block dispatched (nas::Workload::repeating_iterations) --
// all of them for a compiled model, those with equal chunk digests
// for a replayed RTRC trace.
//
// Cells that never reach a fixed point never fast-forward, by
// construction rather than by special-casing: the kernel daemon's
// counter windows reset on a cadence set by wall-window length, not
// the iteration period, so its digest drifts phase and repeats (if
// ever) only with periods far above kMaxPeriod; record--replay
// iterations perform real migrations every iteration (nonzero deltas
// fail the entry rule).
//
// Opt-out: RunConfig::no_fast_forward, --no-fast-forward on the bench
// drivers, or REPRO_FAST_FORWARD=0 in the environment.
#pragma once

#include <cstdint>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/memsys/memory_system.hpp"
#include "repro/omp/machine.hpp"
#include "repro/os/daemon.hpp"
#include "repro/os/kernel.hpp"
#include "repro/trace/sink.hpp"
#include "repro/upmlib/upmlib.hpp"

namespace repro::harness {

class FastForward {
 public:
  /// `machine` (and `upmlib` / `sink`, when given) must outlive the
  /// watcher. `upmlib` and `sink` may be null.
  FastForward(omp::Machine& machine, const upm::Upmlib* upmlib,
              trace::TraceSink* sink);

  /// Captures the pre-iteration snapshot at the top of the timed loop
  /// -- before the iteration's first trace event is emitted -- and
  /// re-evaluates the entry rule.
  void probe();

  /// A migration pass (UPMlib migrate_memory) ran inside the current
  /// iteration; the iterations it brackets can never be replayed.
  void note_migration_pass() { migration_pass_ = true; }

  /// True when the last probe() established the fixed point (or
  /// fixed cycle): remaining iterations can be synthesized.
  [[nodiscard]] bool ready() const { return ready_; }

  /// The detected steady-state cycle length in iterations, valid
  /// while ready(): iteration next_step + j of a replay repeats
  /// next_step - period() + j % period().
  [[nodiscard]] std::uint32_t period() const { return period_iters_; }

  /// Synthesizes as many whole steady-state blocks as fit in
  /// [next_step, iterations] from the cached block and returns how
  /// many iterations were replayed -- a multiple of the detected
  /// period, so fewer than one period short of everything. The runtime
  /// clock, statistics, queue horizons, daemon timers, region records
  /// and trace advance exactly as a full simulation would have; the
  /// caller resumes *simulating* at step next_step + returned, which
  /// reproduces the leftover sub-block iterations for real from the
  /// time-shifted steady state. The watcher retires: later probe()
  /// calls are no-ops. Requires ready().
  std::uint32_t replay(std::uint32_t next_step, std::uint32_t iterations,
                       std::vector<Ns>& iteration_times);

  /// Longest steady-state cycle the entry gate searches for. Base and
  /// UPMlib cells settle to period 1 or 2 in practice; 4 buys margin
  /// at the cost of a 9-snapshot window, nothing per probe.
  static constexpr std::uint32_t kMaxPeriod = 4;

 private:
  struct UpmScalars {
    std::uint64_t distribution_migrations = 0;
    std::uint64_t replay_migrations = 0;
    std::uint64_t undo_migrations = 0;
    std::uint64_t replications = 0;
    std::uint64_t frozen_pages = 0;
    std::uint64_t busy_retries = 0;
    std::uint64_t give_ups = 0;
    std::uint64_t hysteresis_deferrals = 0;
    std::uint64_t invocations = 0;
    Ns distribution_cost = 0;
    Ns recrep_cost = 0;
    Ns replication_cost = 0;

    friend bool operator==(const UpmScalars&, const UpmScalars&) = default;
  };

  struct QueueTotals {
    std::uint64_t lines = 0;
    Ns wait = 0;
  };

  /// Pre-iteration snapshot. The digest covers behavioural state; the
  /// rest are cumulative counters used to form (and later replay) the
  /// per-iteration deltas.
  struct Snapshot {
    std::uint64_t digest = 0;
    Ns now = 0;
    /// migrate_memory() ran during the iteration ending here.
    bool migration_pass = false;
    std::vector<memsys::ProcStats> proc_stats;  // by processor
    os::KernelStats kernel;
    os::DaemonStats daemon;
    UpmScalars upm;
    std::vector<QueueTotals> queues;  // by node
    std::vector<std::size_t> lane_sizes;
    std::size_t record_count = 0;
  };

  [[nodiscard]] Snapshot capture();
  /// Entry gate over the last 2 * period + 1 snapshots.
  [[nodiscard]] bool entry_rule_holds(std::uint32_t period) const;

  /// Default give-up threshold (REPRO_FF_PROBE_LIMIT overrides; 0
  /// disables the give-up): engines that converge do so within tens of
  /// iterations -- base placements after 2-6 probes (period-2 cells
  /// need a 5-snapshot window), UPMlib distribution once its
  /// migrate_memory passes settle (~6) -- while record--replay
  /// migrates and the kernel daemon resets counter windows every
  /// iteration, so neither ever converges. After this many consecutive
  /// unready probes the watcher retires so the long tail of a
  /// non-converging run does not pay the per-iteration digest cost.
  static constexpr std::uint32_t kMaxUnreadyProbes = 32;

  omp::Machine* machine_;
  const upm::Upmlib* upmlib_;
  trace::TraceSink* sink_;
  bool migration_pass_ = false;
  bool ready_ = false;
  bool retired_ = false;
  std::uint32_t unready_probes_ = 0;
  std::uint32_t probe_limit_ = kMaxUnreadyProbes;
  /// Detected steady-state cycle length, valid while ready().
  std::uint32_t period_iters_ = 0;
  /// Rolling window of the last 2 * kMaxPeriod + 1 pre-iteration
  /// snapshots. For a candidate period p the last 2p+1 entries split
  /// into block A ([n-2p] .. [n-p]) and block B ([n-p] .. [n]).
  std::vector<Snapshot> snapshots_;
};

}  // namespace repro::harness
