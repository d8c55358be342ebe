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
// iteration times, per-processor memory statistics, equal per-block
// kernel/daemon/UPMlib counter deltas, matching region records and
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
// Record--replay cells migrate and undo pages in every iteration; the
// equal-delta rule lets them replay once the migrations repeat. The
// kernel daemon's counter windows drift against the iteration, so its
// state rarely repeats even when the machine has settled. For it the
// watcher splits the digest into a machine part and a daemon part
// (the daemon's page state and the reference counters). Once the
// machine part is periodic and the daemon raised no interrupt, it logs
// one block's kernel miss stream and *continues* the daemon alone over
// that stream, block by block, while the machine part replays as
// above; it stops before the first block that would raise an
// interrupt, which is then simulated (DESIGN.md "Daemon
// continuation").
//
// A line-grain coherence model joins through its behavioural digest
// (coherence::CoherenceModel::digest: ways with their LRU ranks, not
// their stamps or versions, plus a running hash of the history bits),
// so its state repeats when its behaviour does. Its per-processor
// statistics are snapshotted, gated and replayed like the memory
// system's; nothing else of it moves on replay, because its future
// depends only on what the digest covers.
//
// Opt-out: RunConfig::no_fast_forward, --no-fast-forward on the bench
// drivers, or REPRO_FAST_FORWARD=0 in the environment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "repro/coherence/model.hpp"
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
  FastForward(omp::Machine& machine, upm::Upmlib* upmlib,
              trace::TraceSink* sink);
  ~FastForward();

  FastForward(const FastForward&) = delete;
  FastForward& operator=(const FastForward&) = delete;

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
  /// period, so fewer than one period short of everything, unless a
  /// daemon continuation stops earlier, before the first block that
  /// would raise an interrupt. The runtime clock, statistics, queue
  /// horizons, daemon state, region records and trace advance exactly
  /// as a full simulation would have; the caller resumes *simulating*
  /// at step next_step + returned. The watcher retires: later probe()
  /// calls are no-ops. Requires ready().
  std::uint32_t replay(std::uint32_t next_step, std::uint32_t iterations,
                       std::vector<Ns>& iteration_times);

  /// Why the watcher replayed nothing: the gate rule that failed for
  /// the smallest candidate period at the last unready probe
  /// ("digest", "machine digest", "times", "migration pass", "engine
  /// deltas", "daemon interrupt", "stats", "records", "lanes"), inside
  /// "probe limit (...)" once the give-up retired the watcher;
  /// "daemon interrupt at iteration k" when a continuation stopped
  /// before block k; "too few iterations" when the run ended before a
  /// whole block could be replayed.
  [[nodiscard]] std::string decline_reason() const;

  /// Longest steady-state cycle the entry gate searches for. Base and
  /// UPMlib cells settle to period 1 or 2 in practice; 4 buys margin
  /// at the cost of a 9-snapshot window, nothing per probe.
  static constexpr std::uint32_t kMaxPeriod = 4;

 private:
  struct QueueTotals {
    std::uint64_t lines = 0;
    Ns wait = 0;
  };

  /// Pre-iteration snapshot. The digests cover behavioural state; the
  /// rest are cumulative counters used to form (and later replay) the
  /// per-iteration deltas.
  struct Snapshot {
    /// Machine and daemon parts together.
    std::uint64_t digest = 0;
    /// Everything but the daemon's page state and the reference
    /// counters.
    std::uint64_t machine_digest = 0;
    Ns now = 0;
    /// migrate_memory() ran during the iteration ending here.
    bool migration_pass = false;
    std::vector<memsys::ProcStats> proc_stats;  // by processor
    /// By processor; empty without a line-grain coherence model.
    std::vector<coherence::CoherenceStats> coherence;
    os::KernelStats kernel;
    std::uint64_t kernel_misses = 0;
    os::DaemonStats daemon;
    upm::UpmStats upm;
    std::vector<QueueTotals> queues;  // by node
    std::vector<std::size_t> lane_sizes;
    std::size_t record_count = 0;
  };

  /// The entry-gate rules, in the order they are checked.
  enum class Rule : std::uint8_t {
    kHolds,
    kDigest,
    kMachineDigest,
    kTimes,
    kMigrationPass,
    kEngineDeltas,
    kDaemonInterrupt,
    kStats,
    kRecords,
    kLanes,
    kTooFewIterations,
  };
  [[nodiscard]] static const char* rule_name(Rule rule);

  [[nodiscard]] Snapshot capture();
  /// The first gate rule that fails over the last 2 * period + 1
  /// snapshots. The full gate needs the whole digest periodic and equal
  /// kernel, daemon and UPMlib deltas; the `continuation` gate needs
  /// only the machine digest periodic, equal kernel and UPMlib deltas,
  /// and no daemon interrupt.
  [[nodiscard]] Rule check(std::uint32_t period, bool continuation) const;
  /// Runs the daemon over up to `max_blocks` copies of the logged
  /// block, the first starting at iteration `next_step`, and returns
  /// how many raised no interrupt; the daemon and counters are left at
  /// the end of the last of those.
  std::uint32_t continue_daemon(std::uint32_t next_step,
                                std::uint32_t max_blocks, Ns block_ns);
  /// Detaches and frees the miss log.
  void drop_log();
  /// Retires the watcher and frees its window and log.
  void retire();

  /// Default give-up threshold (REPRO_FF_PROBE_LIMIT overrides; 0
  /// disables the give-up): engines that converge do so within tens of
  /// iterations -- base placements after 2-6 probes (period-2 cells
  /// need a 5-snapshot window), UPMlib distribution once its
  /// migrate_memory passes settle (~6), record--replay and settled
  /// daemon cells within a few -- while a daemon that keeps
  /// interrupting never does. After this many consecutive unready
  /// probes the watcher retires so the long tail of a non-converging
  /// run does not pay the per-iteration digest cost.
  static constexpr std::uint32_t kMaxUnreadyProbes = 32;

  omp::Machine* machine_;
  upm::Upmlib* upmlib_;
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

  /// Daemon continuation: the kernel's miss stream over the block
  /// after the probe that armed it (attached to the kernel while that
  /// block runs), its period, and the probes seen since arming.
  std::unique_ptr<os::MissLog> log_;
  std::uint32_t log_period_ = 0;
  std::uint32_t log_probes_ = 0;
  /// ready() holds through the continuation gate over the logged block.
  bool continuing_ = false;

  Rule decline_ = Rule::kTooFewIterations;
  bool probe_limited_ = false;
  /// First iteration of the block a continuation stopped before (0
  /// while none did).
  std::uint32_t stopped_at_ = 0;
};

}  // namespace repro::harness
