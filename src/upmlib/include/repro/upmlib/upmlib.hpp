// UPMlib -- the paper's user-level page migration engine.
//
// Implements both mechanisms of Sections 3.2 / 3.3:
//
//  * Emulated data DISTRIBUTION: after the first outer iteration of an
//    iterative parallel code, `migrate_memory()` scans the hardware
//    reference counters of the registered hot memory areas, applies a
//    competitive criterion (racc_max / lacc > threshold) to every page,
//    and migrates each eligible page to its most-frequent accessor.
//    The engine self-deactivates on the first invocation that performs
//    no migrations, and freezes pages that bounce between two nodes in
//    consecutive invocations (page-level false sharing).
//
//  * Emulated data REDISTRIBUTION (record--replay): during one recording
//    iteration the program calls `record()` at every phase-transition
//    point; `compare_counters()` then isolates each phase's reference
//    trace as the difference of consecutive counter snapshots and
//    derives, per transition, the list of pages whose phase-local trace
//    satisfies the competitive criterion (capped to the n most critical
//    pages, ranked by racc_max / lacc). In later iterations `replay()`
//    performs those migrations at the same transition points and
//    `undo()` restores the pre-phase placement at the iteration
//    boundary.
//
// Everything here runs at user level: the only OS surface used is the
// MemoryControlInterface (MLDs + /proc counters + counter reset), and
// every migration cost is charged to the calling (master) thread via
// the OpenMP runtime -- migrations are on the critical path, which is
// exactly the overhead the paper's Fig. 5 exposes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/omp/runtime.hpp"
#include "repro/os/mmci.hpp"
#include "repro/trace/sink.hpp"
#include "repro/vm/address_space.hpp"

namespace repro::upm {

struct UpmConfig {
  /// Competitive criterion threshold `thr`: a page is eligible when
  /// racc_max / lacc > thr (lacc == 0 counts as maximally eligible).
  double threshold = 2.0;
  /// Cap on migrations per replay transition (the paper's "n most
  /// critical pages, in each iteration" environment knob for the
  /// record--replay mechanism; its Fig. 5 experiments use 20). Applies
  /// only to the replay lists -- the one-time distribution pass always
  /// moves every qualifying page. 0 means unlimited.
  std::size_t max_critical_pages = 0;
  /// A page whose migration would return it to the node it occupied
  /// before its previous migration, in consecutive invocations, is
  /// frozen (ping-pong control).
  bool freeze_bouncing_pages = true;

  /// Extension (paper Section 1.2): replicate read-only pages that are
  /// read from several nodes instead of migrating them. Off by default
  /// (the paper's UPMlib migrates only); see bench/ablation_upmlib.
  bool enable_replication = false;
  /// A clean page qualifies for replication when at least this many
  /// remote nodes each accumulated replication_min_count references.
  std::uint32_t replication_min_nodes = 3;
  std::uint32_t replication_min_count = 64;
  /// Replicas created per page per pass.
  std::uint32_t max_replicas = 3;

  // --- graceful degradation under faults ----------------------------------
  /// Total attempts per migration request when the kernel reports the
  /// page transiently pinned (BUSY): the first attempt plus up to
  /// limit-1 retries, each preceded by a doubling backoff charged to
  /// the master thread. After the last BUSY the engine gives up on the
  /// page for this pass.
  std::uint32_t busy_retry_limit = 3;
  /// First backoff interval; doubles per retry.
  Ns busy_backoff_ns = 2000;
  /// A page whose migration was given up on (retries exhausted) this
  /// many times is frozen like a ping-ponging page.
  std::uint32_t give_up_freeze_limit = 2;
  /// A page must satisfy the competitive criterion in this many
  /// *consecutive* migrate_memory() passes before it is moved. 1 (the
  /// default, and the paper's behaviour) migrates immediately; raise
  /// it when counter reads may be corrupted, so one garbled read
  /// cannot trigger a migration storm.
  std::uint32_t hysteresis_passes = 1;

  /// Reads UPM_THRESHOLD / UPM_CRITICAL_PAGES / UPM_BUSY_RETRIES /
  /// UPM_HYSTERESIS overrides from Env on top of `defaults` (or the
  /// built-in defaults).
  [[nodiscard]] static UpmConfig from_env();
  [[nodiscard]] static UpmConfig from_env(UpmConfig defaults);
};

struct UpmStats {
  /// Migrations performed by each migrate_memory() invocation, in order.
  std::vector<std::uint64_t> migrations_per_invocation;
  /// Distribution migrations per registered hot range, in registration
  /// order (diagnostics: which array moved).
  std::vector<std::uint64_t> migrations_per_range;
  std::uint64_t distribution_migrations = 0;
  std::uint64_t replications = 0;
  Ns replication_cost = 0;
  std::uint64_t replay_migrations = 0;
  std::uint64_t undo_migrations = 0;
  std::uint64_t frozen_pages = 0;
  /// Retries performed after BUSY migration responses (all entry
  /// points); the backoff time is charged into the usual cost fields.
  std::uint64_t busy_retries = 0;
  /// Migration requests abandoned after exhausting the retry budget.
  std::uint64_t give_ups = 0;
  /// Candidates whose migration was deferred by the hysteresis filter
  /// (not yet qualified in enough consecutive passes).
  std::uint64_t hysteresis_deferrals = 0;
  /// Time charged to the master thread by migrate_memory().
  Ns distribution_cost = 0;
  /// Time charged by replay() + undo() (the striped bars of Fig. 5).
  Ns recrep_cost = 0;

  /// Fraction of distribution migrations performed by the first
  /// invocation (paper Table 2, "migrations in the first iteration").
  [[nodiscard]] double first_invocation_fraction() const;

  /// What the span between two reads added: scalars field-wise, the
  /// invocations appended to migrations_per_invocation, and
  /// migrations_per_range entry by entry.
  [[nodiscard]] static UpmStats delta(const UpmStats& start,
                                      const UpmStats& end);
  /// Adds `times` copies of `delta` (a fast-forward replay of `times`
  /// blocks that each added `delta`).
  void advance(const UpmStats& delta, std::uint64_t times);
  friend bool operator==(const UpmStats&, const UpmStats&) = default;
};

/// One entry of the public-API call trace: which UPMlib entry point ran,
/// in program order, with the payload the static protocol checker
/// (repro::analysis) needs. Recording is off by default; see
/// Upmlib::enable_call_trace().
struct UpmCall {
  enum class Kind : std::uint8_t {
    kMemRefCnt,
    kResetCounters,
    kMigrateMemory,
    kRecord,
    kCompareCounters,
    kReplay,
    kUndo,
    kNotifyRebinding,
  };

  Kind kind = Kind::kRecord;
  /// kMemRefCnt: the registered range.
  vm::PageRange range{};
  /// kMigrateMemory: whether the engine was still active when invoked.
  bool was_active = true;
};

/// Entry-point name for diagnostics ("memrefcnt", "record", ...).
[[nodiscard]] const char* upm_call_name(UpmCall::Kind kind);

class Upmlib {
 public:
  /// `mmci` and `runtime` must outlive the library instance.
  Upmlib(os::MemoryControlInterface& mmci, omp::Runtime& runtime,
         UpmConfig config = {});

  // --- upmlib_memrefcnt(addr, size) ---------------------------------------
  /// Registers a hot memory area for reference counting. The compiler
  /// identifies shared arrays read and written in disjoint parallel
  /// constructs; the workload models call this explicitly.
  void memrefcnt(const vm::PageRange& range);

  /// The hot memory areas registered so far, in registration order
  /// (the trace dumper records them so replay can re-register the
  /// exact same ranges).
  [[nodiscard]] const std::vector<vm::PageRange>& hot_ranges() const {
    return hot_ranges_;
  }

  /// Zeroes the counters of every (mapped) hot page. Called between the
  /// cold-start iteration and the first timed iteration so migration
  /// decisions see a clean one-iteration trace.
  void reset_hot_counters();

  // --- upmlib_migrate_memory() ---------------------------------------------
  /// One distribution pass. Returns the number of migrations performed
  /// (0 both when nothing qualified and when already deactivated).
  std::size_t migrate_memory();

  /// False once a migrate_memory() invocation performed no migrations.
  [[nodiscard]] bool active() const { return active_; }

  /// The OS scheduler preempted or rebound threads: the recorded
  /// reference traces no longer describe the running configuration.
  /// Reactivates the engine and forgets the bounce/freeze history so
  /// the next migrate_memory() pass can re-distribute from the new
  /// traces (the mechanism of the authors' companion work on
  /// multiprogrammed systems, which the paper's footnote 3 cites).
  void notify_thread_rebinding();

  // --- record--replay --------------------------------------------------------
  /// Snapshots the counters of all hot pages (one call per phase
  /// transition point during the recording iteration).
  void record();

  /// Derives the per-transition migration lists from the recorded
  /// snapshots. Requires at least two record() calls.
  void compare_counters();

  /// Executes the migration list of the next transition point (cycling
  /// through the lists in recording order).
  void replay();

  /// Migrates every replayed page back to its pre-replay home and
  /// resets the transition cursor (end of iteration).
  void undo();

  [[nodiscard]] const UpmStats& stats() const { return stats_; }
  /// Adds `blocks` copies of the per-block statistics delta `delta`
  /// (the harness fast-forward, after synthesizing `blocks` blocks).
  void advance_stats_replayed(const UpmStats& delta, std::uint64_t blocks) {
    stats_.advance(delta, blocks);
  }
  [[nodiscard]] const UpmConfig& config() const { return config_; }
  [[nodiscard]] std::size_t hot_pages() const { return hot_pages_.size(); }
  [[nodiscard]] std::size_t num_transitions() const {
    return replay_lists_.size();
  }

  // --- call-sequence tracing --------------------------------------------------
  /// Starts recording every public entry-point call into an in-memory
  /// trace (the input of the repro::analysis protocol checker). Cheap:
  /// one small struct per API call, nothing per page.
  void enable_call_trace() { trace_enabled_ = true; }

  /// Attaches the structured event sink (null to detach): every entry
  /// point emits one kUpmCall event (payload: call kind, migrations
  /// performed, cost charged to the master thread) and ping-pong
  /// freezes emit kPageFreeze. record/replay/undo events are the
  /// record--replay phase-transition markers of the trace timeline.
  void set_trace(trace::TraceSink* sink, std::uint16_t lane) {
    sink_ = sink;
    sink_lane_ = lane;
  }
  [[nodiscard]] bool call_trace_enabled() const { return trace_enabled_; }
  [[nodiscard]] const std::vector<UpmCall>& call_trace() const {
    return trace_;
  }

  /// The migration list computed for one transition (tests/inspection).
  struct PlannedMigration {
    VPage page;
    NodeId target;
    double ratio = 0.0;
  };
  [[nodiscard]] const std::vector<PlannedMigration>& replay_list(
      std::size_t transition) const;

  /// Behavioural state digest: activation, invocation count, the
  /// bounce/freeze history, the record--replay lists, the transition
  /// cursor and the undo log. Cumulative statistics and the diagnostic
  /// call trace are excluded (they never feed migration decisions).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct PageHistory {
    /// Invocation index of the page's last distribution migration.
    std::uint64_t last_invocation = 0;
    /// Home before the last migration (for bounce detection).
    NodeId prior_home;
    /// Times the retry budget was exhausted on this page; at
    /// give_up_freeze_limit the page is frozen.
    std::uint32_t give_ups = 0;
    bool has_prior = false;
    bool frozen = false;
  };

  /// Consecutive-qualification tracking for the hysteresis filter
  /// (only populated when config.hysteresis_passes > 1, so the default
  /// configuration's state digest stays iteration-independent).
  struct QualifyStreak {
    std::uint64_t last_invocation = 0;
    std::uint32_t count = 0;
  };

  os::MemoryControlInterface* mmci_;
  omp::Runtime* runtime_;
  UpmConfig config_;
  UpmStats stats_;

  std::vector<VPage> hot_pages_;
  std::vector<vm::PageRange> hot_ranges_;
  bool trace_enabled_ = false;
  std::vector<UpmCall> trace_;
  trace::TraceSink* sink_ = nullptr;
  std::uint16_t sink_lane_ = 0;
  bool active_ = true;
  std::uint64_t invocation_ = 0;

  std::unordered_map<VPage, PageHistory> history_;
  std::unordered_map<VPage, QualifyStreak> streaks_;

  // record--replay state
  std::vector<std::vector<std::vector<std::uint32_t>>> snapshots_;
  std::vector<std::vector<PlannedMigration>> replay_lists_;
  std::size_t replay_cursor_ = 0;
  std::vector<std::pair<VPage, NodeId>> undo_log_;
  std::vector<os::MldHandle> mlds_;

  /// Candidate selection shared by migrate_memory and compare_counters.
  struct Candidate {
    VPage page;
    NodeId target;
    double ratio;
  };
  [[nodiscard]] static std::optional<Candidate> evaluate(
      VPage page, NodeId home, std::span<const std::uint32_t> counts,
      double threshold);

  void trace(UpmCall call);
  /// Emits the kUpmCall event for one completed entry point. `at` is
  /// the master-thread time the call started (kernel sub-events were
  /// stamped there too).
  void emit_call(UpmCall::Kind kind, Ns at, std::uint64_t migrations,
                 Ns cost);
  /// Brings the sink's clock to the master thread's and returns that
  /// time (entry hook of every traced call).
  Ns sync_clock();
  void ensure_mlds();
  /// One migration request with bounded retry-with-backoff on BUSY.
  /// `gave_up` (optional) is set when the retry budget was exhausted;
  /// the returned cost includes the backoff waits.
  Ns do_migrate(VPage page, NodeId target, bool* migrated,
                bool* gave_up = nullptr);
  /// Replicates a clean multi-reader page; returns true if the page is
  /// now replicated (and should not be migrated).
  bool try_replicate(VPage page, Ns* cost);
};

}  // namespace repro::upm
