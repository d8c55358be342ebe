// The operating-system kernel facade (cellular-IRIX stand-in).
//
// Owns physical memory, the page table, the per-frame hardware
// reference counters and the active page-placement policy; implements
// the memory system's backend (page faults resolve here, misses feed
// the counters and the kernel migration daemon). Exposes the page
// migration primitive used both by its own daemon and -- through the
// user-level MMCI -- by UPMlib.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/fault/injector.hpp"
#include "repro/memsys/backend.hpp"
#include "repro/memsys/config.hpp"
#include "repro/os/daemon.hpp"
#include "repro/topology/topology.hpp"
#include "repro/trace/sink.hpp"
#include "repro/vm/counters.hpp"
#include "repro/vm/page_table.hpp"
#include "repro/vm/physical_memory.hpp"
#include "repro/vm/placement.hpp"

namespace repro::os {

struct MigrationResult {
  bool migrated = false;
  /// The page is transiently pinned (injected fault): the request was
  /// rejected before any state changed and may be retried.
  bool busy = false;
  /// Where the page actually landed (may differ from the request when
  /// the target node was full and the kernel redirected best-effort).
  NodeId actual;
  /// Cost of the migration: page copy + one TLB shootdown per processor
  /// holding a live mapping.
  Ns cost = 0;
};

struct ReplicationResult {
  bool replicated = false;
  /// Cost (page copy); charged to the requesting thread.
  Ns cost = 0;
};

/// Cumulative kernel-side accounting.
struct KernelStats {
  std::uint64_t page_faults = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rejected_migrations = 0;  ///< no frame anywhere
  std::uint64_t busy_migrations = 0;      ///< transient pin (injected fault)
  std::uint64_t redirected_migrations = 0;
  Ns migration_cost = 0;
  std::uint64_t replications = 0;
  std::uint64_t replica_collapses = 0;  ///< pages whose replicas died on write

  /// Field-wise `end - start`: what the span between two reads added.
  [[nodiscard]] static KernelStats delta(const KernelStats& start,
                                         const KernelStats& end);
  /// Adds `times` copies of `delta` (a fast-forward replay of `times`
  /// blocks that each added `delta`).
  void advance(const KernelStats& delta, std::uint64_t times);
  friend bool operator==(const KernelStats&, const KernelStats&) = default;
};

/// The kernel's on_miss stream over one block of iterations, as the
/// harness fast-forward's daemon continuation replays it: 16 bytes per
/// miss, times relative to `start`.
struct MissLog {
  struct Miss {
    std::uint32_t offset = 0;  ///< ns after `start`
    std::uint32_t page = 0;
    std::uint32_t frame = 0;   ///< the resolved home frame
    std::uint16_t accessor = 0;
    std::uint8_t node = 0;     ///< the resolved home node
    std::uint8_t lines = 0;
  };

  Ns start = 0;
  std::vector<Miss> misses;
  /// A miss did not fit its record (a time before `start` or 4.29 s or
  /// more after it, or an id past the field widths): the log is void.
  bool overflow = false;
};

class Kernel final : public memsys::MemoryBackend {
 public:
  /// `topology` must outlive the kernel. The placement policy defaults
  /// to first-touch (the IRIX default) unless replaced via set_policy.
  Kernel(const memsys::MachineConfig& config,
         const topo::Topology& topology);
  ~Kernel() override;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Replaces the placement policy (DSM_PLACEMENT equivalent).
  void set_policy(std::unique_ptr<vm::PlacementPolicy> policy);

  /// Installs / removes the kernel migration daemon (DSM_MIGRATION).
  void set_daemon(std::unique_ptr<KernelMigrationDaemon> daemon);

  /// Registers the processors' TLBs so migrations can shoot down live
  /// translations (wired by omp::Machine; optional).
  void set_tlb_invalidator(memsys::TlbInvalidator* invalidator) {
    tlb_invalidator_ = invalidator;
  }
  [[nodiscard]] KernelMigrationDaemon* daemon() { return daemon_.get(); }

  /// Attaches an event sink (null to detach): migrations, replications
  /// and replica collapses are traced into `lane`, stamped at the
  /// sink's current simulated time (the kernel has no clock of its
  /// own; whoever drives it -- daemon, UPMlib, engine -- keeps the
  /// sink's now() current).
  void set_trace(trace::TraceSink* sink, std::uint16_t lane) {
    trace_ = sink;
    trace_lane_ = lane;
  }
  [[nodiscard]] trace::TraceSink* trace_sink() { return trace_; }

  /// Attaches the fault injector's busy-migration hook (null to
  /// detach). The injector must outlive the kernel.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  // --- MemoryBackend ------------------------------------------------------
  memsys::HomeInfo resolve(ProcId accessor, VPage page, bool write) override;
  Ns on_miss(ProcId accessor, VPage page, const memsys::HomeInfo& home,
             std::uint32_t lines, Ns now) override;
  Ns on_write_hit(ProcId accessor, VPage page) override;

  // --- migration primitive -------------------------------------------------
  /// Moves a page to `target` (best-effort: a full target redirects to
  /// the nearest node with a free frame). The new frame's hardware
  /// counters start at zero. No-op (migrated=false, cost=0) when the
  /// page already lives on `target`.
  MigrationResult migrate_page(VPage page, NodeId target);

  // --- replication (paper Section 1.2: read-only pages can be
  // --- replicated; the page-grain analogue of cache coherence) -------------
  /// Copies the page to `target` as a read-only replica; subsequent
  /// reads are served from the closest copy. Fails (replicated=false)
  /// when the page already has a copy on `target` or the node is full.
  ReplicationResult replicate_page(VPage page, NodeId target);

  /// Destroys all replicas (done automatically when the page is written
  /// or migrated). Returns the TLB-coherence cost.
  Ns collapse_replicas(VPage page);

  [[nodiscard]] std::size_t replica_count(VPage page) const;
  [[nodiscard]] bool is_dirty(VPage page) const;
  void clear_dirty(VPage page);

  // --- services used by MMCI / tools ---------------------------------------
  [[nodiscard]] NodeId home_of(VPage page) const;
  [[nodiscard]] bool is_mapped(VPage page) const;
  [[nodiscard]] std::span<const std::uint32_t> read_counters(VPage page) const;
  void reset_counters(VPage page);
  /// By frame, for callers that already resolved the page (the
  /// migration daemon gets the home frame with every miss); reads go
  /// through counters().
  void reset_counters(FrameId frame);
  [[nodiscard]] NodeId node_of(ProcId proc) const;

  [[nodiscard]] const KernelStats& stats() const { return stats_; }
  [[nodiscard]] const memsys::MachineConfig& config() const { return config_; }
  [[nodiscard]] const vm::PageTable& page_table() const { return table_; }
  [[nodiscard]] const vm::RefCounters& counters() const { return counters_; }
  [[nodiscard]] const vm::PhysicalMemory& physical_memory() const {
    return phys_;
  }
  [[nodiscard]] vm::PlacementPolicy& policy();

  /// Migration cost for a page if it were migrated now (used by tools
  /// to report overhead without performing the move).
  [[nodiscard]] Ns migration_cost_for(VPage page) const;

  /// Behavioural state digest at simulated time `now`: the machine
  /// part and the daemon part below, combined.
  [[nodiscard]] std::uint64_t digest(Ns now) const;

  /// The kernel's share of the machine part of the state: page-table
  /// placement, the frame allocator's free lists (they decide which
  /// frame a fault or migration lands on) and the deferred
  /// write-collapse penalty.
  [[nodiscard]] std::uint64_t machine_digest() const;

  /// The daemon part of the state at simulated time `now`: the
  /// daemon's saturated-relative page state plus the per-frame
  /// reference counters that feed its comparator. 0 without a daemon:
  /// the counters are then read only by UPMlib's migrate_memory and
  /// record, never on a path a replayed block runs.
  [[nodiscard]] std::uint64_t daemon_digest(Ns now) const;

  // --- daemon continuation (harness fast-forward) -------------------------
  /// Logs every later on_miss into `log` (null stops). `log` must stay
  /// alive while attached.
  void set_miss_log(MissLog* log) { miss_log_ = log; }
  /// on_miss calls so far (sizes a miss log before it is filled).
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// Runs a logged block, its times shifted by `shift`, through the
  /// counter increments and the daemon's observe() -- the very code
  /// on_miss runs -- and nothing else. Returns false at the first miss
  /// whose comparator would raise an interrupt; the counters and the
  /// daemon have then taken that block's misses up to that one.
  /// Requires a daemon and a log without overflow.
  bool observe_block(const MissLog& log, Ns shift);

  /// A copy of the daemon part: the daemon and the reference counters.
  struct DaemonCopy {
    KernelMigrationDaemon daemon;
    vm::RefCounters counters;
  };
  /// Requires a daemon.
  [[nodiscard]] DaemonCopy copy_daemon() const;
  void restore_daemon(const DaemonCopy& copy);

  /// Adds `blocks` copies of the per-block statistics delta `delta`
  /// (the harness fast-forward, after synthesizing `blocks` blocks).
  void advance_stats_replayed(const KernelStats& delta,
                              std::uint64_t blocks) {
    stats_.advance(delta, blocks);
  }

 private:
  /// on_miss's log append (cold: only while a log is attached).
  void log_miss(ProcId accessor, VPage page, const memsys::HomeInfo& home,
                std::uint32_t lines, Ns now);

  memsys::MachineConfig config_;
  const topo::Topology* topology_;
  vm::PhysicalMemory phys_;
  vm::PageTable table_;
  vm::RefCounters counters_;
  std::unique_ptr<vm::PlacementPolicy> policy_;
  std::unique_ptr<KernelMigrationDaemon> daemon_;
  KernelStats stats_;
  /// Cost of work resolve() had to do as a side effect (collapsing
  /// replicas on a write); charged to the accessor by the next on_miss.
  Ns pending_penalty_ = 0;
  memsys::TlbInvalidator* tlb_invalidator_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  trace::TraceSink* trace_ = nullptr;
  std::uint16_t trace_lane_ = 0;
  MissLog* miss_log_ = nullptr;
  std::uint64_t misses_ = 0;
};

}  // namespace repro::os
