// The memory system: per-processor page-grain caches, a page-grain
// coherence directory, per-node memory queues and the Table-1 latency
// ladder, glued together behind a single `access` entry point used by
// the simulated threads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "repro/common/hash.hpp"

#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/fault/injector.hpp"
#include "repro/memsys/backend.hpp"
#include "repro/memsys/config.hpp"
#include "repro/memsys/directory.hpp"
#include "repro/memsys/latency.hpp"
#include "repro/memsys/line_model.hpp"
#include "repro/memsys/mem_queue.hpp"
#include "repro/memsys/op_batch.hpp"
#include "repro/memsys/page_cache.hpp"
#include "repro/topology/topology.hpp"
#include "repro/trace/sink.hpp"

namespace repro::memsys {

/// Per-processor access statistics (cumulative until reset).
struct ProcStats {
  std::uint64_t hit_lines = 0;
  std::uint64_t local_miss_lines = 0;
  std::uint64_t remote_miss_lines = 0;
  Ns queue_wait = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t tlb_misses = 0;

  [[nodiscard]] std::uint64_t miss_lines() const {
    return local_miss_lines + remote_miss_lines;
  }
  /// Fraction of miss lines served from remote memory; 0 if no misses.
  [[nodiscard]] double remote_fraction() const;
};

class MemorySystem final : public TlbInvalidator {
 public:
  /// `backend` must outlive the memory system; `config` is copied.
  MemorySystem(const MachineConfig& config, const topo::Topology& topology,
               MemoryBackend& backend);

  struct Access {
    ProcId proc;
    VPage page;
    std::uint32_t lines = 1;
    bool write = false;
    /// Streaming (prefetchable unit-stride) access: the processor
    /// overlaps successive line fetches, so a miss batch pays the hop
    /// latency once plus the memory module's per-line service rate --
    /// remote *latency* is hidden but *contention* is not.
    bool stream = false;
    /// First line within the page; only the line-grain coherence model
    /// reads it (must be < lines_per_page). Last on purpose: existing
    /// positional initializers predate the field.
    std::uint32_t line_begin = 0;
  };

  struct AccessResult {
    Ns elapsed = 0;           ///< time the issuing processor is blocked
    std::uint32_t misses = 0; ///< L2 miss lines (0 on a cache hit)
    Ns queue_wait = 0;
    unsigned invalidations = 0;
    bool remote = false;
    NodeId home;              ///< valid only when misses > 0
  };

  /// Performs one page-grain access at simulated time `now`.
  /// `lines` is the number of distinct cache lines touched within the
  /// page and must be in [1, lines_per_page].
  AccessResult access(Ns now, const Access& a);

  struct BatchResult {
    std::uint32_t executed = 0;  ///< ops consumed from the slice
    Ns clock = 0;                ///< the thread's clock afterwards
  };

  /// Run-length executes ops from one thread's slice, advancing `clock`
  /// exactly as the scalar entry point would (compute ops add their
  /// interval; access ops add elapsed + attached compute). Stops before
  /// the first op whose start time would violate the engine's event
  /// order: an op runs only while `clock < limit_clock`, or at
  /// `clock == limit_clock` when `run_at_limit` (the batching thread
  /// wins the engine's tie-break at the limit). At least the first op
  /// always runs -- the caller popped this thread as the schedule's
  /// minimum. Statistics and coherence state mutate identically to an
  /// equivalent sequence of `access` calls.
  BatchResult access_batch(ProcId proc, const OpSlice& ops, Ns clock,
                           Ns limit_clock, bool run_at_limit);

  /// TlbInvalidator: drops the page's translation from every TLB (page
  /// migration shootdown). No-op when TLB modelling is disabled.
  void invalidate_tlb_entries(VPage page) override;

  /// Drops a page from every cache (page migration does NOT require
  /// this -- Origin caches are physical and keep their data -- but the
  /// tests and the Table-1 probe use it to force cold misses).
  void flush_page(VPage page);

  /// Drops every TLB's translations (the caches keep their data).
  void flush_tlbs();

  /// Drops all cached state -- caches, directory AND TLBs -- so a
  /// flushed machine is fully cold (between experiment repetitions).
  void flush_all();

  [[nodiscard]] const ProcStats& stats(ProcId proc) const;
  [[nodiscard]] ProcStats total_stats() const;
  void reset_stats();

  /// Behavioural state digest at simulated time `now`: per-processor
  /// cache and TLB content in LRU order, the coherence directory, each
  /// memory queue's phase relative to `now`, and the sub-ns latency
  /// carry. Pure statistics are excluded. Equal digests (with equal
  /// backend state) mean the memory system will time future accesses
  /// identically -- the harness's fast-forward gate builds on this.
  [[nodiscard]] std::uint64_t digest(Ns now) const;

  /// Fast-forward replay: applies `count` copies of the per-processor
  /// stats delta of one steady-state iteration (`delta` has one entry
  /// per processor).
  void apply_stats_delta(std::span<const ProcStats> delta,
                         std::uint64_t count);

  /// Fast-forward replay: accounts for `count` synthesized iterations
  /// at `node`'s queue (see MemQueue::advance_replayed).
  void advance_queue_replayed(NodeId node, std::uint64_t count,
                              std::uint64_t lines, Ns wait, Ns period);

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] const LatencyModel& latency() const { return latency_; }
  [[nodiscard]] NodeId node_of(ProcId proc) const;

  /// Cumulative queueing wait observed at a node's memory module.
  [[nodiscard]] const MemQueue& queue(NodeId node) const;

  /// Read-only views of the page-grain state (tests and tools).
  [[nodiscard]] const Directory& directory() const { return directory_; }
  [[nodiscard]] const PageCache& cache(ProcId proc) const;

  /// Emits one kQueueSample event per node into `lane`: the backlog
  /// (how far each module's busy horizon extends past `now`) and the
  /// cumulative lines served. Called at region joins by the OpenMP
  /// runtime when tracing is on -- never on the access hot path.
  void sample_queues(trace::TraceSink& sink, std::uint16_t lane,
                     Ns now) const;

  /// Attaches the fault injector's node-slowdown hook to the miss path
  /// (null to detach). The injector must outlive the memory system.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Attaches a line-grain cache model (null to detach); see
  /// line_model.hpp for the division of labour. The model must outlive
  /// the memory system (the Machine owns both).
  void set_line_model(LineModel* model) { line_model_ = model; }
  [[nodiscard]] LineModel* line_model() const { return line_model_; }

 private:
  AccessResult access_impl(Ns now, ProcId proc, VPage page,
                           std::uint32_t lines, std::uint32_t line_begin,
                           bool write, bool stream);

  /// Shared miss path: backend resolve, home-queue service, Table-1
  /// ladder, miss stats, backend and fault hooks. `lines` is the miss
  /// line count (the full access on the page path, the model's
  /// miss_lines on the line path). Mutates `elapsed` with the same
  /// statement-by-statement addition order both paths always used --
  /// floating-point association is part of the digest contract.
  void charge_miss(AccessResult& out, double& elapsed, Ns now, ProcId proc,
                   VPage page, std::uint32_t lines, bool write, bool stream);

  MachineConfig config_;
  const topo::Topology* topology_;
  MemoryBackend* backend_;
  LatencyModel latency_;
  std::vector<PageCache> caches_;   // by processor
  std::vector<PageCache> tlbs_;     // by processor (empty when disabled)
  Directory directory_;
  std::vector<MemQueue> queues_;    // by node
  std::vector<ProcStats> stats_;    // by processor
  fault::FaultInjector* fault_ = nullptr;
  LineModel* line_model_ = nullptr;
  double elapsed_frac_ = 0.0;       // sub-ns carry for latency charges
};

}  // namespace repro::memsys
