// The OpenMP-like runtime: fork/join parallel regions over the
// simulated machine, with named-region timing used by the experiment
// harness (phase durations drive the record-replay evaluation).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/fault/injector.hpp"
#include "repro/omp/schedule.hpp"
#include "repro/sim/engine.hpp"
#include "repro/sim/region.hpp"
#include "repro/trace/sink.hpp"

namespace repro::omp {

/// Record of one executed parallel region.
struct RegionRecord {
  std::string name;
  Ns start = 0;
  Ns end = 0;
  double imbalance = 1.0;

  [[nodiscard]] Ns duration() const { return end - start; }
};

class Runtime {
 public:
  /// One simulated OpenMP thread per processor, bound 1:1.
  Runtime(sim::Engine& engine, std::size_t num_threads);

  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }
  [[nodiscard]] Ns now() const { return now_; }

  /// Creates an empty region builder sized for this team.
  [[nodiscard]] sim::RegionBuilder make_region() const;

  /// Fork/join: runs a compiled region program at the current time and
  /// advances the clock past the join barrier. The program is reusable
  /// -- benchmark phases compile once and run it every iteration.
  sim::RegionResult run(const std::string& name,
                        const sim::RegionProgram& program);

  /// Fork/join on a freshly built region (compiles and runs once).
  sim::RegionResult run(const std::string& name, sim::RegionBuilder&& region);

  /// PARALLEL DO: `emit(t, chunk, region)` is called for every chunk of
  /// [0, n) assigned to thread t by `schedule`, then the region runs.
  using ChunkEmitter =
      std::function<void(ThreadId, ChunkRange, sim::RegionBuilder&)>;
  sim::RegionResult parallel_for(const std::string& name, std::uint64_t n,
                                 const Schedule& schedule,
                                 const ChunkEmitter& emit);

  /// PARALLEL DO with a REDUCTION clause: like parallel_for, plus the
  /// cost of the log-tree combine across the team charged after the
  /// join barrier.
  sim::RegionResult parallel_reduce(const std::string& name,
                                    std::uint64_t n,
                                    const Schedule& schedule,
                                    const ChunkEmitter& emit);

  /// Per-level cost of the reduction combine tree (default 200 ns per
  /// level: one cache-to-cache transfer plus the add).
  void set_reduction_step(Ns step) { reduction_step_ = step; }

  /// SECTIONS worksharing: each section is an independent block of
  /// code assigned to one thread; sections are dealt round-robin when
  /// there are more sections than threads.
  using SectionBody = std::function<void(ThreadId, sim::RegionBuilder&)>;
  sim::RegionResult sections(const std::string& name,
                             const std::vector<SectionBody>& bodies);

  /// Advances time in the sequential (master-only) part of the program;
  /// used to charge UPMlib invocation costs, which execute between
  /// parallel regions on the master thread.
  void advance(Ns duration) {
    now_ += duration;
    if (advance_observer_) {
      advance_observer_(duration);
    }
  }

  /// Dry-run (capture) mode: run() still hands every region's name,
  /// compiled program and thread binding to the inspector and appends a
  /// zero-duration record, but never reaches the engine -- no memory
  /// access, no page fault, no trace emission, no clock advance. The
  /// static placement advisor uses this to observe a workload's whole
  /// phase sequence without perturbing any machine state.
  void set_dry_run(bool on) { dry_run_ = on; }
  [[nodiscard]] bool dry_run() const { return dry_run_; }

  /// Thread-to-processor binding. Threads start bound 1:1 (thread t on
  /// processor t); the OS scheduler may rebind them (the case the
  /// paper's footnote 3 defers to its companion work on
  /// multiprogrammed systems).
  [[nodiscard]] ProcId proc_of(ThreadId thread) const;
  void rebind(ThreadId thread, ProcId proc);
  /// Swaps two threads' processors (a scheduler exchanging them).
  void swap_binding(ThreadId a, ThreadId b);

  /// Observer called with every region's name, compiled program and
  /// the current thread binding just before the engine executes them --
  /// the analyze-before-run hook (see repro::analysis) and, on a dry
  /// run, the trace-dump recorder (see harness::dump_trace). At most
  /// one inspector; pass an empty function to detach.
  using RegionInspector =
      std::function<void(const std::string&, const sim::RegionProgram&,
                         std::span<const ProcId>)>;
  void set_region_inspector(RegionInspector inspector) {
    inspector_ = std::move(inspector);
  }

  /// Observer of every sequential-time advance() (the master-thread
  /// charges between regions); the trace recorder needs them to
  /// reproduce the exact clock on replay. Empty detaches.
  using AdvanceObserver = std::function<void(Ns)>;
  void set_advance_observer(AdvanceObserver observer) {
    advance_observer_ = std::move(observer);
  }

  /// Attaches the event sink (null to detach). Every executed region
  /// emits kRegionBegin/kRegionEnd on `lane` with the sink's phase set
  /// to the interned region name for the region's whole span (so
  /// kernel/daemon events fired inside the region inherit it), one
  /// kBarrierWait per thread at the join (a = time spent waiting), and
  /// one kQueueSample per node on `memsys_lane` taken at the join point
  /// -- never on the per-access hot path.
  void set_trace(trace::TraceSink* sink, std::uint16_t lane,
                 std::uint16_t memsys_lane) {
    trace_ = sink;
    trace_lane_ = lane;
    memsys_lane_ = memsys_lane;
  }

  /// The attached sink and runtime lane (null when tracing is off);
  /// lets cooperating layers (the task scheduler) emit their protocol
  /// events on the same lane as the region machinery.
  [[nodiscard]] trace::TraceSink* trace_sink() const { return trace_; }
  [[nodiscard]] std::uint16_t trace_lane() const { return trace_lane_; }

  /// Attaches the fault injector's preemption hook: a fired fault
  /// stretches one thread's region time past the computed join (null
  /// to detach). The injector must outlive the runtime.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Timing log of all executed regions, in order.
  [[nodiscard]] const std::vector<RegionRecord>& records() const {
    return records_;
  }

  /// Sum of durations of all records whose name matches exactly.
  [[nodiscard]] Ns total_time(const std::string& name) const;

  void clear_records() { records_.clear(); }

  /// Appends a synthesized record (the harness's steady-state
  /// fast-forward re-stamps the cached iteration's records instead of
  /// executing their regions).
  void append_record(RegionRecord record) {
    records_.push_back(std::move(record));
  }

  /// Reserves room for `records` records in total, so appends up to
  /// that size never reallocate.
  void reserve_records(std::size_t records) { records_.reserve(records); }

  /// Digest of the runtime state future executions depend on: the
  /// clock is excluded (the fast-forward gate compares *relative*
  /// per-iteration behaviour), the thread binding is what matters.
  [[nodiscard]] std::uint64_t digest() const {
    StateHash hash;
    hash.mix(binding_.size());
    for (const ProcId proc : binding_) {
      hash.mix(proc.value());
    }
    hash.mix(static_cast<std::uint64_t>(reduction_step_));
    return hash.value();
  }

 private:
  sim::Engine* engine_;
  std::size_t num_threads_;
  Ns now_ = 0;
  std::vector<ProcId> binding_;
  Ns reduction_step_ = 200;
  bool dry_run_ = false;
  RegionInspector inspector_;
  AdvanceObserver advance_observer_;
  std::vector<RegionRecord> records_;
  fault::FaultInjector* fault_ = nullptr;
  trace::TraceSink* trace_ = nullptr;
  std::uint16_t trace_lane_ = 0;
  std::uint16_t memsys_lane_ = 0;
};

}  // namespace repro::omp
