// Discrete-event execution of parallel regions.
//
// All threads of a region start together (fork), the engine interleaves
// their operations in virtual-time order (so contention at the memory
// nodes is resolved causally), and the region ends when the slowest
// thread finishes (join barrier).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/memsys/memory_system.hpp"
#include "repro/sim/program.hpp"
#include "repro/sim/region.hpp"

namespace repro::sim {

struct RegionResult {
  Ns start = 0;
  Ns end = 0;  ///< max over thread completion times
  std::vector<Ns> thread_end;

  [[nodiscard]] Ns duration() const { return end - start; }
  /// Load imbalance: slowest / average busy time (1.0 = perfectly
  /// balanced).
  [[nodiscard]] double imbalance() const;
};

class Engine {
 public:
  /// `memory` must outlive the engine.
  explicit Engine(memsys::MemorySystem& memory);

  /// Executes a compiled region program starting at `start`. Programs
  /// with fewer threads than processors leave the remaining processors
  /// idle. `binding` maps thread index to processor; empty = identity
  /// (thread t runs on processor t). Bindings must be distinct.
  ///
  /// Execution is event-ordered across threads, but runs of consecutive
  /// ops belonging to the earliest thread are batched into one
  /// `MemorySystem::access_batch` call bounded by the next thread's
  /// clock, so the per-op priority-queue traffic of a naive
  /// discrete-event loop disappears while the access order (and thus
  /// every stat and sub-ns carry) stays bit-identical.
  ///
  /// Every clock of the run (`start` included) must stay below
  /// 2^(64 - b), b = bit_width(num_threads - 1), or the schedule key
  /// cannot hold it: ContractViolation, never a wrapped order.
  RegionResult run(Ns start, const RegionProgram& program,
                   std::span<const ProcId> binding = {});

  /// Compiles and executes builder-side programs (tests and one-shot
  /// regions; the hot path compiles once and uses the overload above).
  RegionResult run(Ns start, const std::vector<ThreadProgram>& programs,
                   std::span<const ProcId> binding = {});

  [[nodiscard]] memsys::MemorySystem& memory() { return *memory_; }

  /// Ops executed since construction (sanity / perf reporting).
  [[nodiscard]] std::uint64_t ops_executed() const { return ops_executed_; }

 private:
  /// Restores the heap after the root's key grew or the root was
  /// replaced by the last element, with `key` as the new root: moves a
  /// hole down from the root instead of swapping.
  void sift_down_root(std::uint64_t key);

  memsys::MemorySystem* memory_;
  std::uint64_t ops_executed_ = 0;
  /// Reusable run state: the pending-event min-heap and per-thread op
  /// cursors keep their capacity across region runs, so the steady
  /// state allocates nothing per region. Each pending thread is one
  /// schedule key, `clock << b | thread` with b the bits the run's
  /// thread count needs, so the schedule order -- earliest clock, lower
  /// thread on ties -- is one unsigned compare.
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace repro::sim
