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
  struct Pending {
    Ns clock;
    std::uint32_t thread;
  };

  /// Strict weak order of the schedule: earliest clock first, lower
  /// thread id on ties (the order is total, so pop order is identical
  /// to the std::priority_queue this heap replaced).
  [[nodiscard]] static bool earlier(const Pending& a, const Pending& b) {
    return a.clock != b.clock ? a.clock < b.clock : a.thread < b.thread;
  }

  /// Restores the heap after the root's clock grew or the root was
  /// replaced by the last element.
  void sift_down_root();

  memsys::MemorySystem* memory_;
  std::uint64_t ops_executed_ = 0;
  /// Reusable run state: the pending-event min-heap and per-thread op
  /// cursors keep their capacity across region runs, so the steady
  /// state allocates nothing per region.
  std::vector<Pending> heap_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace repro::sim
