// Workload model interface.
//
// Each NAS benchmark is modelled as an iterative parallel code: a
// cold-start iteration (the providers' first-touch tuning trick -- its
// results are discarded but it faults every shared page in), followed
// by `iterations` identical timed iterations. The UPMlib instrumentation
// the paper's compiler inserts (Figs. 2 and 3) lives inside the models,
// driven by the UpmMode of the run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "repro/omp/machine.hpp"
#include "repro/upmlib/upmlib.hpp"

namespace repro::nas {

enum class UpmMode : std::uint8_t {
  kOff,           ///< no UPMlib calls
  kDistribution,  ///< Fig. 2: migrate_memory() at iteration boundaries
  kRecordReplay,  ///< Fig. 3: distribution + record--replay around phases
};

struct WorkloadParams {
  /// 0 = the benchmark's default iteration count (paper: BT 200, SP 15,
  /// CG 400, MG 4, FT 6).
  std::uint32_t iterations = 0;
  /// Fig. 6 synthetic scaling: each solver function body is enclosed in
  /// a sequential loop with this many repetitions.
  std::uint32_t compute_scale = 1;
  /// Fraction of each hot array's pages first-touched by the master
  /// thread during initialization (the serial init sections of the real
  /// codes, which make first-touch slightly suboptimal -- the source of
  /// the paper's 6-22% ft-upmlib gains). Negative = benchmark default.
  double serial_init_fraction = -1.0;
  /// Problem-size multiplier applied to plane counts (1.0 = default).
  double size_scale = 1.0;
};

struct IterationContext {
  upm::Upmlib* upm = nullptr;
  UpmMode mode = UpmMode::kOff;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t default_iterations() const = 0;

  /// Allocates the shared arrays in the machine's address space.
  virtual void setup(omp::Machine& machine) = 0;

  /// Registers the hot memory areas (what the compiler identifies as
  /// shared arrays read and written across disjoint parallel
  /// constructs).
  virtual void register_hot(upm::Upmlib& upm) const = 0;

  /// Runs the untimed cold-start iteration (establishes first-touch
  /// placement; results discarded).
  virtual void cold_start(omp::Machine& machine) = 0;

  /// Runs one timed iteration. `step` is 1-based, matching the paper's
  /// step variable. Record-replay instrumentation (where supported)
  /// fires inside, exactly as in the paper's Fig. 3.
  virtual void iteration(omp::Machine& machine, const IterationContext& ctx,
                         std::uint32_t step) = 0;

  /// True if the benchmark has a phase change and implements the
  /// record--replay protocol (BT and SP).
  [[nodiscard]] virtual bool supports_record_replay() const { return false; }

  // Steady-state fast-forward hooks (see harness::FastForward). The
  // harness synthesizes a block of timed iterations only when the
  // workload proves they dispatch what the probed block dispatched.

  /// Why the fast-forward may not synthesize this workload's
  /// iterations; empty when it may.
  [[nodiscard]] virtual std::string fast_forward_blocker() const {
    return {};
  }

  /// How many of the `count` iterations from `step` on dispatch the
  /// same stream as the `period` iterations before `step` (iteration
  /// step + j repeats step - period + j % period), stopping at the
  /// first that does not. The compiled models dispatch the same
  /// stream every iteration outside record--replay, which never
  /// fast-forwards, so all of them repeat.
  [[nodiscard]] virtual std::uint32_t repeating_iterations(
      std::uint32_t step, std::uint32_t period, std::uint32_t count) const {
    (void)step;
    (void)period;
    return count;
  }

  /// The harness synthesized iterations [step, step + count) instead
  /// of running them; the next iteration() call is step + count.
  virtual void skip_iterations(std::uint32_t step, std::uint32_t count) {
    (void)step;
    (void)count;
  }

  /// Hot page count (after setup), for sizing assertions in tests.
  [[nodiscard]] virtual std::uint64_t hot_page_count() const = 0;

 protected:
  /// Emits the "serial initialization" cold-start region: the master
  /// thread faults every stride-th page of `range` (fraction ~= 1/stride
  /// of the array), which first-touch then places on the master's node.
  static void master_fault_scattered(omp::Machine& machine,
                                     const vm::PageRange& range,
                                     double fraction);
};

/// Benchmark names in paper order: BT, SP, CG, MG, FT.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// NPB-style problem classes as size presets. The paper uses Class A
/// (our calibration baseline, size_scale 1); W halves and B doubles
/// the grids. Classes scale *footprints*, not iteration counts.
[[nodiscard]] WorkloadParams params_for_class(char problem_class);

/// Factory by benchmark name (case-sensitive, e.g. "BT").
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadParams& params = {});

}  // namespace repro::nas
