// Trace-dump recorder: adapts the runtime's region/advance observer
// hooks onto a tracefmt::TraceWriter. harness::dump_trace attaches it
// to a dry run that dispatches only the workload's own phases; the
// harness's UPMlib migration passes are never recorded, because replay
// runs under a live machine where they re-execute for real.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "repro/common/strong_id.hpp"
#include "repro/sim/program.hpp"
#include "repro/tracefmt/writer.hpp"

namespace repro::sim {

class TraceRecorder {
 public:
  TraceRecorder(const std::string& path, const tracefmt::TraceMeta& meta);

  /// Phase markers (see harness::dump_trace).
  void begin_cold_start() { writer_.cold_begin(); }
  void begin_iteration(std::uint32_t step) { writer_.iteration_begin(step); }

  /// Runtime hook targets (wired via omp::Runtime::set_region_inspector
  /// and set_advance_observer).
  void on_region(const std::string& name, const RegionProgram& program,
                 std::span<const ProcId> binding);
  void on_advance(Ns duration);

  /// Flushes and atomically lands the file; call exactly once.
  tracefmt::WriterStats finish() { return writer_.finish(); }

 private:
  tracefmt::TraceWriter writer_;
  std::vector<std::uint32_t> binding_scratch_;
};

}  // namespace repro::sim
