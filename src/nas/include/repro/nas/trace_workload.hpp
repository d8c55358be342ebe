// Trace replay as a Workload: an RTRC trace file (see src/tracefmt)
// stands in for a NAS model, re-dispatching the recorded region /
// advance stream through the live runtime. Every harness feature --
// placements, UPMlib distribution, the kernel daemon, coherence,
// tracing -- composes unchanged, because the timing backend cannot
// tell a replayed region from a compiled one.
#pragma once

#include <memory>
#include <string>

#include "repro/nas/workload.hpp"

namespace repro::nas {

struct TraceWorkloadOptions {
  /// Retired pipelined-decode switch; make_trace_workload rejects true.
  bool pipeline = false;
};

/// Opens `path` (throws tracefmt::TraceError on malformed input) and
/// wraps it as a replayable workload. The returned workload's name()
/// is the recorded benchmark's name, and default_iterations() is the
/// recorded iteration count; requesting more iterations than were
/// recorded fails with a clear contract violation.
[[nodiscard]] std::unique_ptr<Workload> make_trace_workload(
    const std::string& path, const TraceWorkloadOptions& options = {});

}  // namespace repro::nas
