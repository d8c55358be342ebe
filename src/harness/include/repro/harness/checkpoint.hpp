// Cell identity and the result encoding. The file name is historical
// (it no longer writes checkpoint files); perfbench/src/traced.cpp
// includes it by this name.
//
// config_identity() hashes every behaviour-relevant field of a cell's
// RunConfig, plus the simulator's model version. encode_result() is
// the one serialization of a finished cell: a worker process replies
// with it over its pipe, and the result cache (result_cache.hpp)
// journals it verbatim under the cell's identity. A cache hit decodes
// through decode_result(), whether the sweep daemon serves it or
// run_sweep resumes it from a checkpoint directory (see src/service
// and DESIGN.md §17).
//
// The encoding carries everything results_to_json() serializes
// (totals, per-iteration times, engine statistics, fault statistics,
// coherence counters, trace digest and the per-iteration trace
// metrics); it does NOT carry the event trace itself or the region
// records, so a decoded cell's RunResult is JSON-identical to the
// original but not trace-complete.
#pragma once

#include <cstdint>
#include <string>

#include "repro/harness/run.hpp"

namespace repro::harness {

/// Version of the simulated model. Bump it with every change that
/// moves a simulated byte: it is mixed into config_identity, so each
/// cached result computed by an older model misses once and is
/// recomputed. GoldenTrace.ModelVersionPinsTheGoldenFiles pins a hash
/// of tests/golden/*.txt to this value, so re-recording a golden file
/// without a bump fails.
inline constexpr std::uint64_t kModelVersion = 1;

/// Hash of kModelVersion and of every RunConfig field that can
/// influence the simulation's result (placement, engines, iterations,
/// machine geometry, coherence model, fault plan, ...), plus, for a
/// replay cell, the trace's content digest (tracefmt::TraceReader::content_digest; a fixed
/// sentinel when the file cannot be opened, so this never throws).
/// Host-side knobs are excluded: they change how a run is supervised
/// or what side files it leaves, not what it computes --
/// cell_timeout_ms, trace_dir, trace_out (a dry dump written before
/// the run), no_fast_forward (moves only the iterations_simulated /
/// iterations_replayed provenance) and machine.table_backend (dense
/// and sparse tables give equal results). So are fields run_benchmark
/// rejects when set.
[[nodiscard]] std::uint64_t config_identity(const RunConfig& config);

/// Serializes one completed cell as versioned key=value text, fenced
/// by `identity` (= config_identity of the cell's config). This is
/// the worker->daemon reply payload and the result-cache payload.
[[nodiscard]] std::string encode_result(std::uint64_t identity,
                                        const RunResult& result);

/// Parses encode_result() text. Returns false (leaving `out`
/// untouched) when the text is malformed, of a different format
/// version, or fenced with an identity other than `expected_identity`.
/// Unknown keys are ignored.
[[nodiscard]] bool decode_result(const std::string& text,
                                 std::uint64_t expected_identity,
                                 RunResult* out);

}  // namespace repro::harness
