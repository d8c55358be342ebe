// Sweep checkpoint/resume and the result wire/cache encoding.
//
// A sweep with checkpointing saves each completed cell's RunResult to
// one small key=value file (written atomically), keyed by a hash of
// every behaviour-relevant field of the cell's RunConfig. A restarted
// sweep loads the file instead of re-simulating the cell -- but only
// when the identity hash still matches, so an edited configuration
// can never resurrect a stale result.
//
// The same key=value text is the service layer's result encoding: a
// worker process replies with encode_result() over its pipe, the sweep
// daemon's memoized cache journals it verbatim, and a cache hit decodes
// through the same decode_result() a resumed checkpoint does -- one
// serializer, three transports (see src/service and DESIGN.md §17).
//
// The encoding carries everything results_to_json() serializes
// (totals, per-iteration times, engine statistics, fault statistics,
// coherence counters, trace digest and the per-iteration trace
// metrics); it does NOT carry the event trace itself or the region
// records, so a decoded cell's RunResult is JSON-identical to the
// original but not trace-complete.
//
// Checkpoint files additionally embed the *sweep-level* identity (a
// hash over every cell of the sweep that wrote them): resuming against
// a checkpoint directory populated by a different binary or sweep grid
// refuses with CheckpointMismatchError instead of silently mixing
// cells whose per-cell identities happen to coincide.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "repro/harness/run.hpp"

namespace repro::harness {

/// Hash of every RunConfig field that can influence the simulation's
/// result (placement, engines, iterations, machine geometry, coherence
/// model, fault plan, ...), plus, for a replay cell, the trace's
/// content digest (tracefmt::TraceReader::content_digest; a fixed
/// sentinel when the file cannot be opened, so this never throws).
/// Host-side knobs are excluded: they change how a run is supervised
/// or what side files it leaves, not what it computes --
/// cell_timeout_ms, trace_dir, trace_out (a dry dump written before
/// the run), no_fast_forward (moves only the iterations_simulated /
/// iterations_replayed provenance) and machine.table_backend (dense
/// and sparse tables give equal results). So are fields run_benchmark
/// rejects when set.
[[nodiscard]] std::uint64_t config_identity(const RunConfig& config);

/// Hash of a whole sweep: every cell's config_identity, in input
/// order. Never returns 0 (0 means "no sweep identity" to
/// load_checkpoint).
[[nodiscard]] std::uint64_t sweep_identity(
    const std::vector<RunConfig>& configs);

/// A checkpoint directory holds cells of a *different* sweep (the
/// sweep-level identity embedded in a matching cell file disagrees
/// with the running sweep's). Raised instead of resuming: silently
/// mixing cells across sweeps is exactly the staleness bug the
/// identity scheme exists to prevent.
class CheckpointMismatchError : public std::runtime_error {
 public:
  explicit CheckpointMismatchError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Serializes one completed cell as versioned key=value text, fenced
/// by `identity` (= config_identity of the cell's config). This is
/// the checkpoint file body, the worker->daemon reply payload and the
/// result-cache journal payload.
[[nodiscard]] std::string encode_result(std::uint64_t identity,
                                        const RunResult& result);

/// Parses encode_result() text. Returns false (leaving `out`
/// untouched) when the text is malformed, of a different format
/// version, or fenced with an identity other than `expected_identity`.
/// When `sweep_out` is non-null it receives the embedded sweep-level
/// identity (0 when the text carries none, e.g. a worker reply).
[[nodiscard]] bool decode_result(const std::string& text,
                                 std::uint64_t expected_identity,
                                 RunResult* out,
                                 std::uint64_t* sweep_out = nullptr);

/// The cell's checkpoint file inside `dir`.
[[nodiscard]] std::string checkpoint_path(const std::string& dir,
                                          const RunConfig& config);

/// Loads a previously saved result. Returns false (leaving `out`
/// untouched) when the file is missing, unreadable, malformed, or was
/// written for a different config identity. When `expected_sweep` is
/// nonzero and the file's embedded sweep identity differs, throws
/// CheckpointMismatchError -- a readable cell from a *different* sweep
/// is refused loudly, never resumed and never silently recomputed
/// over.
[[nodiscard]] bool load_checkpoint(const std::string& dir,
                                   const RunConfig& config, RunResult* out,
                                   std::uint64_t expected_sweep = 0);

/// Saves `result` atomically; a killed process leaves either no
/// checkpoint or a complete one. `sweep` is the sweep-level identity
/// embedded in the file (0 = written outside a sweep).
void save_checkpoint(const std::string& dir, const RunConfig& config,
                     const RunResult& result, std::uint64_t sweep = 0);

}  // namespace repro::harness
