// Trace exporters.
//
// Two formats:
//  * the canonical dump -- a plain-text rendering of the whole trace
//    (lane table, phase table, one line per event in canonical order)
//    whose bytes are identical across runs and job counts for a
//    deterministic simulation. Its digest -- a word hash of the same
//    fields, packed as integers -- is the regression oracle the
//    golden-trace suite checks in;
//  * Chrome trace-event JSON, loadable in chrome://tracing or Perfetto
//    for human inspection of the migration timeline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "repro/trace/sink.hpp"

namespace repro::trace {

/// Renders the canonical dump: header, lane table, phase table, then
/// every event in canonical (time, lane, seq) order, all-integer
/// fields, one line each.
void write_canonical(std::ostream& os, const TraceSink& sink);
[[nodiscard]] std::string canonical_dump(const TraceSink& sink);

/// Version word at the head of the digest stream; bumped whenever the
/// packing below changes, which re-records every golden digest.
inline constexpr std::uint64_t kDigestVersion = 2;

/// Digest of the trace as a 16-hex-digit string; the value stored by
/// the golden-trace regression suite. A repro::WordHash over
/// little-endian 64-bit words, with no text rendered:
///   kDigestVersion;
///   the lane count, then each lane name (WordHash::add_bytes: its
///   length, then its bytes zero-padded to 8);
///   the named-phase count (phases 1..n-1), then each phase name;
///   per event in canonical order, nine words: time, page, a, b, cost,
///   node | src << 32, dst | kind << 32 | lane << 48,
///   seq | iteration << 32, phase (node, src and dst as two's
///   complement 32-bit values).
/// The dump's lines carry exactly these fields, so the digest is a
/// function of the dump's text (tools/trace_info.py --digest).
[[nodiscard]] std::string digest(const TraceSink& sink);

/// Writes the trace in Chrome trace-event JSON ("traceEvents" array):
/// regions as B/E duration events on the team track, barrier waits as
/// per-thread complete events, queue occupancy as counter tracks, and
/// everything else as instant events with argument payloads.
void write_chrome_trace(std::ostream& os, const TraceSink& sink);

}  // namespace repro::trace
