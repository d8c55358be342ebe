// Streaming trace writer: encodes records into chunked payloads and
// lands the finished file atomically (tmp + rename, like the harness's
// atomic_write_file -- a killed dump leaves no partial trace).
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "repro/tracefmt/format.hpp"

namespace repro::tracefmt {

/// Aggregate counters of a finished dump (logged by the tracer and
/// reported by bench/replay_sweep).
struct WriterStats {
  std::uint64_t records = 0;
  std::uint64_t ops = 0;  // dispatched: each region counts its program
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;  // final file size
  std::uint64_t regions = 0;
  std::uint64_t programs = 0;  // distinct programs defined
};

class TraceWriter {
 public:
  /// Opens `path` for writing (via `path + ".tmp"`) and writes the
  /// header + metadata immediately. `chunk_target_bytes` bounds the
  /// payload size at which an open chunk is cut (records never split,
  /// so a single giant region may exceed it).
  TraceWriter(std::string path, const TraceMeta& meta,
              std::size_t chunk_target_bytes = 256 * 1024);

  /// Abandons the temporary file when finish() was never reached.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void cold_begin();
  /// Writes iteration `step`'s marker into a chunk of its own (the
  /// open chunk is cut before and after it; see marker_payload).
  void iteration_begin(std::uint32_t step);
  /// Appends one region record. `binding` is thread-to-processor
  /// (empty = identity); `columns` is a borrowed view of the compiled
  /// program. The program is interned: the first region whose columns
  /// and validation maxima equal no earlier program's defines it, in
  /// the same chunk, and every region record references its id. A
  /// known nonzero `columns.serial` skips the columns altogether.
  void region(const std::string& name, std::span<const std::uint32_t> binding,
              const RegionColumns& columns);
  void advance(std::uint64_t ns);

  /// Flushes the open chunk, writes chunk table + name table + footer,
  /// closes and renames the temporary into place. Must be called
  /// exactly once; any stream failure throws TraceError.
  WriterStats finish();

 private:
  void end_record(std::uint64_t ops_in_record);
  void flush_chunk();
  [[nodiscard]] std::uint32_t intern(const std::string& name);
  [[nodiscard]] std::uint32_t intern(const RegionColumns& columns);

  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  std::size_t chunk_target_;
  std::uint64_t offset_ = 0;  // bytes written so far
  std::vector<std::uint8_t> payload_;
  std::uint64_t chunk_records_ = 0;
  std::uint64_t chunk_ops_ = 0;
  std::vector<ChunkInfo> chunks_;
  std::vector<std::string> names_;  // id = index
  // Interned programs: id = index into bodies_ and programs_; a body is
  // the kProgram record's bytes after the id. Ids are looked up by
  // caller serial first, then by body hash + full comparison.
  std::vector<std::vector<std::uint8_t>> bodies_;
  std::vector<ProgramInfo> programs_;
  std::unordered_map<std::uint64_t, std::uint32_t> serial_ids_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> body_ids_;
  std::vector<std::uint8_t> body_;  // scratch
  WriterStats stats_;
  bool finished_ = false;
};

}  // namespace repro::tracefmt
