// Streaming trace writer: encodes records into chunked payloads and
// lands the finished file atomically (tmp + rename, like the harness's
// atomic_write_file -- a killed dump leaves no partial trace).
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "repro/tracefmt/format.hpp"

namespace repro::tracefmt {

/// Aggregate counters of a finished dump (logged by the tracer and
/// reported by bench/replay_sweep).
struct WriterStats {
  std::uint64_t records = 0;
  std::uint64_t ops = 0;
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;  // final file size
  std::uint64_t regions = 0;
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
  /// program. Page addresses are delta-encoded within each thread's
  /// stream; the delta baseline resets per record, keeping chunks
  /// independently decodable.
  void region(const std::string& name, std::span<const std::uint32_t> binding,
              const RegionColumns& columns);
  void advance(std::uint64_t ns);

  /// Flushes the open chunk, writes chunk table + name table + footer,
  /// closes and renames the temporary into place. Must be called
  /// exactly once; any stream failure throws TraceError.
  WriterStats finish();

 private:
  void begin_record();
  void end_record(std::uint64_t ops_in_record);
  void flush_chunk();
  [[nodiscard]] std::uint32_t intern(const std::string& name);

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
  WriterStats stats_;
  bool finished_ = false;
};

}  // namespace repro::tracefmt
