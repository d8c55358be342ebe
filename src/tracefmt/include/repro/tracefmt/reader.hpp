// Trace reader: mmaps a finished file, validates header, footer and
// tables, and decodes any chunk independently (digest-verified, with
// every program id checked against the footer's program table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repro/tracefmt/format.hpp"

namespace repro::tracefmt {

class TraceReader {
 public:
  /// Maps `path` read-only and validates header, meta digest, footer
  /// and chunk table. Throws TraceError on any structural problem.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const TraceMeta& meta() const { return meta_; }
  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }
  [[nodiscard]] const ChunkInfo& chunk(std::size_t i) const {
    return chunks_.at(i);
  }
  [[nodiscard]] std::uint64_t total_records() const { return total_records_; }
  [[nodiscard]] std::uint64_t total_ops() const { return total_ops_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }

  [[nodiscard]] std::size_t num_names() const { return names_.size(); }
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_.at(id);
  }

  /// The program table: row `id` says which chunk defines program `id`
  /// and its shape. Ids are defined in order, so rows are sorted by
  /// chunk.
  [[nodiscard]] std::size_t num_programs() const { return programs_.size(); }
  [[nodiscard]] const ProgramInfo& program(std::uint32_t id) const {
    return programs_.at(id);
  }
  /// How many programs chunks [0, chunk) define.
  [[nodiscard]] std::uint32_t programs_before(std::size_t chunk) const;

  /// The chunk holding iteration `step`'s marker at [step - 1], for
  /// steps 1..meta().iterations. Derived at open from the chunk table
  /// alone (see marker_payload); empty when some marker does not sit
  /// alone in its chunk, as in files written before that layout.
  [[nodiscard]] const std::vector<std::size_t>& iteration_chunks() const {
    return iteration_chunks_;
  }

  /// Digest of the trace's content, read from the header, the chunk
  /// and name tables and the footer only: the meta digest plus every
  /// table row, whose payload digests stand in for the payloads.
  [[nodiscard]] std::uint64_t content_digest() const {
    return content_digest_;
  }

  /// Checks chunk `i` without decoding it: its header must agree with
  /// the chunk table and its payload must match its digest, else
  /// TraceError.
  void verify_chunk(std::size_t i) const;

  /// Decodes chunk `i` into `out` (cleared first), after verify_chunk.
  /// A malformed payload throws TraceError naming the chunk, and so
  /// does a program id out of step with the program table: a region
  /// referencing a program not defined before it, or a definition the
  /// table does not place at that point.
  void decode_chunk(std::size_t i, std::vector<Record>& out) const;

 private:
  void decode_payload(std::size_t chunk, const ChunkHeader& header,
                      const std::uint8_t* payload,
                      std::vector<Record>& out) const;

  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  void* map_ = nullptr;          // non-null when mmapped
  std::vector<std::uint8_t> fallback_;  // used when mmap failed
  TraceMeta meta_;
  std::vector<ChunkInfo> chunks_;
  std::vector<std::string> names_;
  std::vector<ProgramInfo> programs_;
  std::vector<std::size_t> iteration_chunks_;
  std::uint64_t content_digest_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_ops_ = 0;
};

}  // namespace repro::tracefmt
