// Trace readers.
//
// TraceReader mmaps a finished file, validates header/footer, and
// decodes any chunk independently (digest-verified). StreamReader
// decodes the same format sequentially from any std::istream -- no
// seeking, so it works on pipes; region names resolve through the
// inline kDefineName records instead of the footer's table.
#pragma once

#include <cstdint>
#include <istream>
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

  /// Decodes chunk `i` into `out` (cleared first), after verify_chunk;
  /// a malformed payload throws TraceError.
  void decode_chunk(std::size_t i, std::vector<Record>& out) const;

 private:
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  void* map_ = nullptr;          // non-null when mmapped
  std::vector<std::uint8_t> fallback_;  // used when mmap failed
  TraceMeta meta_;
  std::vector<ChunkInfo> chunks_;
  std::vector<std::string> names_;
  std::vector<std::size_t> iteration_chunks_;
  std::uint64_t content_digest_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_ops_ = 0;
};

/// Sequential decoder over an unseekable stream (pipes). Reads the
/// header + meta at construction; next_chunk() yields chunks in order
/// until the chunk-table marker terminates the record section.
class StreamReader {
 public:
  explicit StreamReader(std::istream& in);

  [[nodiscard]] const TraceMeta& meta() const { return meta_; }

  /// Decodes the next chunk into `out` (cleared first); false once the
  /// record section ends. Names resolve via name() as they stream in.
  bool next_chunk(std::vector<Record>& out);

  /// Names defined by the records decoded so far.
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_.at(id);
  }

 private:
  std::istream* in_;
  TraceMeta meta_;
  std::vector<std::string> names_;
  bool done_ = false;
};

/// Shared payload decoder (used by both readers and fuzz tests):
/// decodes exactly `header.record_count` records from `payload`,
/// appending to `out` and cross-checking the op count.
void decode_payload(const ChunkHeader& header, const std::uint8_t* payload,
                    std::vector<Record>& out);

/// Decodes a meta payload (header-validated bytes).
[[nodiscard]] TraceMeta decode_meta(const std::uint8_t* data,
                                    std::size_t size);

}  // namespace repro::tracefmt
