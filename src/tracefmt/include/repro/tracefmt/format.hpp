// The RTRC binary trace format (version 2).
//
// A trace file is the serialized frontend of one benchmark cell: the
// exact sequence of compiled parallel regions, thread bindings and
// sequential-time advances the workload dispatched, with enough
// metadata (array allocations, hot ranges, team geometry) to rebuild
// the address space and replay the stream through any timing backend
// configuration. Layout:
//
//   FileHeader | meta payload | Chunk* | kTableMagic | chunk table
//              | name table | program table | FileFooter
//
// Every multi-byte integer is little-endian; variable-length integers
// are LEB128 (`varint`), signed deltas zigzag-coded (`svarint`). Each
// distinct compiled program is stored once, in a kProgram record just
// before its first use; every kRegion record is a reference (program
// id, name id, binding). Records never span chunks, every chunk
// carries its own FNV-1a digest and is addressable through the
// footer's chunk table, and the program table names the chunk that
// defines each id, so any chunk decodes -- ids validated -- without
// touching the others. Every kIterationBegin marker sits alone in its
// chunk, so each timed iteration is a run of whole chunks and two
// iterations that dispatch the same stream carry equal chunk digests.
// The full spec lives in DESIGN.md §16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace repro::tracefmt {

/// Any structural problem with a trace file: bad magic, unsupported
/// version, truncation, digest mismatch, malformed varint, record
/// overrun. Reported with the file offset or chunk index where known.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kFileMagic = 0x43525452;   // "RTRC"
inline constexpr std::uint32_t kChunkMagic = 0x4b435452;  // "RTCK"
inline constexpr std::uint32_t kTableMagic = 0x42545452;  // "RTTB"
inline constexpr std::uint32_t kFooterMagic = 0x4e455452; // "RTEN"
inline constexpr std::uint32_t kFormatVersion = 2;

/// Fixed-size file header (immediately followed by `meta_bytes` of
/// varint-encoded metadata whose FNV-1a digest is `meta_digest`).
struct FileHeader {
  std::uint32_t magic = kFileMagic;
  std::uint32_t version = kFormatVersion;
  std::uint64_t meta_bytes = 0;
  std::uint64_t meta_digest = 0;
  std::uint64_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 32);

/// Fixed-size header preceding every chunk payload.
struct ChunkHeader {
  std::uint32_t magic = kChunkMagic;
  std::uint32_t reserved = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t record_count = 0;
  std::uint64_t op_count = 0;
  std::uint64_t payload_digest = 0;  // FNV-1a over the payload bytes
};
static_assert(sizeof(ChunkHeader) == 40);

/// Fixed-size footer at EOF; readers seek here for random access.
struct FileFooter {
  std::uint32_t magic = kFooterMagic;
  std::uint32_t version = kFormatVersion;
  std::uint64_t chunk_count = 0;
  std::uint64_t chunk_table_offset = 0;  // of kTableMagic
  std::uint64_t name_table_offset = 0;
  std::uint64_t program_table_offset = 0;
  std::uint64_t total_records = 0;
  std::uint64_t total_ops = 0;  // dispatched: each region counts its program
};
static_assert(sizeof(FileFooter) == 56);

/// One row of the footer's chunk table.
struct ChunkInfo {
  std::uint64_t offset = 0;  // file offset of the ChunkHeader
  std::uint64_t payload_bytes = 0;
  std::uint64_t record_count = 0;
  std::uint64_t op_count = 0;
  std::uint64_t payload_digest = 0;
};

/// One row of the footer's program table (row index = program id).
struct ProgramInfo {
  std::uint64_t chunk = 0;  // the chunk holding the definition
  std::uint32_t num_threads = 0;
  std::uint32_t op_count = 0;
};

/// A named array allocation of the dumped address space (replay
/// re-allocates these in order, reproducing the page numbering).
struct TraceAllocation {
  std::string name;
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
};

/// A hot memory area the workload registered with UPMlib.
struct TraceRange {
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
};

/// Trace-wide metadata: what was dumped and the machine-independent
/// preconditions replay must re-establish.
struct TraceMeta {
  std::string benchmark;     // workload name, e.g. "CG"
  std::string source_label;  // config label of the dumping run
  std::uint32_t num_procs = 0;
  std::uint32_t num_threads = 0;
  std::uint32_t iterations = 0;  // recorded timed iterations
  std::uint64_t page_size = 0;
  std::vector<TraceAllocation> allocations;
  std::vector<TraceRange> hot_ranges;
};

/// Record kinds within a chunk payload. Kind 0 is unused: region names
/// live in the footer's name table.
enum class RecordKind : std::uint8_t {
  kColdBegin = 1,       // (no payload)
  kIterationBegin = 2,  // varint step
  kRegion = 3,          // varint program id, varint name id, binding
  kAdvance = 4,         // varint nanoseconds
  kProgram = 5,         // varint program id, program body (ProgramData)
};

/// Op flag bits, mirroring memsys::kOp* (the on-disk format must not
/// depend on memsys headers; equality is asserted where both are
/// visible, in sim/trace_recorder.cpp).
inline constexpr std::uint8_t kFlagAccess = 1U << 0U;
inline constexpr std::uint8_t kFlagWrite = 1U << 1U;
inline constexpr std::uint8_t kFlagStream = 1U << 2U;
inline constexpr std::uint8_t kFlagPositioned = 1U << 3U;
inline constexpr std::uint8_t kFlagMask =
    kFlagAccess | kFlagWrite | kFlagStream | kFlagPositioned;

/// Borrowed structure-of-arrays view of one region's compiled op
/// columns (the writer's input; pointers are not owned).
struct RegionColumns {
  const std::uint64_t* pages = nullptr;
  const std::uint64_t* compute = nullptr;
  const std::uint32_t* lines = nullptr;
  const std::uint32_t* line_begin = nullptr;
  const std::uint8_t* flags = nullptr;
  const std::uint32_t* offsets = nullptr;  // num_threads + 1 entries
  std::uint32_t num_threads = 0;
  std::uint32_t size = 0;
  std::uint32_t max_access_lines = 0;
  std::uint32_t max_line_begin = 0;
  /// The caller's name for these exact columns, or 0 for none. A
  /// nonzero serial passed again must come with the same columns, and
  /// lets the writer reuse the program id without reading them.
  std::uint64_t serial = 0;
};

/// Decoded kProgram body: one compiled program's owned columns, in
/// the RegionColumns layout.
struct ProgramData {
  std::uint32_t max_access_lines = 0;
  std::uint32_t max_line_begin = 0;
  std::vector<std::uint64_t> pages;
  std::vector<std::uint64_t> compute;
  std::vector<std::uint32_t> lines;
  std::vector<std::uint32_t> line_begin;
  std::vector<std::uint8_t> flags;
  std::vector<std::uint32_t> offsets;  // num_threads + 1 entries

  [[nodiscard]] std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(offsets.empty() ? 0
                                                      : offsets.size() - 1);
  }
  [[nodiscard]] std::uint32_t size() const {
    return offsets.empty() ? 0 : offsets.back();
  }
};

/// One decoded record.
struct Record {
  RecordKind kind = RecordKind::kColdBegin;
  std::uint32_t step = 0;        // kIterationBegin
  std::uint64_t ns = 0;          // kAdvance
  std::uint32_t program_id = 0;  // kProgram, kRegion
  std::uint32_t name_id = 0;     // kRegion
  std::vector<std::uint32_t> binding;  // kRegion; empty = identity
  ProgramData program;           // kProgram
};

// ---------------------------------------------------------------------------
// FNV-1a 64 over raw bytes (same constants as common/hash.hpp, applied
// per byte -- the digest of record these files carry on disk).

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

[[nodiscard]] inline std::uint64_t fnv1a(const std::uint8_t* data,
                                         std::size_t size,
                                         std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * kFnvPrime;
  }
  return h;
}

// ---------------------------------------------------------------------------
// LEB128 varints + zigzag. Append-style encoders, bounds-checked
// cursor decoders (a malformed stream throws TraceError rather than
// reading past the buffer).

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80U);
    v >>= 7U;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1U) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1U) ^
         -static_cast<std::int64_t>(v & 1U);
}

inline void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

/// The payload of a chunk that holds nothing but iteration `step`'s
/// kIterationBegin record. TraceWriter gives every marker a chunk of
/// its own, so TraceReader can find each iteration from the chunk
/// table alone: one record, no ops, and the digest of these bytes.
[[nodiscard]] inline std::vector<std::uint8_t> marker_payload(
    std::uint32_t step) {
  std::vector<std::uint8_t> out{
      static_cast<std::uint8_t>(RecordKind::kIterationBegin)};
  put_varint(out, step);
  return out;
}

/// Bounds-checked read cursor over a byte buffer.
struct Cursor {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t at = 0;

  [[nodiscard]] bool done() const { return at >= size; }

  [[nodiscard]] std::uint8_t u8() {
    if (at >= size) {
      throw TraceError("trace payload truncated (u8 past end)");
    }
    return data[at++];
  }

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (std::uint32_t shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
      if ((byte & 0x80U) == 0) {
        return v;
      }
    }
    throw TraceError("trace payload malformed (varint over 64 bits)");
  }

  [[nodiscard]] std::int64_t svarint() { return unzigzag(varint()); }

  /// A count of items that each take at least one more byte, so one
  /// the bytes left cannot hold is corrupt: rejected before a caller
  /// reserves for it.
  [[nodiscard]] std::uint32_t count(const char* what) {
    const std::uint64_t n = varint();
    if (n > size - at || n > UINT32_MAX) {
      throw TraceError(std::string(what) + " count " + std::to_string(n) +
                       " exceeds the bytes left");
    }
    return static_cast<std::uint32_t>(n);
  }

  [[nodiscard]] std::string bytes(std::size_t n) {
    if (size - at < n) {
      throw TraceError("trace payload truncated (string past end)");
    }
    std::string s(reinterpret_cast<const char*>(data + at), n);
    at += n;
    return s;
  }
};

}  // namespace repro::tracefmt
