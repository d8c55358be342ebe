#include "repro/tracefmt/reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>

namespace repro::tracefmt {

namespace {

std::string read_string(Cursor& c) {
  const std::uint64_t n = c.varint();
  return c.bytes(n);
}

template <typename T>
T read_struct(const std::uint8_t* data, std::uint64_t size,
              std::uint64_t offset, const char* what) {
  if (offset > size || size - offset < sizeof(T)) {
    throw TraceError(std::string("trace truncated reading ") + what);
  }
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

void check_header(const FileHeader& header) {
  if (header.magic != kFileMagic) {
    throw TraceError("not a trace file (bad magic)");
  }
  if (header.version != kFormatVersion) {
    throw TraceError("unsupported trace version " +
                     std::to_string(header.version));
  }
}

TraceMeta decode_meta(const std::uint8_t* data, std::size_t size) {
  Cursor c{data, size, 0};
  TraceMeta meta;
  meta.num_procs = static_cast<std::uint32_t>(c.varint());
  meta.num_threads = static_cast<std::uint32_t>(c.varint());
  meta.iterations = static_cast<std::uint32_t>(c.varint());
  meta.page_size = c.varint();
  meta.benchmark = read_string(c);
  meta.source_label = read_string(c);
  const std::uint64_t allocs = c.varint();
  meta.allocations.reserve(allocs);
  for (std::uint64_t i = 0; i < allocs; ++i) {
    TraceAllocation a;
    a.name = read_string(c);
    a.first_page = c.varint();
    a.pages = c.varint();
    meta.allocations.push_back(std::move(a));
  }
  const std::uint64_t hots = c.varint();
  meta.hot_ranges.reserve(hots);
  for (std::uint64_t i = 0; i < hots; ++i) {
    TraceRange r;
    r.first_page = c.varint();
    r.pages = c.varint();
    meta.hot_ranges.push_back(r);
  }
  if (!c.done()) {
    throw TraceError("trace meta has trailing bytes");
  }
  return meta;
}

/// Decodes one kProgram body (see encode_program in writer.cpp).
void decode_program(Cursor& c, ProgramData& program) {
  const std::uint32_t num_threads = c.count("program thread");
  program.max_access_lines = static_cast<std::uint32_t>(c.varint());
  program.max_line_begin = static_cast<std::uint32_t>(c.varint());
  program.offsets.reserve(std::size_t{num_threads} + 1);
  program.offsets.push_back(0);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    const std::uint32_t count = c.count("thread op");
    if (count > UINT32_MAX - program.offsets.back()) {
      throw TraceError("program op count overflows 32 bits");
    }
    std::uint64_t prev_page = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint8_t flags = c.u8();
      if ((flags & ~kFlagMask) != 0) {
        throw TraceError("op record with unknown flag bits");
      }
      program.flags.push_back(flags);
      if ((flags & kFlagAccess) != 0) {
        const std::int64_t delta = c.svarint();
        const std::uint64_t page = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(prev_page) + delta);
        program.pages.push_back(page);
        prev_page = page;
        program.lines.push_back(static_cast<std::uint32_t>(c.varint()));
        program.line_begin.push_back(static_cast<std::uint32_t>(c.varint()));
      } else {
        program.pages.push_back(0);
        program.lines.push_back(0);
        program.line_begin.push_back(0);
      }
      program.compute.push_back(c.varint());
    }
    program.offsets.push_back(program.offsets.back() + count);
  }
}

}  // namespace

void TraceReader::decode_payload(std::size_t chunk, const ChunkHeader& header,
                                 const std::uint8_t* payload,
                                 std::vector<Record>& out) const {
  Cursor c{payload, header.payload_bytes, 0};
  // Ids below `defined` exist at this point of the file; the table says
  // which ones this chunk must define, in order.
  std::uint32_t defined = programs_before(chunk);
  const std::uint32_t defined_after = programs_before(chunk + 1);
  std::uint64_t ops = 0;
  for (std::uint64_t r = 0; r < header.record_count; ++r) {
    Record record;
    const std::uint8_t kind = c.u8();
    switch (kind) {
      case static_cast<std::uint8_t>(RecordKind::kColdBegin):
        record.kind = RecordKind::kColdBegin;
        break;
      case static_cast<std::uint8_t>(RecordKind::kIterationBegin):
        record.kind = RecordKind::kIterationBegin;
        record.step = static_cast<std::uint32_t>(c.varint());
        break;
      case static_cast<std::uint8_t>(RecordKind::kAdvance):
        record.kind = RecordKind::kAdvance;
        record.ns = c.varint();
        break;
      case static_cast<std::uint8_t>(RecordKind::kProgram): {
        record.kind = RecordKind::kProgram;
        const std::uint64_t id = c.varint();
        if (id < defined) {
          throw TraceError("second definition of program " +
                           std::to_string(id));
        }
        if (id != defined || id >= defined_after) {
          throw TraceError("program " + std::to_string(id) +
                           " is defined out of step with the program table");
        }
        record.program_id = defined++;
        decode_program(c, record.program);
        const ProgramInfo& info = programs_[record.program_id];
        if (record.program.num_threads() != info.num_threads ||
            record.program.size() != info.op_count) {
          throw TraceError("program " + std::to_string(id) +
                           " disagrees with the program table");
        }
        break;
      }
      case static_cast<std::uint8_t>(RecordKind::kRegion): {
        record.kind = RecordKind::kRegion;
        const std::uint64_t id = c.varint();
        if (id >= defined) {
          throw TraceError("region references undefined program " +
                           std::to_string(id));
        }
        record.program_id = static_cast<std::uint32_t>(id);
        const std::uint64_t name_id = c.varint();
        if (name_id >= names_.size()) {
          throw TraceError("region references undefined name " +
                           std::to_string(name_id));
        }
        record.name_id = static_cast<std::uint32_t>(name_id);
        const ProgramInfo& info = programs_[record.program_id];
        const std::uint32_t binding = c.count("binding");
        if (binding != 0 && binding != info.num_threads) {
          throw TraceError("region binding does not match its program's "
                           "thread count");
        }
        record.binding.reserve(binding);
        for (std::uint32_t t = 0; t < binding; ++t) {
          record.binding.push_back(static_cast<std::uint32_t>(c.varint()));
        }
        ops += info.op_count;
        break;
      }
      default:
        throw TraceError("unknown record kind " + std::to_string(kind));
    }
    out.push_back(std::move(record));
  }
  if (!c.done()) {
    throw TraceError("chunk payload has trailing bytes");
  }
  if (defined != defined_after) {
    throw TraceError("missing the definition of program " +
                     std::to_string(defined));
  }
  if (ops != header.op_count) {
    throw TraceError("chunk op count mismatch (header says " +
                     std::to_string(header.op_count) + ", decoded " +
                     std::to_string(ops) + ")");
  }
}

TraceReader::TraceReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) {
    throw TraceError("cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw TraceError("cannot stat " + path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      map_ = map;
      data_ = static_cast<const std::uint8_t*>(map);
    }
  }
  if (data_ == nullptr) {
    // mmap unavailable (exotic filesystem, zero-length file): fall
    // back to an in-memory copy so the reader still works everywhere.
    std::ifstream in(path, std::ios::binary);
    fallback_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    data_ = fallback_.data();
    size_ = fallback_.size();
  }
  ::close(fd);

  const auto header = read_struct<FileHeader>(data_, size_, 0, "header");
  check_header(header);
  const std::uint64_t meta_offset = sizeof(FileHeader);
  if (size_ - meta_offset < header.meta_bytes) {
    throw TraceError("trace truncated reading metadata");
  }
  if (fnv1a(data_ + meta_offset, header.meta_bytes) != header.meta_digest) {
    throw TraceError("trace metadata digest mismatch");
  }
  meta_ = decode_meta(data_ + meta_offset, header.meta_bytes);

  if (size_ < sizeof(FileFooter)) {
    throw TraceError("trace truncated (no footer)");
  }
  const auto footer = read_struct<FileFooter>(
      data_, size_, size_ - sizeof(FileFooter), "footer");
  if (footer.magic != kFooterMagic || footer.version != kFormatVersion) {
    throw TraceError("trace footer missing or corrupt (truncated file?)");
  }
  total_records_ = footer.total_records;
  total_ops_ = footer.total_ops;

  const auto table_magic = read_struct<std::uint32_t>(
      data_, size_, footer.chunk_table_offset, "chunk table");
  if (table_magic != kTableMagic) {
    throw TraceError("chunk table marker missing");
  }
  // Every chunk costs at least its header, so a count the file cannot
  // hold is corrupt: reject it before reserving for it.
  if (footer.chunk_count > size_ / sizeof(ChunkHeader)) {
    throw TraceError("chunk table count exceeds the file size");
  }
  Cursor table{data_, size_ - sizeof(FileFooter),
               footer.chunk_table_offset + sizeof(kTableMagic)};
  chunks_.reserve(footer.chunk_count);
  for (std::uint64_t i = 0; i < footer.chunk_count; ++i) {
    ChunkInfo info;
    info.offset = table.varint();
    info.payload_bytes = table.varint();
    info.record_count = table.varint();
    info.op_count = table.varint();
    const std::string digest = table.bytes(sizeof(std::uint64_t));
    std::memcpy(&info.payload_digest, digest.data(), sizeof(std::uint64_t));
    if (info.offset + sizeof(ChunkHeader) + info.payload_bytes > size_) {
      throw TraceError("chunk " + std::to_string(i) + " extends past EOF");
    }
    chunks_.push_back(info);
  }

  Cursor names{data_, size_ - sizeof(FileFooter), footer.name_table_offset};
  const std::uint64_t name_count = names.varint();
  if (name_count > size_) {
    throw TraceError("name table count exceeds the file size");
  }
  names_.reserve(name_count);
  for (std::uint64_t i = 0; i < name_count; ++i) {
    names_.push_back(read_string(names));
  }

  Cursor programs{data_, size_ - sizeof(FileFooter),
                  footer.program_table_offset};
  const std::uint32_t program_count = programs.count("program table");
  programs_.reserve(program_count);
  for (std::uint32_t id = 0; id < program_count; ++id) {
    const std::uint64_t chunk = programs.varint();
    const std::uint64_t num_threads = programs.varint();
    const std::uint64_t op_count = programs.varint();
    if (chunk >= chunks_.size() ||
        (id > 0 && chunk < programs_.back().chunk) || num_threads == 0 ||
        num_threads > UINT32_MAX || op_count > UINT32_MAX) {
      throw TraceError("program table row " + std::to_string(id) +
                       " is corrupt");
    }
    programs_.push_back(ProgramInfo{chunk,
                                    static_cast<std::uint32_t>(num_threads),
                                    static_cast<std::uint32_t>(op_count)});
  }

  // Index the iterations from the table rows: step's marker chunk holds
  // one record, no ops and exactly marker_payload(step). Steps must
  // appear 1..iterations in order; a file whose markers share chunks
  // with other records gets no index.
  std::vector<std::uint8_t> marker = marker_payload(1);
  std::uint64_t marker_digest = fnv1a(marker.data(), marker.size());
  for (std::size_t i = 0;
       i < chunks_.size() && iteration_chunks_.size() < meta_.iterations;
       ++i) {
    const ChunkInfo& c = chunks_[i];
    if (c.record_count == 1 && c.op_count == 0 &&
        c.payload_bytes == marker.size() && c.payload_digest == marker_digest) {
      iteration_chunks_.push_back(i);
      marker = marker_payload(
          static_cast<std::uint32_t>(iteration_chunks_.size() + 1));
      marker_digest = fnv1a(marker.data(), marker.size());
    }
  }
  if (iteration_chunks_.size() != meta_.iterations) {
    iteration_chunks_.clear();
  }

  // The meta digest, then every byte from the chunk-table marker to
  // EOF: chunk rows (payload digests included), names, programs and
  // footer.
  content_digest_ = fnv1a(
      data_ + footer.chunk_table_offset, size_ - footer.chunk_table_offset,
      fnv1a(reinterpret_cast<const std::uint8_t*>(&header.meta_digest),
            sizeof(header.meta_digest)));
}

TraceReader::~TraceReader() {
  if (map_ != nullptr) {
    ::munmap(map_, size_);
  }
}

void TraceReader::verify_chunk(std::size_t i) const {
  const ChunkInfo& info = chunks_.at(i);
  const auto header =
      read_struct<ChunkHeader>(data_, size_, info.offset, "chunk header");
  if (header.magic != kChunkMagic) {
    throw TraceError("chunk " + std::to_string(i) + " has bad magic");
  }
  if (header.payload_bytes != info.payload_bytes ||
      header.record_count != info.record_count ||
      header.op_count != info.op_count ||
      header.payload_digest != info.payload_digest) {
    throw TraceError("chunk " + std::to_string(i) +
                     " header disagrees with chunk table");
  }
  const std::uint8_t* payload = data_ + info.offset + sizeof(ChunkHeader);
  if (fnv1a(payload, header.payload_bytes) != header.payload_digest) {
    throw TraceError("chunk " + std::to_string(i) + " digest mismatch");
  }
}

std::uint32_t TraceReader::programs_before(std::size_t chunk) const {
  return static_cast<std::uint32_t>(
      std::partition_point(programs_.begin(), programs_.end(),
                           [chunk](const ProgramInfo& p) {
                             return p.chunk < chunk;
                           }) -
      programs_.begin());
}

void TraceReader::decode_chunk(std::size_t i, std::vector<Record>& out) const {
  out.clear();
  verify_chunk(i);
  const std::uint64_t offset = chunks_[i].offset;
  const auto header =
      read_struct<ChunkHeader>(data_, size_, offset, "chunk header");
  try {
    decode_payload(i, header, data_ + offset + sizeof(ChunkHeader), out);
  } catch (const TraceError& e) {
    throw TraceError("chunk " + std::to_string(i) + ": " + e.what());
  }
}

}  // namespace repro::tracefmt
