#include "repro/tracefmt/writer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "repro/common/assert.hpp"

namespace repro::tracefmt {

namespace {

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> encode_meta(const TraceMeta& meta) {
  std::vector<std::uint8_t> out;
  put_varint(out, meta.num_procs);
  put_varint(out, meta.num_threads);
  put_varint(out, meta.iterations);
  put_varint(out, meta.page_size);
  put_string(out, meta.benchmark);
  put_string(out, meta.source_label);
  put_varint(out, meta.allocations.size());
  for (const TraceAllocation& a : meta.allocations) {
    put_string(out, a.name);
    put_varint(out, a.first_page);
    put_varint(out, a.pages);
  }
  put_varint(out, meta.hot_ranges.size());
  for (const TraceRange& r : meta.hot_ranges) {
    put_varint(out, r.first_page);
    put_varint(out, r.pages);
  }
  return out;
}

/// A kProgram body: thread count, the two validation maxima, then per
/// thread its op count and ops -- a flags byte, for accesses a zigzag
/// page delta against the thread's previous access (baseline 0) plus
/// lines and line_begin, then compute. A non-access op must hold zero
/// page, lines and line_begin, which decode restores; everything else
/// is encoded, so equal bodies mean equal columns and maxima.
void encode_program(std::vector<std::uint8_t>& out,
                    const RegionColumns& columns) {
  put_varint(out, columns.num_threads);
  put_varint(out, columns.max_access_lines);
  put_varint(out, columns.max_line_begin);
  for (std::uint32_t t = 0; t < columns.num_threads; ++t) {
    const std::uint32_t begin = columns.offsets[t];
    const std::uint32_t end = columns.offsets[t + 1];
    put_varint(out, end - begin);
    std::uint64_t prev_page = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint8_t flags = columns.flags[i];
      REPRO_REQUIRE((flags & ~kFlagMask) == 0);
      out.push_back(flags);
      if ((flags & kFlagAccess) != 0) {
        put_svarint(out, static_cast<std::int64_t>(columns.pages[i]) -
                             static_cast<std::int64_t>(prev_page));
        prev_page = columns.pages[i];
        put_varint(out, columns.lines[i]);
        put_varint(out, columns.line_begin[i]);
      } else {
        REPRO_REQUIRE(columns.pages[i] == 0 && columns.lines[i] == 0 &&
                      columns.line_begin[i] == 0);
      }
      put_varint(out, columns.compute[i]);
    }
  }
}

}  // namespace

TraceWriter::TraceWriter(std::string path, const TraceMeta& meta,
                         std::size_t chunk_target_bytes)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      chunk_target_(chunk_target_bytes) {
  REPRO_REQUIRE(chunk_target_ >= 1);
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_.good()) {
    throw TraceError("cannot open " + tmp_path_ + " for writing");
  }
  const std::vector<std::uint8_t> meta_bytes = encode_meta(meta);
  FileHeader header;
  header.meta_bytes = meta_bytes.size();
  header.meta_digest = fnv1a(meta_bytes.data(), meta_bytes.size());
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.write(reinterpret_cast<const char*>(meta_bytes.data()),
             static_cast<std::streamsize>(meta_bytes.size()));
  offset_ = sizeof(header) + meta_bytes.size();
}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

std::uint32_t TraceWriter::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t TraceWriter::intern(const RegionColumns& columns) {
  if (columns.serial != 0) {
    const auto known = serial_ids_.find(columns.serial);
    if (known != serial_ids_.end()) {
      return known->second;
    }
  }
  body_.clear();
  encode_program(body_, columns);
  const std::uint64_t hash = fnv1a(body_.data(), body_.size());
  const auto [first, last] = body_ids_.equal_range(hash);
  const auto same = std::find_if(first, last, [this](const auto& entry) {
    return bodies_[entry.second] == body_;
  });
  std::uint32_t id = 0;
  if (same != last) {
    id = same->second;
  } else {
    // Define it here, in the chunk of its first reference: the caller
    // appends the reference before the chunk can be cut.
    id = static_cast<std::uint32_t>(bodies_.size());
    payload_.push_back(static_cast<std::uint8_t>(RecordKind::kProgram));
    put_varint(payload_, id);
    payload_.insert(payload_.end(), body_.begin(), body_.end());
    ++chunk_records_;
    ++stats_.records;
    programs_.push_back(
        ProgramInfo{chunks_.size(), columns.num_threads, columns.size});
    body_ids_.emplace(hash, id);
    bodies_.push_back(body_);
  }
  if (columns.serial != 0) {
    serial_ids_.emplace(columns.serial, id);
  }
  return id;
}

void TraceWriter::end_record(std::uint64_t ops_in_record) {
  ++chunk_records_;
  ++stats_.records;
  chunk_ops_ += ops_in_record;
  stats_.ops += ops_in_record;
  if (payload_.size() >= chunk_target_) {
    flush_chunk();
  }
}

void TraceWriter::cold_begin() {
  payload_.push_back(static_cast<std::uint8_t>(RecordKind::kColdBegin));
  end_record(0);
}

void TraceWriter::iteration_begin(std::uint32_t step) {
  // Cut before and after the marker: it sits alone in its chunk and
  // each iteration's records start a fresh chunk run, so iterations
  // that dispatch the same stream encode to equal chunk digests.
  flush_chunk();
  const std::vector<std::uint8_t> marker = marker_payload(step);
  payload_.insert(payload_.end(), marker.begin(), marker.end());
  end_record(0);
  flush_chunk();
}

void TraceWriter::advance(std::uint64_t ns) {
  payload_.push_back(static_cast<std::uint8_t>(RecordKind::kAdvance));
  put_varint(payload_, ns);
  end_record(0);
}

void TraceWriter::region(const std::string& name,
                         std::span<const std::uint32_t> binding,
                         const RegionColumns& columns) {
  REPRO_REQUIRE(columns.offsets != nullptr && columns.num_threads >= 1);
  REPRO_REQUIRE(binding.empty() || binding.size() == columns.num_threads);
  const std::uint32_t program_id = intern(columns);
  const std::uint32_t name_id = intern(name);
  payload_.push_back(static_cast<std::uint8_t>(RecordKind::kRegion));
  put_varint(payload_, program_id);
  put_varint(payload_, name_id);
  bool identity = true;
  for (std::size_t t = 0; t < binding.size(); ++t) {
    identity = identity && binding[t] == t;
  }
  put_varint(payload_, identity ? 0 : binding.size());
  if (!identity) {
    for (const std::uint32_t proc : binding) {
      put_varint(payload_, proc);
    }
  }
  ++stats_.regions;
  end_record(columns.size);
}

void TraceWriter::flush_chunk() {
  if (chunk_records_ == 0) {
    return;
  }
  ChunkHeader header;
  header.payload_bytes = payload_.size();
  header.record_count = chunk_records_;
  header.op_count = chunk_ops_;
  header.payload_digest = fnv1a(payload_.data(), payload_.size());
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.write(reinterpret_cast<const char*>(payload_.data()),
             static_cast<std::streamsize>(payload_.size()));
  chunks_.push_back(ChunkInfo{offset_, header.payload_bytes,
                              header.record_count, header.op_count,
                              header.payload_digest});
  offset_ += sizeof(header) + payload_.size();
  payload_.clear();
  chunk_records_ = 0;
  chunk_ops_ = 0;
  ++stats_.chunks;
}

WriterStats TraceWriter::finish() {
  REPRO_REQUIRE(!finished_);
  flush_chunk();
  const std::uint64_t table_offset = offset_;
  out_.write(reinterpret_cast<const char*>(&kTableMagic),
             sizeof(kTableMagic));
  std::vector<std::uint8_t> table;
  for (const ChunkInfo& c : chunks_) {
    put_varint(table, c.offset);
    put_varint(table, c.payload_bytes);
    put_varint(table, c.record_count);
    put_varint(table, c.op_count);
    // Digests are not varint-compressible (high entropy); fixed width.
    table.resize(table.size() + sizeof(std::uint64_t));
    std::memcpy(table.data() + table.size() - sizeof(std::uint64_t),
                &c.payload_digest, sizeof(std::uint64_t));
  }
  out_.write(reinterpret_cast<const char*>(table.data()),
             static_cast<std::streamsize>(table.size()));
  const std::uint64_t names_offset =
      table_offset + sizeof(kTableMagic) + table.size();
  std::vector<std::uint8_t> names;
  put_varint(names, names_.size());
  for (const std::string& name : names_) {
    put_string(names, name);
  }
  out_.write(reinterpret_cast<const char*>(names.data()),
             static_cast<std::streamsize>(names.size()));
  const std::uint64_t programs_offset = names_offset + names.size();
  std::vector<std::uint8_t> programs;
  put_varint(programs, programs_.size());
  for (const ProgramInfo& p : programs_) {
    put_varint(programs, p.chunk);
    put_varint(programs, p.num_threads);
    put_varint(programs, p.op_count);
  }
  out_.write(reinterpret_cast<const char*>(programs.data()),
             static_cast<std::streamsize>(programs.size()));

  FileFooter footer;
  footer.chunk_count = chunks_.size();
  footer.chunk_table_offset = table_offset;
  footer.name_table_offset = names_offset;
  footer.program_table_offset = programs_offset;
  footer.total_records = stats_.records;
  footer.total_ops = stats_.ops;
  out_.write(reinterpret_cast<const char*>(&footer), sizeof(footer));
  out_.flush();
  if (!out_.good()) {
    throw TraceError("write failure on " + tmp_path_);
  }
  out_.close();
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw TraceError("cannot rename " + tmp_path_ + " to " + path_);
  }
  finished_ = true;
  stats_.bytes = programs_offset + programs.size() + sizeof(footer);
  stats_.programs = programs_.size();
  return stats_;
}

}  // namespace repro::tracefmt
