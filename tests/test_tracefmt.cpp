// Trace-format and replay-frontend tests: RTRC encode/decode round
// trips (including a randomized RegionProgram fuzz), corruption
// rejection, the iteration index, and the harness-level replay path
// (a run's --trace-out file == the dry dump, golden-cell byte identity,
// fast-forwarded replay, error cases).
//
// Suite naming matters for CI: TraceFmt also runs under the TSan leg;
// ReplayGolden and ReplayHarness are plain-leg only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/rng.hpp"
#include "repro/harness/run.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/memsys/memory_system.hpp"
#include "repro/nas/trace_workload.hpp"
#include "repro/sim/engine.hpp"
#include "repro/sim/program.hpp"
#include "repro/sim/region.hpp"
#include "repro/sim/trace_recorder.hpp"
#include "repro/sim/trace_replayer.hpp"
#include "repro/topology/topology.hpp"
#include "repro/tracefmt/reader.hpp"
#include "repro/tracefmt/writer.hpp"
#include "repro/trace/metrics.hpp"

namespace repro {
namespace {

using sim::RegionBuilder;
using sim::RegionProgram;
using sim::ReplayItem;
using sim::TraceRecorder;
using sim::TraceReplayer;

/// Unique-per-test temp path, removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& stem)
      : path(std::string(::testing::TempDir()) + stem) {}
  ~TempFile() { std::remove(path.c_str()); }
};

tracefmt::TraceMeta small_meta(std::uint32_t num_threads = 4) {
  tracefmt::TraceMeta meta;
  meta.benchmark = "XX";
  meta.source_label = "ft-base";
  meta.num_procs = num_threads;
  meta.num_threads = num_threads;
  meta.iterations = 1;
  meta.page_size = 16384;
  meta.allocations.push_back(tracefmt::TraceAllocation{"a", 0, 512});
  meta.hot_ranges.push_back(tracefmt::TraceRange{16, 32});
  return meta;
}

/// A deterministic pseudo-random compiled region: accesses (some
/// positioned, some streamed, negative page deltas guaranteed by
/// jumping between two distant bases) plus pure-compute ops.
RegionProgram random_program(Rng& rng, std::uint32_t num_threads) {
  RegionBuilder builder(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    const std::uint64_t ops = 1 + rng.next_below(40);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t kind = rng.next_below(4);
      const VPage page(rng.next_below(2) == 0 ? rng.next_below(64)
                                              : 100000 + rng.next_below(64));
      const auto lines = static_cast<std::uint32_t>(1 + rng.next_below(8));
      const bool write = rng.next_below(2) == 0;
      const Ns compute = static_cast<Ns>(rng.next_below(500));
      if (kind == 0) {
        builder.compute(ThreadId(t), compute + 1);
      } else if (kind == 1) {
        builder.access_at(ThreadId(t), page,
                          static_cast<std::uint32_t>(rng.next_below(8)),
                          lines, write, compute);
      } else {
        builder.access(ThreadId(t), page, lines, write, compute,
                       /*stream=*/kind == 3);
      }
    }
  }
  return RegionProgram::compile(std::move(builder));
}

void expect_columns_equal(const RegionProgram& a, const RegionProgram& b) {
  const RegionProgram::ColumnView ca = a.columns();
  const RegionProgram::ColumnView cb = b.columns();
  ASSERT_EQ(ca.num_threads, cb.num_threads);
  ASSERT_EQ(ca.size, cb.size);
  EXPECT_EQ(ca.max_access_lines, cb.max_access_lines);
  EXPECT_EQ(ca.max_line_begin, cb.max_line_begin);
  for (std::uint32_t t = 0; t <= ca.num_threads; ++t) {
    ASSERT_EQ(ca.offsets[t], cb.offsets[t]) << "offset " << t;
  }
  for (std::uint32_t i = 0; i < ca.size; ++i) {
    EXPECT_EQ(ca.pages[i], cb.pages[i]) << "op " << i;
    EXPECT_EQ(ca.compute[i], cb.compute[i]) << "op " << i;
    EXPECT_EQ(ca.lines[i], cb.lines[i]) << "op " << i;
    EXPECT_EQ(ca.line_begin[i], cb.line_begin[i]) << "op " << i;
    EXPECT_EQ(ca.flags[i], cb.flags[i]) << "op " << i;
  }
}

tracefmt::RegionColumns columns_of(const RegionProgram& program) {
  const RegionProgram::ColumnView view = program.columns();
  tracefmt::RegionColumns columns;
  columns.pages = view.pages;
  columns.compute = view.compute;
  columns.lines = view.lines;
  columns.line_begin = view.line_begin;
  columns.flags = view.flags;
  columns.offsets = view.offsets;
  columns.num_threads = view.num_threads;
  columns.size = view.size;
  columns.max_access_lines = view.max_access_lines;
  columns.max_line_begin = view.max_line_begin;
  return columns;
}

tracefmt::RegionColumns columns_of(const tracefmt::ProgramData& d) {
  tracefmt::RegionColumns columns;
  columns.pages = d.pages.data();
  columns.compute = d.compute.data();
  columns.lines = d.lines.data();
  columns.line_begin = d.line_begin.data();
  columns.flags = d.flags.data();
  columns.offsets = d.offsets.data();
  columns.num_threads = d.num_threads();
  columns.size = d.size();
  columns.max_access_lines = d.max_access_lines;
  columns.max_line_begin = d.max_line_begin;
  return columns;
}

/// Records `programs` (one region each, identity binding) into `path`.
tracefmt::WriterStats record_programs(
    const std::string& path, const tracefmt::TraceMeta& meta,
    const std::vector<const RegionProgram*>& programs,
    std::size_t chunk_target_bytes = 256 * 1024) {
  tracefmt::TraceWriter writer(path, meta, chunk_target_bytes);
  writer.cold_begin();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    writer.region("region_" + std::to_string(i % 3), {},
                  columns_of(*programs[i]));
    writer.advance(static_cast<Ns>(17 + i));
  }
  return writer.finish();
}

/// Replays every kRegion item of `path` back as programs (copies of
/// the replayer's one decoded program per id).
std::vector<RegionProgram> replayed_programs(const std::string& path) {
  TraceReplayer replayer(path);
  std::vector<RegionProgram> out;
  ReplayItem item;
  while (replayer.next(item)) {
    if (item.kind == ReplayItem::Kind::kRegion) {
      out.push_back(RegionProgram::from_columns(
          replayer.program(item.program_id).columns()));
    }
  }
  return out;
}

/// How many kProgram records `path` holds per program id, decoding
/// every chunk in order.
std::vector<std::uint32_t> definitions_per_program(const std::string& path) {
  tracefmt::TraceReader reader(path);
  std::vector<std::uint32_t> defined(reader.num_programs(), 0);
  std::vector<tracefmt::Record> records;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    reader.decode_chunk(c, records);
    for (const tracefmt::Record& r : records) {
      if (r.kind == tracefmt::RecordKind::kProgram) {
        ++defined.at(r.program_id);
      }
    }
  }
  return defined;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void append_raw(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// How rewrite_trace makes one iteration run `extra_ns` longer.
enum class Lengthen : std::uint8_t {
  kExtraRecord,    // a new advance record right after the marker
  kFirstAdvance,   // the iteration's first advance record, in place
};

/// Re-encodes `src` record by record through a TraceWriter into `dst`,
/// lengthening iteration `step` by `extra_ns` (0 = a faithful copy).
void rewrite_trace(const std::string& src, const std::string& dst,
                   std::uint32_t step, std::uint64_t extra_ns,
                   Lengthen how = Lengthen::kExtraRecord) {
  tracefmt::TraceReader reader(src);
  tracefmt::TraceWriter writer(dst, reader.meta());
  std::vector<tracefmt::Record> records;
  std::vector<tracefmt::ProgramData> programs(reader.num_programs());
  std::uint32_t current = 0;  // 0 = the cold start
  bool lengthened = extra_ns == 0;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    reader.decode_chunk(c, records);
    for (tracefmt::Record& r : records) {
      switch (r.kind) {
        case tracefmt::RecordKind::kProgram:
          // The writer defines it again on its first reference.
          programs[r.program_id] = std::move(r.program);
          break;
        case tracefmt::RecordKind::kColdBegin:
          writer.cold_begin();
          break;
        case tracefmt::RecordKind::kIterationBegin:
          writer.iteration_begin(r.step);
          current = r.step;
          if (current == step && !lengthened &&
              how == Lengthen::kExtraRecord) {
            writer.advance(extra_ns);
            lengthened = true;
          }
          break;
        case tracefmt::RecordKind::kAdvance:
          if (current == step && !lengthened) {
            writer.advance(r.ns + extra_ns);
            lengthened = true;
          } else {
            writer.advance(r.ns);
          }
          break;
        case tracefmt::RecordKind::kRegion:
          writer.region(reader.name(r.name_id), r.binding,
                        columns_of(programs[r.program_id]));
          break;
      }
    }
  }
  (void)writer.finish();
  ASSERT_TRUE(lengthened) << "iteration " << step << " has no advance";
}

/// A trace taken apart for hand assembly (see assemble_trace).
struct RawChunk {
  std::vector<std::uint8_t> payload;
  std::uint64_t records = 0;
  std::uint64_t ops = 0;
};
struct RawTrace {
  std::vector<std::uint8_t> prefix;  // file header and metadata
  std::vector<RawChunk> chunks;
  std::vector<std::string> names;
  std::vector<tracefmt::ProgramInfo> programs;
};

RawTrace read_raw(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  tracefmt::TraceReader reader(path);
  RawTrace raw;
  raw.prefix.assign(bytes.begin(),
                    bytes.begin() +
                        static_cast<std::ptrdiff_t>(reader.chunk(0).offset));
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    const tracefmt::ChunkInfo& row = reader.chunk(c);
    const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(
                                           row.offset +
                                           sizeof(tracefmt::ChunkHeader));
    raw.chunks.push_back(RawChunk{
        {begin, begin + static_cast<std::ptrdiff_t>(row.payload_bytes)},
        row.record_count,
        row.op_count});
  }
  for (std::uint32_t id = 0; id < reader.num_names(); ++id) {
    raw.names.push_back(reader.name(id));
  }
  for (std::uint32_t id = 0; id < reader.num_programs(); ++id) {
    raw.programs.push_back(reader.program(id));
  }
  return raw;
}

/// Writes `raw` to `path`, deriving chunk headers, digests, tables and
/// footer (built from the format.hpp structs, bypassing TraceWriter),
/// so only the payloads and the program table can be wrong.
void assemble_trace(const std::string& path, const RawTrace& raw) {
  std::vector<std::uint8_t> out = raw.prefix;
  std::vector<tracefmt::ChunkInfo> rows;
  tracefmt::FileFooter footer;
  for (const RawChunk& c : raw.chunks) {
    tracefmt::ChunkHeader header;
    header.payload_bytes = c.payload.size();
    header.record_count = c.records;
    header.op_count = c.ops;
    header.payload_digest = repro::fnv1a(c.payload.data(), c.payload.size());
    rows.push_back(tracefmt::ChunkInfo{out.size(), header.payload_bytes,
                                       c.records, c.ops,
                                       header.payload_digest});
    append_raw(out, header);
    out.insert(out.end(), c.payload.begin(), c.payload.end());
    footer.total_records += c.records;
    footer.total_ops += c.ops;
  }
  footer.chunk_table_offset = out.size();
  append_raw(out, tracefmt::kTableMagic);
  for (const tracefmt::ChunkInfo& row : rows) {
    tracefmt::put_varint(out, row.offset);
    tracefmt::put_varint(out, row.payload_bytes);
    tracefmt::put_varint(out, row.record_count);
    tracefmt::put_varint(out, row.op_count);
    append_raw(out, row.payload_digest);
  }
  footer.name_table_offset = out.size();
  tracefmt::put_varint(out, raw.names.size());
  for (const std::string& name : raw.names) {
    tracefmt::put_varint(out, name.size());
    out.insert(out.end(), name.begin(), name.end());
  }
  footer.program_table_offset = out.size();
  tracefmt::put_varint(out, raw.programs.size());
  for (const tracefmt::ProgramInfo& p : raw.programs) {
    tracefmt::put_varint(out, p.chunk);
    tracefmt::put_varint(out, p.num_threads);
    tracefmt::put_varint(out, p.op_count);
  }
  footer.chunk_count = raw.chunks.size();
  append_raw(out, footer);
  write_bytes(path, out);
}

/// Re-assembles `src` with chunks [first, end) merged into one, so the
/// iteration markers from there on share a chunk with region records.
void merge_chunks_from(const std::string& src, const std::string& dst,
                       std::size_t first) {
  RawTrace raw = read_raw(src);
  RawChunk& merged = raw.chunks[first];
  for (std::size_t c = first + 1; c < raw.chunks.size(); ++c) {
    merged.payload.insert(merged.payload.end(), raw.chunks[c].payload.begin(),
                          raw.chunks[c].payload.end());
    merged.records += raw.chunks[c].records;
    merged.ops += raw.chunks[c].ops;
  }
  raw.chunks.resize(first + 1);
  for (tracefmt::ProgramInfo& p : raw.programs) {
    p.chunk = std::min<std::uint64_t>(p.chunk, first);
  }
  assemble_trace(dst, raw);
}

/// Appends a kProgram record for `id`: one thread, one compute op.
void put_program(std::vector<std::uint8_t>& out, std::uint64_t id) {
  out.push_back(static_cast<std::uint8_t>(tracefmt::RecordKind::kProgram));
  tracefmt::put_varint(out, id);
  for (const std::uint64_t v : {1U, 0U, 0U, 1U}) {  // threads, maxima, ops
    tracefmt::put_varint(out, v);
  }
  out.push_back(0);  // flags: compute
  tracefmt::put_varint(out, 250);
}

/// Appends a kRegion record referencing program `id` and name 0 with
/// `binding` processors listed (0 = identity).
void put_reference(std::vector<std::uint8_t>& out, std::uint64_t id,
                   std::uint64_t binding = 0) {
  out.push_back(static_cast<std::uint8_t>(tracefmt::RecordKind::kRegion));
  tracefmt::put_varint(out, id);
  tracefmt::put_varint(out, 0);
  tracefmt::put_varint(out, binding);
}

harness::RunConfig tiny_config(const std::string& placement, bool upmlib) {
  harness::RunConfig config;
  config.benchmark = "CG";
  config.placement = placement;
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  if (upmlib) {
    config.upm_mode = nas::UpmMode::kDistribution;
  }
  return config;
}

// ---------------------------------------------------------------------
// TraceFmt: encoding primitives and file-level round trips.

TEST(TraceFmt, VarintAndZigzagRoundTrip) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t values[] = {0,   1,    127,        128,
                                  300, 1u << 21, 1ull << 63, UINT64_MAX};
  for (const std::uint64_t v : values) {
    tracefmt::put_varint(buf, v);
  }
  const std::int64_t svalues[] = {0, -1, 1, -64, 64, -99, INT64_MIN,
                                  INT64_MAX};
  for (const std::int64_t v : svalues) {
    tracefmt::put_svarint(buf, v);
  }
  tracefmt::Cursor c{buf.data(), buf.size(), 0};
  for (const std::uint64_t v : values) {
    EXPECT_EQ(c.varint(), v);
  }
  for (const std::int64_t v : svalues) {
    EXPECT_EQ(c.svarint(), v);
  }
  EXPECT_TRUE(c.done());
}

TEST(TraceFmt, CursorRejectsTruncationAndOverlongVarints) {
  std::vector<std::uint8_t> buf;
  tracefmt::put_varint(buf, 1u << 20);
  tracefmt::Cursor truncated{buf.data(), buf.size() - 1, 0};
  EXPECT_THROW(truncated.varint(), tracefmt::TraceError);
  const std::vector<std::uint8_t> overlong(11, 0x80);
  tracefmt::Cursor c{overlong.data(), overlong.size(), 0};
  EXPECT_THROW(c.varint(), tracefmt::TraceError);
}

TEST(TraceFmt, WriterReaderRoundTripPreservesEverything) {
  Rng rng(7);
  const RegionProgram program = random_program(rng, 4);
  TempFile file("roundtrip.rtrc");
  const tracefmt::TraceMeta meta = small_meta();
  const tracefmt::WriterStats stats =
      record_programs(file.path, meta, {&program});
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_GT(stats.bytes, 0u);

  tracefmt::TraceReader reader(file.path);
  EXPECT_EQ(reader.meta().benchmark, meta.benchmark);
  EXPECT_EQ(reader.meta().source_label, meta.source_label);
  EXPECT_EQ(reader.meta().num_procs, meta.num_procs);
  EXPECT_EQ(reader.meta().page_size, meta.page_size);
  ASSERT_EQ(reader.meta().allocations.size(), 1u);
  EXPECT_EQ(reader.meta().allocations[0].name, "a");
  EXPECT_EQ(reader.meta().allocations[0].pages, 512u);
  ASSERT_EQ(reader.meta().hot_ranges.size(), 1u);
  EXPECT_EQ(reader.meta().hot_ranges[0].first_page, 16u);
  // op_count tallies simulated region ops; markers/advances carry none.
  EXPECT_EQ(reader.total_ops(), program.size());
  EXPECT_EQ(reader.name(0), "region_0");

  const std::vector<RegionProgram> back = replayed_programs(file.path);
  ASSERT_EQ(back.size(), 1u);
  expect_columns_equal(program, back[0]);
}

TEST(TraceFmt, FuzzRandomProgramsRoundTripExactly) {
  Rng rng(20260808);
  for (int round = 0; round < 25; ++round) {
    const auto num_threads = static_cast<std::uint32_t>(
        1 + rng.next_below(8));
    std::vector<RegionProgram> programs;
    const std::uint64_t count = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      programs.push_back(random_program(rng, num_threads));
    }
    std::vector<const RegionProgram*> ptrs;
    for (const RegionProgram& p : programs) {
      ptrs.push_back(&p);
    }
    TempFile file("fuzz.rtrc");
    // Tiny chunk target: multi-chunk files and per-record delta-baseline
    // resets are exercised by construction.
    record_programs(file.path, small_meta(num_threads), ptrs,
                    /*chunk_target_bytes=*/round % 2 == 0 ? 128 : 256 * 1024);
    const std::vector<RegionProgram> back = replayed_programs(file.path);
    ASSERT_EQ(back.size(), programs.size()) << "round " << round;
    for (std::size_t i = 0; i < back.size(); ++i) {
      expect_columns_equal(programs[i], back[i]);
    }
  }
}

/// Minimal deterministic backend: pages home round-robin by number.
class HomeByPage final : public memsys::MemoryBackend {
 public:
  explicit HomeByPage(std::size_t nodes) : nodes_(nodes) {}
  memsys::HomeInfo resolve(ProcId, VPage page, bool) override {
    return {NodeId(static_cast<std::uint32_t>(page.value() % nodes_)),
            FrameId(page.value())};
  }
  Ns on_miss(ProcId, VPage, const memsys::HomeInfo&, std::uint32_t,
             Ns) override {
    return 0;
  }

 private:
  std::size_t nodes_;
};

TEST(TraceFmt, FuzzReplayedProgramSimulatesIdentically) {
  memsys::MachineConfig config;
  config.num_nodes = 4;
  config.procs_per_node = 1;
  config.frames_per_node = 4096;
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    const RegionProgram program = random_program(rng, 4);
    TempFile file("fuzz_sim.rtrc");
    record_programs(file.path, small_meta(), {&program});
    std::vector<RegionProgram> back = replayed_programs(file.path);
    ASSERT_EQ(back.size(), 1u);

    // Same machine, same start time: the replayed program must produce
    // bit-identical timing and per-processor statistics.
    topo::FatHypercube topo_a(4);
    HomeByPage backend_a(4);
    memsys::MemorySystem mem_a(config, topo_a, backend_a);
    sim::Engine engine_a(mem_a);
    const sim::RegionResult ra = engine_a.run(1000, program);
    topo::FatHypercube topo_b(4);
    HomeByPage backend_b(4);
    memsys::MemorySystem mem_b(config, topo_b, backend_b);
    sim::Engine engine_b(mem_b);
    const sim::RegionResult rb = engine_b.run(1000, back[0]);
    EXPECT_EQ(ra.end, rb.end) << "round " << round;
    const memsys::ProcStats sa = mem_a.total_stats();
    const memsys::ProcStats sb = mem_b.total_stats();
    EXPECT_EQ(sa.hit_lines, sb.hit_lines);
    EXPECT_EQ(sa.local_miss_lines, sb.local_miss_lines);
    EXPECT_EQ(sa.remote_miss_lines, sb.remote_miss_lines);
    EXPECT_EQ(sa.queue_wait, sb.queue_wait);
  }
}

/// Four threads of eight two-line reads each, at pages shifted by
/// `shift`: equal shapes (so equal arena sizes) with distinct contents.
RegionProgram shifted_program(std::uint64_t shift) {
  RegionBuilder builder(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      builder.access(ThreadId(t), VPage(64 * t + 2 * i + shift), 2,
                     /*write=*/i % 3 == 0, /*compute=*/40);
    }
  }
  return RegionProgram::compile(std::move(builder));
}

TEST(TraceFmt, RecorderInternsOneShotProgramsByContent) {
  memsys::MachineConfig config;
  config.num_nodes = 4;
  config.procs_per_node = 1;
  config.frames_per_node = 4096;
  topo::FatHypercube topo_a(4);
  HomeByPage backend_a(4);
  memsys::MemorySystem mem_a(config, topo_a, backend_a);
  sim::Engine engine_a(mem_a);
  std::vector<Ns> direct_ends;
  Ns now = 0;
  const std::vector<ProcId> binding{ProcId(0), ProcId(1), ProcId(2),
                                    ProcId(3)};

  TempFile file("one_shot.rtrc");
  TraceRecorder recorder(file.path, small_meta());
  recorder.begin_cold_start();
  const auto dispatch = [&](const RegionProgram& program) {
    recorder.on_region("one_shot", program, binding);
    now = engine_a.run(now, program).end;
    direct_ends.push_back(now);
  };
  // One-shot programs built back to back, each destroyed after its
  // dispatch, as Runtime::run does with a builder: the allocator may
  // hand the next one the same arena, so only content tells them apart.
  for (const std::uint64_t shift : {0U, 1U, 2U, 3U}) {
    dispatch(shifted_program(shift));
  }
  // Equal contents from different objects, and a repeat of one object.
  const RegionProgram a = shifted_program(10);
  const RegionProgram b = shifted_program(10);
  ASSERT_NE(a.serial(), b.serial());
  dispatch(a);
  dispatch(b);
  dispatch(a);
  dispatch(shifted_program(0));
  const tracefmt::WriterStats stats = recorder.finish();
  EXPECT_EQ(stats.regions, 8u);
  EXPECT_EQ(stats.programs, 5u);
  EXPECT_EQ(stats.ops, 8u * a.size());
  EXPECT_EQ(definitions_per_program(file.path),
            std::vector<std::uint32_t>(5, 1));

  topo::FatHypercube topo_b(4);
  HomeByPage backend_b(4);
  memsys::MemorySystem mem_b(config, topo_b, backend_b);
  sim::Engine engine_b(mem_b);
  TraceReplayer replayer(file.path);
  EXPECT_EQ(replayer.reader().total_ops(), stats.ops);
  std::vector<Ns> replay_ends;
  std::vector<std::uint32_t> ids;
  now = 0;
  ReplayItem item;
  while (replayer.next(item)) {
    if (item.kind == ReplayItem::Kind::kRegion) {
      ids.push_back(item.program_id);
      now = engine_b.run(now, replayer.program(item.program_id)).end;
      replay_ends.push_back(now);
    }
  }
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 4, 4, 0}));
  EXPECT_EQ(replay_ends, direct_ends);
  const memsys::ProcStats sa = mem_a.total_stats();
  const memsys::ProcStats sb = mem_b.total_stats();
  EXPECT_EQ(sa.hit_lines, sb.hit_lines);
  EXPECT_EQ(sa.local_miss_lines, sb.local_miss_lines);
  EXPECT_EQ(sa.remote_miss_lines, sb.remote_miss_lines);
  EXPECT_EQ(sa.queue_wait, sb.queue_wait);
}

TEST(TraceFmt, WriterInternsByContentNotByAddress) {
  // One buffer rewritten in place between regions: same pointers, new
  // content, and no serial to vouch for either.
  const RegionProgram seed = shifted_program(0);
  const RegionProgram::ColumnView view = seed.columns();
  std::vector<std::uint64_t> pages(view.pages, view.pages + view.size);
  tracefmt::RegionColumns columns = columns_of(seed);
  columns.pages = pages.data();
  TempFile file("in_place.rtrc");
  tracefmt::TraceWriter writer(file.path, small_meta());
  writer.cold_begin();
  writer.region("r", {}, columns);
  pages[5] += 7;
  writer.region("r", {}, columns);
  pages[5] -= 7;
  writer.region("r", {}, columns);
  // A serial vouches for the columns it was first seen with.
  columns.serial = 42;
  writer.region("r", {}, columns);
  pages[5] += 7;
  writer.region("r", {}, columns);
  EXPECT_EQ(writer.finish().programs, 2u);

  TraceReplayer replayer(file.path);
  std::vector<std::uint32_t> ids;
  ReplayItem item;
  while (replayer.next(item)) {
    if (item.kind == ReplayItem::Kind::kRegion) {
      ids.push_back(item.program_id);
    }
  }
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 0, 0, 0}));
  EXPECT_EQ(replayer.program(1).page(5).value(), view.pages[5] + 7);
}

TEST(TraceFmt, MultiChunkFilesSupportRandomChunkAccess) {
  Rng rng(3);
  std::vector<RegionProgram> programs;
  for (int i = 0; i < 12; ++i) {
    programs.push_back(random_program(rng, 3));
  }
  std::vector<const RegionProgram*> ptrs;
  for (const RegionProgram& p : programs) {
    ptrs.push_back(&p);
  }
  TempFile file("chunks.rtrc");
  const tracefmt::WriterStats stats = record_programs(
      file.path, small_meta(3), ptrs, /*chunk_target_bytes=*/64);
  EXPECT_GT(stats.chunks, 4u);

  tracefmt::TraceReader reader(file.path);
  ASSERT_EQ(reader.num_chunks(), stats.chunks);
  // Decode chunks backwards: each chunk is independently decodable.
  std::uint64_t records = 0;
  std::uint64_t ops = 0;
  std::vector<tracefmt::Record> out;
  for (std::size_t i = reader.num_chunks(); i > 0; --i) {
    reader.decode_chunk(i - 1, out);
    records += out.size();
    EXPECT_EQ(out.size(), reader.chunk(i - 1).record_count);
    for (const tracefmt::Record& r : out) {
      if (r.kind == tracefmt::RecordKind::kRegion) {
        ops += reader.program(r.program_id).op_count;
      }
    }
  }
  EXPECT_EQ(records, stats.records);
  EXPECT_EQ(ops, stats.ops);
  EXPECT_EQ(reader.total_records(), stats.records);
  EXPECT_EQ(reader.total_ops(), stats.ops);
}

TEST(TraceFmt, RejectsTruncationCorruptionAndBadMagic) {
  Rng rng(5);
  const RegionProgram program = random_program(rng, 4);
  TempFile file("corrupt.rtrc");
  record_programs(file.path, small_meta(), {&program});

  std::ifstream in(file.path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const auto write_variant = [&](const std::vector<char>& data) {
    std::ofstream out(file.path + ".v", std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  TempFile variant("corrupt.rtrc.v");

  // Truncated at every structurally interesting prefix length.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{40},
        bytes.size() / 2, bytes.size() - 1}) {
    write_variant(std::vector<char>(bytes.begin(),
                                    bytes.begin() +
                                        static_cast<std::ptrdiff_t>(keep)));
    EXPECT_THROW(tracefmt::TraceReader reader(variant.path),
                 tracefmt::TraceError)
        << "keep=" << keep;
  }

  // Flip one payload byte: the chunk digest check must reject it.
  {
    std::vector<char> flipped = bytes;
    flipped[sizeof(tracefmt::FileHeader) + 60] ^= 0x40;
    write_variant(flipped);
    tracefmt::TraceReader reader(variant.path);
    std::vector<tracefmt::Record> out;
    EXPECT_THROW(reader.decode_chunk(0, out), tracefmt::TraceError);
  }

  // Break the file magic.
  {
    std::vector<char> bad = bytes;
    bad[0] = 'X';
    write_variant(bad);
    EXPECT_THROW(tracefmt::TraceReader reader(variant.path),
                 tracefmt::TraceError);
  }

  // Table counts the file cannot hold are rejected before anything is
  // reserved for them.
  tracefmt::FileFooter footer;
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof(footer),
              sizeof(footer));
  {
    tracefmt::FileFooter huge = footer;
    huge.chunk_count = std::uint64_t{1} << 60;
    std::vector<char> bad = bytes;
    std::memcpy(bad.data() + bad.size() - sizeof(huge), &huge, sizeof(huge));
    write_variant(bad);
    EXPECT_THROW(tracefmt::TraceReader reader(variant.path),
                 tracefmt::TraceError);
  }
  {
    std::vector<std::uint8_t> bad(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(footer.name_table_offset));
    tracefmt::put_varint(bad, std::uint64_t{1} << 40);
    append_raw(bad, footer);
    write_variant(std::vector<char>(bad.begin(), bad.end()));
    EXPECT_THROW(tracefmt::TraceReader reader(variant.path),
                 tracefmt::TraceError);
  }

  // A version-1 file is refused by name.
  {
    std::vector<char> old = bytes;
    const std::uint32_t v1 = 1;
    std::memcpy(old.data() + offsetof(tracefmt::FileHeader, version), &v1,
                sizeof(v1));
    write_variant(old);
    try {
      tracefmt::TraceReader reader(variant.path);
      ADD_FAILURE() << "a version-1 file was accepted";
    } catch (const tracefmt::TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported trace version 1"),
                std::string::npos)
          << e.what();
    }
  }

  // Hand-built payloads whose digests and tables are all consistent:
  // decode must reject each with the chunk index, and a count read from
  // the file is checked against the bytes left before anything is
  // reserved for it (the last three would otherwise ask for gigabytes).
  const std::vector<std::uint8_t> prefix = read_raw(file.path).prefix;
  const std::vector<tracefmt::ProgramInfo> one_program{{0, 1, 1}};
  std::vector<std::uint8_t> defines;
  put_program(defines, 0);
  std::vector<std::uint8_t> undefined = defines;
  put_reference(undefined, 1);
  std::vector<std::uint8_t> huge_threads{
      static_cast<std::uint8_t>(tracefmt::RecordKind::kProgram), 0};
  tracefmt::put_varint(huge_threads, 0xFFFFFFFEU);
  std::vector<std::uint8_t> huge_ops{
      static_cast<std::uint8_t>(tracefmt::RecordKind::kProgram), 0, 1, 0, 0};
  tracefmt::put_varint(huge_ops, 0xFFFFFFFEU);
  std::vector<std::uint8_t> huge_binding = defines;
  put_reference(huge_binding, 0, 0xFFFFFFFEU);
  std::vector<std::uint8_t> referenced = defines;
  put_reference(referenced, 0);
  const struct {
    const char* what;
    std::vector<RawChunk> chunks;
    std::vector<tracefmt::ProgramInfo> programs;
    std::size_t bad_chunk;
  } cases[] = {
      {"undefined program 1", {{undefined, 2, 1}}, one_program, 0},
      {"second definition of program 0",
       {{referenced, 2, 1}, {referenced, 2, 1}},
       one_program,
       1},
      {"program thread count",
       {{huge_threads, 1, 0}},
       {{0, 0xFFFFFFFEU, 0}},
       0},
      {"thread op count", {{huge_ops, 1, 0}}, {{0, 1, 0xFFFFFFFEU}}, 0},
      {"binding count", {{huge_binding, 2, 1}}, one_program, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    assemble_trace(variant.path, RawTrace{prefix, c.chunks, {"r"},
                                          c.programs});
    tracefmt::TraceReader reader(variant.path);
    std::vector<tracefmt::Record> out;
    for (std::size_t i = 0; i < c.bad_chunk; ++i) {
      reader.decode_chunk(i, out);
    }
    try {
      reader.decode_chunk(c.bad_chunk, out);
      ADD_FAILURE() << "decoded";
    } catch (const tracefmt::TraceError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("chunk " + std::to_string(c.bad_chunk) + ": "),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(c.what), std::string::npos) << message;
    }
  }
}

TEST(TraceFmt, EveryIterationMarkerSitsAloneInItsChunk) {
  TempFile file("markers.rtrc");
  harness::RunConfig config = tiny_config("ft", false);
  config.iterations = 5;
  (void)harness::dump_trace(config, file.path);

  tracefmt::TraceReader reader(file.path);
  std::vector<std::size_t> marker_chunks;
  std::vector<std::uint32_t> steps;
  std::vector<tracefmt::Record> out;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    reader.decode_chunk(c, out);
    for (const tracefmt::Record& r : out) {
      if (r.kind == tracefmt::RecordKind::kIterationBegin) {
        EXPECT_EQ(out.size(), 1u) << "marker " << r.step << " shares chunk "
                                  << c;
        marker_chunks.push_back(c);
        steps.push_back(r.step);
      }
    }
  }
  EXPECT_EQ(steps, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(reader.iteration_chunks(), marker_chunks);
}

TEST(TraceFmt, DumpSizeIsFlatInTheIterationCount) {
  TempFile short_dump("flat8.rtrc");
  TempFile long_dump("flat64.rtrc");
  harness::RunConfig config = tiny_config("ft", false);
  config.iterations = 8;
  const harness::TraceDumpStats small =
      harness::dump_trace(config, short_dump.path);
  config.iterations = 64;
  const harness::TraceDumpStats big =
      harness::dump_trace(config, long_dump.path);
  // Programs are stored once; an iteration adds only its marker,
  // references and advances.
  EXPECT_EQ(big.programs, small.programs);
  EXPECT_LE(big.bytes, small.bytes + 512 * (64 - 8))
      << small.bytes << " B at 8 iterations";
  // The op and region counts still count what was dispatched.
  EXPECT_EQ((big.ops - small.ops) % 56, 0u);
  EXPECT_GT(big.ops, small.ops);
  EXPECT_EQ(tracefmt::TraceReader(long_dump.path).total_ops(), big.ops);
  for (const std::string& path : {short_dump.path, long_dump.path}) {
    const std::vector<std::uint32_t> defined = definitions_per_program(path);
    EXPECT_EQ(defined.size(), small.programs);
    EXPECT_EQ(defined, std::vector<std::uint32_t>(defined.size(), 1));
  }
}

TEST(TraceFmt, TraceWithMarkersInBodyChunksReplaysWithoutSkipping) {
  TempFile dump("merged_src.rtrc");
  TempFile merged("merged.rtrc");
  harness::RunConfig config = tiny_config("ft", false);
  config.iterations = 6;
  (void)harness::dump_trace(config, dump.path);
  std::size_t step4 = 0;
  {
    tracefmt::TraceReader reader(dump.path);
    ASSERT_EQ(reader.iteration_chunks().size(), 6u);
    step4 = reader.iteration_chunks()[3];
  }
  config.trace = true;
  const harness::RunResult direct = harness::run_benchmark(config);
  ASSERT_GT(direct.iterations_replayed, 0u);

  // Every record in one chunk, and markers 1-3 alone but 4-6 inside
  // one merged chunk: neither file has an iteration index.
  for (const std::size_t first : {std::size_t{0}, step4}) {
    SCOPED_TRACE(first);
    merge_chunks_from(dump.path, merged.path, first);
    {
      tracefmt::TraceReader reader(merged.path);
      ASSERT_EQ(reader.num_chunks(), first + 1);
      EXPECT_TRUE(reader.iteration_chunks().empty());
    }
    config.replay = merged.path;
    const harness::RunResult replayed = harness::run_benchmark(config);
    EXPECT_EQ(replayed.trace_digest, direct.trace_digest);
    EXPECT_EQ(replayed.iteration_times, direct.iteration_times);
    EXPECT_EQ(replayed.iterations_replayed, 0u);
    EXPECT_EQ(replayed.iterations_simulated, 6u);
  }
}

// ---------------------------------------------------------------------
// ReplayHarness: the harness-level dump/replay path and its contracts.

TEST(ReplayHarness, ConflictingFrontendConfigsRejected) {
  TempFile file("conflict.rtrc");
  {
    harness::RunConfig config = tiny_config("rr", false);
    config.trace_out = file.path;
    config.replay = file.path;
    EXPECT_THROW(harness::run_benchmark(config), ContractViolation);
  }
  {
    harness::RunConfig config = tiny_config("rr", false);
    config.pipeline = true;  // retired: rejected with or without replay
    EXPECT_THROW(harness::run_benchmark(config), ContractViolation);
    EXPECT_THROW((void)nas::make_trace_workload(file.path, {true}),
                 ContractViolation);
  }
  {
    harness::RunConfig config = tiny_config("rr", false);
    config.benchmark = "BT";
    config.upm_mode = nas::UpmMode::kRecordReplay;
    config.trace_out = file.path;
    EXPECT_THROW(harness::run_benchmark(config), ContractViolation);
    EXPECT_THROW(harness::dump_trace(config, file.path), ContractViolation);
  }
}

TEST(ReplayHarness, DryDumpIsByteIdenticalToLiveDump) {
  TempFile dry("dry.rtrc");
  TempFile live("live.rtrc");
  const harness::TraceDumpStats stats =
      harness::dump_trace(tiny_config("rr", false), dry.path);
  EXPECT_GT(stats.records, 0u);
  EXPECT_GT(stats.ops, 0u);
  EXPECT_GT(stats.regions, 0u);
  EXPECT_EQ(stats.iterations, 3u);

  harness::RunConfig config = tiny_config("rr", false);
  config.trace_out = live.path;
  (void)harness::run_benchmark(config);
  EXPECT_EQ(stats.bytes, read_bytes(dry.path).size());
  EXPECT_EQ(read_bytes(dry.path), read_bytes(live.path));

  // A steady-state cell: the dump leaves its run free to fast-forward,
  // and the file still holds every iteration.
  harness::RunConfig steady = tiny_config("rr", true);
  steady.iterations = 12;
  EXPECT_EQ(harness::dump_trace(steady, dry.path).iterations, 12u);
  steady.trace_out = live.path;
  const harness::RunResult result = harness::run_benchmark(steady);
  EXPECT_GT(result.iterations_replayed, 0u);
  EXPECT_EQ(read_bytes(dry.path), read_bytes(live.path));
  EXPECT_EQ(tracefmt::TraceReader(live.path).iteration_chunks().size(), 12u);
}

TEST(ReplayHarness, ReplayOnMismatchedMachineRejected) {
  TempFile file("mismatch.rtrc");
  (void)harness::dump_trace(tiny_config("rr", false), file.path);
  harness::RunConfig config = tiny_config("rr", false);
  config.replay = file.path;
  config.machine.num_nodes = 8;  // trace was dumped for 16
  EXPECT_THROW(harness::run_benchmark(config), ContractViolation);
}

TEST(ReplayHarness, ReplayResultCarriesTheTraceBenchmarkName) {
  TempFile file("name.rtrc");
  (void)harness::dump_trace(tiny_config("rr", false), file.path);
  harness::RunConfig config = tiny_config("wc", true);
  config.benchmark = "ignored";
  config.replay = file.path;
  const harness::RunResult result = harness::run_benchmark(config);
  EXPECT_EQ(result.benchmark, "CG");
  EXPECT_EQ(result.label, "wc-upmlib");
  EXPECT_EQ(result.iteration_times.size(), 3u);
}

TEST(ReplayHarness, FastForwardSimulatesTheIterationThatDiffers) {
  TempFile dump("differs_src.rtrc");
  TempFile same("differs_same.rtrc");
  TempFile altered("differs.rtrc");
  harness::RunConfig config = tiny_config("rr", false);
  config.iterations = 10;
  (void)harness::dump_trace(config, dump.path);
  // The rewrite itself is lossless; only the lengthening differs.
  rewrite_trace(dump.path, same.path, 7, 0);
  ASSERT_EQ(read_bytes(same.path), read_bytes(dump.path));
  config.trace = true;
  config.replay = dump.path;
  const harness::RunResult original = harness::run_benchmark(config);

  // One extra record changes iteration 7's chunk sizes and counts; a
  // longer advance in place changes only a payload digest.
  for (const auto& [how, extra] :
       {std::pair{Lengthen::kExtraRecord, std::uint64_t{12345}},
        std::pair{Lengthen::kFirstAdvance, std::uint64_t{1}}}) {
    SCOPED_TRACE(extra);
    rewrite_trace(dump.path, altered.path, 7, extra, how);
    if (how == Lengthen::kFirstAdvance) {
      tracefmt::TraceReader reader(altered.path);
      const tracefmt::ChunkInfo& six =
          reader.chunk(reader.iteration_chunks()[5] + 1);
      const tracefmt::ChunkInfo& seven =
          reader.chunk(reader.iteration_chunks()[6] + 1);
      ASSERT_EQ(seven.payload_bytes, six.payload_bytes);
      ASSERT_EQ(seven.record_count, six.record_count);
      ASSERT_NE(seven.payload_digest, six.payload_digest);
    }
    config.replay = altered.path;
    config.no_fast_forward = false;
    const harness::RunResult fast = harness::run_benchmark(config);
    config.no_fast_forward = true;
    const harness::RunResult full = harness::run_benchmark(config);

    // The replayed block starts at step 3 at the earliest (three
    // probes) and must end before iteration 7.
    EXPECT_GT(fast.iterations_replayed, 0u);
    EXPECT_LE(fast.iterations_replayed, 4u);
    EXPECT_EQ(full.iterations_replayed, 0u);
    EXPECT_EQ(fast.trace_digest, full.trace_digest);
    EXPECT_EQ(fast.iteration_times, full.iteration_times);
    EXPECT_EQ(fast.total, full.total);
    ASSERT_EQ(fast.iteration_times.size(), 10u);
    EXPECT_EQ(fast.iteration_times[6], original.iteration_times[6] + extra);
  }
}

TEST(ReplayHarness, CorruptChunkInASkippedIterationStillThrows) {
  TempFile dump("corrupt_skip.rtrc");
  harness::RunConfig config = tiny_config("rr", false);
  config.iterations = 10;
  (void)harness::dump_trace(config, dump.path);
  config.replay = dump.path;
  // Intact, iteration 8 lies inside the synthesized block.
  EXPECT_LT(harness::run_benchmark(config).iterations_simulated, 8u);

  std::size_t flip = 0;
  {
    tracefmt::TraceReader reader(dump.path);
    ASSERT_EQ(reader.iteration_chunks().size(), 10u);
    const tracefmt::ChunkInfo& body =
        reader.chunk(reader.iteration_chunks()[7] + 1);
    flip = body.offset + sizeof(tracefmt::ChunkHeader) +
           body.payload_bytes / 2;
  }
  std::vector<std::uint8_t> bytes = read_bytes(dump.path);
  bytes[flip] ^= 0x40;
  write_bytes(dump.path, bytes);
  EXPECT_THROW((void)harness::run_benchmark(config), tracefmt::TraceError);
}

TEST(ReplayHarness, CorruptProgramDefinitionThrows) {
  TempFile dump("corrupt_program.rtrc");
  harness::RunConfig config = tiny_config("rr", false);
  config.iterations = 10;
  (void)harness::dump_trace(config, dump.path);
  config.replay = dump.path;
  (void)harness::run_benchmark(config);

  // The cold start's first record after its marker defines program 0:
  // kind byte, one-byte id, then the body, which every later reference
  // replays.
  std::size_t flip = 0;
  {
    tracefmt::TraceReader reader(dump.path);
    std::vector<tracefmt::Record> records;
    reader.decode_chunk(0, records);
    ASSERT_GE(records.size(), 2u);
    ASSERT_EQ(records[1].kind, tracefmt::RecordKind::kProgram);
    ASSERT_EQ(records[1].program_id, 0u);
    ASSERT_GE(records[1].program.size(), 8u);
    flip = reader.chunk(0).offset + sizeof(tracefmt::ChunkHeader) + 3 +
           records[1].program.size();
  }
  std::vector<std::uint8_t> bytes = read_bytes(dump.path);
  bytes[flip] ^= 0x40;
  write_bytes(dump.path, bytes);
  EXPECT_THROW((void)harness::run_benchmark(config), tracefmt::TraceError);
}

TEST(ReplayHarness, RedefinitionInASkippedIterationStillThrows) {
  TempFile dump("redefine_src.rtrc");
  TempFile crafted("redefine.rtrc");
  harness::RunConfig config = tiny_config("rr", false);
  config.iterations = 10;
  (void)harness::dump_trace(config, dump.path);
  config.replay = dump.path;
  const harness::RunResult intact = harness::run_benchmark(config);
  ASSERT_GT(intact.iterations_replayed, 0u);
  ASSERT_EQ(intact.iterations_simulated + intact.iterations_replayed, 10u);

  // From the last simulated iteration on, every body starts with a
  // definition of one extra, unreferenced program: the first is valid,
  // each later one a byte-equal second definition. A full replay
  // rejects iteration k + 1; so must the fast-forward, whose first
  // synthesized iteration has iteration k as its twin.
  const std::uint32_t k = intact.iterations_simulated;
  RawTrace raw = read_raw(dump.path);
  const std::vector<std::size_t> markers =
      tracefmt::TraceReader(dump.path).iteration_chunks();
  const auto extra = static_cast<std::uint32_t>(raw.programs.size());
  for (std::uint32_t step = k; step <= 10; ++step) {
    RawChunk& body = raw.chunks[markers[step - 1] + 1];
    std::vector<std::uint8_t> payload;
    put_program(payload, extra);
    payload.insert(payload.end(), body.payload.begin(), body.payload.end());
    body.payload = payload;
    ++body.records;
  }
  raw.programs.push_back({markers[k - 1] + 1, 1, 1});
  assemble_trace(crafted.path, raw);

  config.replay = crafted.path;
  EXPECT_THROW((void)harness::run_benchmark(config), tracefmt::TraceError);
  config.no_fast_forward = true;
  EXPECT_THROW((void)harness::run_benchmark(config), tracefmt::TraceError);
}

// ---------------------------------------------------------------------
// ReplayGolden: every golden cell replays byte-identically.

std::vector<std::uint64_t> migration_vector(const harness::RunResult& r) {
  std::vector<std::uint64_t> out;
  for (const trace::IterationMetrics& m : r.iteration_metrics) {
    if (m.iteration >= 1) {
      out.push_back(m.migrations);
    }
  }
  return out;
}

// One TEST on purpose (mirrors GoldenTrace): the full 30-cell matrix
// runs once directly and once through trace replay, reusing one dry
// dump per benchmark, and every cell must agree on digest and
// migration vector.
TEST(ReplayGolden, EveryGoldenCellReplaysByteIdentically) {
  std::vector<TempFile> dumps;
  // TempFile removes its path on destruction, so reallocation-driven
  // copies must never happen.
  dumps.reserve(nas::workload_names().size());
  std::vector<harness::RunConfig> direct;
  std::vector<harness::RunConfig> replayed;
  for (const auto& benchmark : nas::workload_names()) {
    harness::RunConfig dump_config = tiny_config("ft", false);
    dump_config.benchmark = benchmark;
    dumps.emplace_back("golden_" + benchmark + ".rtrc");
    (void)harness::dump_trace(dump_config, dumps.back().path);
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const bool upmlib : {false, true}) {
        harness::RunConfig config = tiny_config(placement, upmlib);
        config.benchmark = benchmark;
        config.trace = true;
        direct.push_back(config);
        config.replay = dumps.back().path;
        replayed.push_back(config);
      }
    }
  }
  const std::vector<harness::RunResult> direct_results =
      harness::run_experiments(direct, 4);
  const std::vector<harness::RunResult> replay_results =
      harness::run_experiments(replayed, 4);
  ASSERT_EQ(direct_results.size(), replay_results.size());
  for (std::size_t i = 0; i < direct_results.size(); ++i) {
    const std::string key =
        direct_results[i].benchmark + " " + direct_results[i].label;
    ASSERT_EQ(direct_results[i].trace_digest.size(), 16u) << key;
    EXPECT_EQ(replay_results[i].trace_digest,
              direct_results[i].trace_digest)
        << key << ": replay diverges from direct simulation";
    EXPECT_EQ(migration_vector(replay_results[i]),
              migration_vector(direct_results[i]))
        << key;
    EXPECT_EQ(replay_results[i].benchmark, direct_results[i].benchmark)
        << key;
    // Replay fast-forwards exactly where direct simulation does.
    EXPECT_EQ(replay_results[i].iterations_simulated,
              direct_results[i].iterations_simulated)
        << key;
    EXPECT_EQ(replay_results[i].iterations_replayed,
              direct_results[i].iterations_replayed)
        << key;
  }
}

}  // namespace
}  // namespace repro
