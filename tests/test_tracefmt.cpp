// Trace-format and replay-frontend tests: RTRC encode/decode round
// trips (including a randomized RegionProgram fuzz), corruption
// rejection, the SPSC ring buffer, pipelined-vs-serial replay
// equivalence, the iteration index, and the harness-level replay path
// (dry dump == live dump, golden-cell byte identity, fast-forwarded
// replay, error cases).
//
// Suite naming matters for CI: TraceFmt, RingBuffer and PipelineReplay
// also run under the TSan leg (they exercise the producer/consumer
// pair); ReplayGolden and ReplayHarness are plain-leg only.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/ring_buffer.hpp"
#include "repro/common/rng.hpp"
#include "repro/harness/run.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/memsys/memory_system.hpp"
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

/// Records `programs` (one region each, identity binding) into `path`.
tracefmt::WriterStats record_programs(
    const std::string& path, const tracefmt::TraceMeta& meta,
    const std::vector<const RegionProgram*>& programs,
    std::size_t chunk_target_bytes = 256 * 1024) {
  tracefmt::TraceWriter writer(path, meta, chunk_target_bytes);
  writer.cold_begin();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const RegionProgram::ColumnView view = programs[i]->columns();
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
    writer.region("region_" + std::to_string(i % 3), {}, columns);
    writer.advance(static_cast<Ns>(17 + i));
  }
  return writer.finish();
}

/// Replays every kRegion item of `path` back as programs.
std::vector<RegionProgram> replayed_programs(const std::string& path,
                                             bool pipeline = false) {
  TraceReplayer::Options options;
  options.pipeline = pipeline;
  TraceReplayer replayer(path, options);
  std::vector<RegionProgram> out;
  ReplayItem item;
  while (replayer.next(item)) {
    if (item.kind == ReplayItem::Kind::kRegion) {
      out.push_back(std::move(item.program));
    }
  }
  return out;
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
  std::uint32_t current = 0;  // 0 = the cold start
  bool lengthened = extra_ns == 0;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    reader.decode_chunk(c, records);
    for (const tracefmt::Record& r : records) {
      switch (r.kind) {
        case tracefmt::RecordKind::kDefineName:
          break;  // the writer interns names on first use itself
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
        case tracefmt::RecordKind::kRegion: {
          const tracefmt::RegionData& d = r.region;
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
          writer.region(reader.name(d.name_id), d.binding, columns);
          break;
        }
      }
    }
  }
  (void)writer.finish();
  ASSERT_TRUE(lengthened) << "iteration " << step << " has no advance";
}

void put_chunk_row(std::vector<std::uint8_t>& out,
                   const tracefmt::ChunkInfo& row) {
  tracefmt::put_varint(out, row.offset);
  tracefmt::put_varint(out, row.payload_bytes);
  tracefmt::put_varint(out, row.record_count);
  tracefmt::put_varint(out, row.op_count);
  append_raw(out, row.payload_digest);
}

/// Re-assembles `src` with chunks [first, end) merged into one, so the
/// iteration markers from there on share a chunk with region records,
/// as older writers laid them out (built from the format.hpp structs,
/// bypassing TraceWriter).
void merge_chunks_from(const std::string& src, const std::string& dst,
                       std::size_t first) {
  const std::vector<std::uint8_t> bytes = read_bytes(src);
  tracefmt::TraceReader reader(src);
  tracefmt::FileFooter footer;
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof(footer),
              sizeof(footer));
  tracefmt::ChunkInfo merged;
  merged.offset = reader.chunk(first).offset;
  std::vector<std::uint8_t> payload;
  for (std::size_t c = first; c < reader.num_chunks(); ++c) {
    const tracefmt::ChunkInfo& info = reader.chunk(c);
    const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(
                                           info.offset +
                                           sizeof(tracefmt::ChunkHeader));
    payload.insert(payload.end(), begin,
                   begin + static_cast<std::ptrdiff_t>(info.payload_bytes));
    merged.record_count += info.record_count;
    merged.op_count += info.op_count;
  }
  merged.payload_bytes = payload.size();
  merged.payload_digest = tracefmt::fnv1a(payload.data(), payload.size());

  std::vector<std::uint8_t> out(
      bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(merged.offset));
  tracefmt::ChunkHeader header;
  header.payload_bytes = merged.payload_bytes;
  header.record_count = merged.record_count;
  header.op_count = merged.op_count;
  header.payload_digest = merged.payload_digest;
  append_raw(out, header);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint64_t table_offset = out.size();
  append_raw(out, tracefmt::kTableMagic);
  for (std::size_t c = 0; c < first; ++c) {
    put_chunk_row(out, reader.chunk(c));
  }
  put_chunk_row(out, merged);
  const std::uint64_t names_offset = out.size();
  out.insert(out.end(),
             bytes.begin() +
                 static_cast<std::ptrdiff_t>(footer.name_table_offset),
             bytes.end() - static_cast<std::ptrdiff_t>(sizeof(footer)));
  footer.chunk_count = first + 1;
  footer.chunk_table_offset = table_offset;
  footer.name_table_offset = names_offset;
  append_raw(out, footer);
  write_bytes(dst, out);
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
        ops += r.region.size();
      }
    }
  }
  EXPECT_EQ(records, stats.records);
  EXPECT_EQ(ops, stats.ops);
  EXPECT_EQ(reader.total_records(), stats.records);
  EXPECT_EQ(reader.total_ops(), stats.ops);
}

TEST(TraceFmt, StreamReaderDecodesPipesWithoutTheFooter) {
  Rng rng(11);
  std::vector<RegionProgram> programs;
  for (int i = 0; i < 6; ++i) {
    programs.push_back(random_program(rng, 2));
  }
  std::vector<const RegionProgram*> ptrs;
  for (const RegionProgram& p : programs) {
    ptrs.push_back(&p);
  }
  TempFile file("stream.rtrc");
  const tracefmt::WriterStats stats =
      record_programs(file.path, small_meta(2), ptrs,
                      /*chunk_target_bytes=*/128);

  std::ifstream in(file.path, std::ios::binary);
  ASSERT_TRUE(in.good());
  tracefmt::StreamReader stream(in);
  EXPECT_EQ(stream.meta().benchmark, "XX");
  std::uint64_t records = 0;
  std::vector<tracefmt::Record> out;
  bool saw_region_name = false;
  while (stream.next_chunk(out)) {
    records += out.size();
    for (const tracefmt::Record& r : out) {
      if (r.kind == tracefmt::RecordKind::kRegion) {
        saw_region_name =
            saw_region_name || stream.name(r.region.name_id) == "region_0";
      }
    }
  }
  EXPECT_EQ(records, stats.records);
  EXPECT_TRUE(saw_region_name);
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
// RingBuffer: the SPSC primitive under the pipelined replayer.

TEST(RingBuffer, SingleThreadPushPopPreservesOrderAndCapacity) {
  RingBuffer<int> ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  int v = 0;
  EXPECT_FALSE(ring.try_pop(v));
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(ring.try_push(item)) << i;
  }
  int overflow = 99;
  EXPECT_FALSE(ring.try_push(overflow));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(RingBuffer, MoveOnlyItemsMoveThroughWholeOnSuccess) {
  RingBuffer<std::unique_ptr<int>> ring(2);
  auto a = std::make_unique<int>(7);
  ASSERT_TRUE(ring.try_push(a));
  EXPECT_EQ(a, nullptr);  // consumed
  auto b = std::make_unique<int>(8);
  auto c = std::make_unique<int>(9);
  ASSERT_TRUE(ring.try_push(b));
  EXPECT_FALSE(ring.try_push(c));
  EXPECT_NE(c, nullptr);  // failed push leaves the item intact
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(RingBuffer, TwoThreadStressDeliversEveryItemInOrder) {
  constexpr int kItems = 200000;
  RingBuffer<int> ring(64);
  std::thread producer([&ring] {
    for (int i = 0; i < kItems; ++i) {
      int item = i;
      while (!ring.try_push(item)) {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  while (expected < kItems) {
    int v = -1;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  int leftover = -1;
  EXPECT_FALSE(ring.try_pop(leftover));
}

// ---------------------------------------------------------------------
// PipelineReplay: producer-thread decode vs serial decode.

TEST(PipelineReplay, PipelinedItemStreamIsIdenticalToSerial) {
  Rng rng(13);
  std::vector<RegionProgram> programs;
  for (int i = 0; i < 10; ++i) {
    programs.push_back(random_program(rng, 4));
  }
  std::vector<const RegionProgram*> ptrs;
  for (const RegionProgram& p : programs) {
    ptrs.push_back(&p);
  }
  TempFile file("pipeline.rtrc");
  record_programs(file.path, small_meta(), ptrs,
                  /*chunk_target_bytes=*/256);

  TraceReplayer serial(file.path);
  TraceReplayer::Options options;
  options.pipeline = true;
  options.ring_capacity = 4;  // tiny: force producer/consumer handoff
  TraceReplayer pipelined(file.path, options);

  ReplayItem a;
  ReplayItem b;
  std::size_t items = 0;
  for (;;) {
    const bool more_a = serial.next(a);
    const bool more_b = pipelined.next(b);
    ASSERT_EQ(more_a, more_b) << "stream lengths diverge at item " << items;
    if (!more_a) {
      break;
    }
    ++items;
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.ns, b.ns);
    EXPECT_EQ(a.name_id, b.name_id);
    EXPECT_EQ(a.binding, b.binding);
    if (a.kind == ReplayItem::Kind::kRegion) {
      expect_columns_equal(a.program, b.program);
    }
  }
  EXPECT_EQ(items, 21u);  // cold marker + 10 regions + 10 advances
}

TEST(PipelineReplay, ProducerDecodeErrorRethrownAtNext) {
  Rng rng(17);
  const RegionProgram program = random_program(rng, 4);
  TempFile file("pipeline_err.rtrc");
  record_programs(file.path, small_meta(), {&program});
  // Corrupt the chunk payload but keep header/footer/table intact: the
  // reader constructs fine, the producer's decode_chunk throws.
  {
    std::fstream f(file.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(sizeof(tracefmt::FileHeader)) + 70);
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x20);
    f.write(&b, 1);
  }
  TraceReplayer::Options options;
  options.pipeline = true;
  TraceReplayer replayer(file.path, options);
  ReplayItem item;
  EXPECT_THROW(
      {
        while (replayer.next(item)) {
        }
      },
      tracefmt::TraceError);
}

TEST(PipelineReplay, DestructionWithUnconsumedItemsDoesNotHang) {
  Rng rng(19);
  std::vector<RegionProgram> programs;
  for (int i = 0; i < 20; ++i) {
    programs.push_back(random_program(rng, 4));
  }
  std::vector<const RegionProgram*> ptrs;
  for (const RegionProgram& p : programs) {
    ptrs.push_back(&p);
  }
  TempFile file("pipeline_drop.rtrc");
  record_programs(file.path, small_meta(), ptrs, 256);
  TraceReplayer::Options options;
  options.pipeline = true;
  options.ring_capacity = 2;  // producer will block mid-trace
  {
    TraceReplayer replayer(file.path, options);
    ReplayItem item;
    ASSERT_TRUE(replayer.next(item));  // consume one, abandon the rest
  }
  SUCCEED();
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
    config.pipeline = true;  // pipeline without replay
    EXPECT_THROW(harness::run_benchmark(config), ContractViolation);
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

  std::ifstream a(dry.path, std::ios::binary);
  std::ifstream b(live.path, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(stats.bytes, bytes_a.size());
  EXPECT_EQ(bytes_a, bytes_b);
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
    config.pipeline = true;  // its producer cannot seek
    const harness::RunResult pipelined = harness::run_benchmark(config);
    config.pipeline = false;
    config.no_fast_forward = true;
    const harness::RunResult full = harness::run_benchmark(config);

    // The replayed block starts at step 3 at the earliest (three
    // probes) and must end before iteration 7.
    EXPECT_GT(fast.iterations_replayed, 0u);
    EXPECT_LE(fast.iterations_replayed, 4u);
    EXPECT_EQ(pipelined.iterations_replayed, 0u);
    EXPECT_EQ(full.iterations_replayed, 0u);
    for (const harness::RunResult* r : {&fast, &pipelined}) {
      EXPECT_EQ(r->trace_digest, full.trace_digest);
      EXPECT_EQ(r->iteration_times, full.iteration_times);
      EXPECT_EQ(r->total, full.total);
    }
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
