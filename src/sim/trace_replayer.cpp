#include "repro/sim/trace_replayer.hpp"

#include "repro/common/assert.hpp"

namespace repro::sim {

bool TraceReplayer::to_item(tracefmt::Record& record, ReplayItem& out) {
  switch (record.kind) {
    case tracefmt::RecordKind::kDefineName:
      return false;  // names resolve through the reader's footer table
    case tracefmt::RecordKind::kColdBegin:
      out.kind = ReplayItem::Kind::kColdBegin;
      return true;
    case tracefmt::RecordKind::kIterationBegin:
      out.kind = ReplayItem::Kind::kIterationBegin;
      out.step = record.step;
      return true;
    case tracefmt::RecordKind::kAdvance:
      out.kind = ReplayItem::Kind::kAdvance;
      out.ns = record.ns;
      return true;
    case tracefmt::RecordKind::kRegion: {
      tracefmt::RegionData& region = record.region;
      out.kind = ReplayItem::Kind::kRegion;
      out.name_id = region.name_id;
      out.binding = std::move(region.binding);
      RegionProgram::ColumnView view;
      view.pages = region.pages.data();
      view.compute = region.compute.data();
      view.lines = region.lines.data();
      view.line_begin = region.line_begin.data();
      view.flags = region.flags.data();
      view.offsets = region.offsets.data();
      view.num_threads = region.num_threads();
      view.size = region.size();
      view.max_access_lines = region.max_access_lines;
      view.max_line_begin = region.max_line_begin;
      out.program = RegionProgram::from_columns(view);
      return true;
    }
  }
  REPRO_UNREACHABLE("unhandled record kind");
}

bool TraceReplayer::next(ReplayItem& out) {
  for (;;) {
    while (buffer_at_ >= buffer_.size()) {
      if (chunk_ >= reader_.num_chunks()) {
        return false;
      }
      reader_.decode_chunk(chunk_++, buffer_);
      buffer_at_ = 0;
    }
    tracefmt::Record& record = buffer_[buffer_at_++];
    out = ReplayItem{};
    if (to_item(record, out)) {
      return true;
    }
  }
}

void TraceReplayer::seek(std::size_t chunk) {
  REPRO_REQUIRE(chunk <= reader_.num_chunks());
  chunk_ = chunk;
  buffer_.clear();
  buffer_at_ = 0;
}

}  // namespace repro::sim
