#include "repro/sim/trace_replayer.hpp"

#include "repro/common/assert.hpp"

namespace repro::sim {

TraceReplayer::TraceReplayer(const std::string& path) : reader_(path) {
  programs_.resize(reader_.num_programs());
}

bool TraceReplayer::to_item(tracefmt::Record& record, ReplayItem& out) {
  switch (record.kind) {
    case tracefmt::RecordKind::kProgram: {
      const tracefmt::ProgramData& data = record.program;
      RegionProgram::ColumnView view;
      view.pages = data.pages.data();
      view.compute = data.compute.data();
      view.lines = data.lines.data();
      view.line_begin = data.line_begin.data();
      view.flags = data.flags.data();
      view.offsets = data.offsets.data();
      view.num_threads = data.num_threads();
      view.size = data.size();
      view.max_access_lines = data.max_access_lines;
      view.max_line_begin = data.max_line_begin;
      programs_[record.program_id] = RegionProgram::from_columns(view);
      return false;
    }
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
    case tracefmt::RecordKind::kRegion:
      if (programs_[record.program_id].empty()) {
        throw tracefmt::TraceError(
            "region references program " +
            std::to_string(record.program_id) +
            ", whose definition a seek skipped");
      }
      out.kind = ReplayItem::Kind::kRegion;
      out.name_id = record.name_id;
      out.program_id = record.program_id;
      out.binding = std::move(record.binding);
      return true;
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
