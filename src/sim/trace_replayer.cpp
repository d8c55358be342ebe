#include "repro/sim/trace_replayer.hpp"

#include "repro/common/assert.hpp"

namespace repro::sim {

TraceReplayer::TraceReplayer(const std::string& path, const Options& options)
    : reader_(path) {
  if (options.pipeline) {
    ring_ = std::make_unique<RingBuffer<ReplayItem>>(options.ring_capacity);
    producer_ = std::thread([this] { producer_loop(); });
  }
}

TraceReplayer::~TraceReplayer() {
  if (producer_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    // Drain so a blocked producer can observe stop_ and exit.
    ReplayItem sink;
    while (!done_.load(std::memory_order_acquire)) {
      while (ring_->try_pop(sink)) {
      }
      std::this_thread::yield();
    }
    producer_.join();
  }
}

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

bool TraceReplayer::decode_next_serial(ReplayItem& out) {
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
  REPRO_REQUIRE_MSG(ring_ == nullptr, "a pipelined replayer cannot seek");
  REPRO_REQUIRE(chunk <= reader_.num_chunks());
  chunk_ = chunk;
  buffer_.clear();
  buffer_at_ = 0;
}

void TraceReplayer::producer_loop() {
  try {
    std::vector<tracefmt::Record> records;
    for (std::size_t c = 0; c < reader_.num_chunks(); ++c) {
      if (stop_.load(std::memory_order_relaxed)) {
        break;
      }
      reader_.decode_chunk(c, records);
      for (tracefmt::Record& record : records) {
        ReplayItem item;
        if (!to_item(record, item)) {
          continue;
        }
        while (!ring_->try_push(item)) {
          if (stop_.load(std::memory_order_relaxed)) {
            done_.store(true, std::memory_order_release);
            return;
          }
          std::this_thread::yield();
        }
      }
    }
  } catch (...) {
    error_ = std::current_exception();
  }
  done_.store(true, std::memory_order_release);
}

bool TraceReplayer::next(ReplayItem& out) {
  if (ring_ == nullptr) {
    return decode_next_serial(out);
  }
  for (;;) {
    if (ring_->try_pop(out)) {
      return true;
    }
    if (done_.load(std::memory_order_acquire)) {
      // Producer finished (or died): drain the residue, then report
      // its error or the clean end of the stream.
      if (ring_->try_pop(out)) {
        return true;
      }
      if (error_ != nullptr) {
        std::rethrow_exception(error_);
      }
      return false;
    }
    std::this_thread::yield();
  }
}

}  // namespace repro::sim
