// Trace replay frontend: decodes an RTRC trace back into the item
// stream the workload originally dispatched -- phase markers, compiled
// region programs (rebuilt verbatim via RegionProgram::from_columns),
// thread bindings and sequential advances.
//
// Chunks decode lazily on the caller's thread, and the cursor can seek
// to any chunk (fast-forward skips proven-repeating iterations this
// way, see nas::TraceWorkload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repro/sim/program.hpp"
#include "repro/tracefmt/reader.hpp"

namespace repro::sim {

/// One decoded frontend event, in dispatch order.
struct ReplayItem {
  enum class Kind : std::uint8_t {
    kNone,            ///< default-constructed slot
    kColdBegin,       ///< cold-start phase marker
    kIterationBegin,  ///< timed-iteration phase marker (`step`)
    kRegion,          ///< parallel region (`name_id`, `binding`, `program`)
    kAdvance,         ///< sequential-time advance (`ns`)
  };
  Kind kind = Kind::kNone;
  std::uint32_t step = 0;
  Ns ns = 0;
  std::uint32_t name_id = 0;
  std::vector<std::uint32_t> binding;  // empty = identity
  RegionProgram program;
};

class TraceReplayer {
 public:
  explicit TraceReplayer(const std::string& path) : reader_(path) {}

  TraceReplayer(const TraceReplayer&) = delete;
  TraceReplayer& operator=(const TraceReplayer&) = delete;

  [[nodiscard]] const tracefmt::TraceMeta& meta() const {
    return reader_.meta();
  }
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return reader_.name(id);
  }
  [[nodiscard]] const tracefmt::TraceReader& reader() const {
    return reader_;
  }

  /// Moves the next item into `out`; false at end of trace.
  bool next(ReplayItem& out);

  /// The next item comes from the start of chunk `chunk` (num_chunks()
  /// = end of trace); buffered records of the current chunk are dropped.
  void seek(std::size_t chunk);

 private:
  static bool to_item(tracefmt::Record& record, ReplayItem& out);

  tracefmt::TraceReader reader_;
  std::size_t chunk_ = 0;
  std::vector<tracefmt::Record> buffer_;
  std::size_t buffer_at_ = 0;
};

}  // namespace repro::sim
