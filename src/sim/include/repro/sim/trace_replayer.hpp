// Trace replay frontend: decodes an RTRC trace back into the item
// stream the workload originally dispatched -- phase markers, compiled
// region programs (rebuilt verbatim via RegionProgram::from_columns),
// thread bindings and sequential advances.
//
// Two execution modes behind one next() interface:
//   - serial: chunks decode lazily on the caller's thread, and the
//     cursor can seek to any chunk;
//   - pipelined: a producer thread decodes chunks ahead of the
//     consumer over a bounded lock-free SPSC ring buffer
//     (common/ring_buffer.hpp), overlapping decode with the timing
//     backend. The consumed item sequence is identical either way --
//     the ring preserves order and the producer is deterministic -- so
//     pipelined replay is byte-identical to serial replay by
//     construction (and tested to be, see tests/test_tracefmt.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "repro/common/ring_buffer.hpp"
#include "repro/sim/program.hpp"
#include "repro/tracefmt/reader.hpp"

namespace repro::sim {

/// One decoded frontend event, in dispatch order.
struct ReplayItem {
  enum class Kind : std::uint8_t {
    kNone,            ///< default-constructed / moved-from slot
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
  struct Options {
    bool pipeline = false;
    /// Ring capacity in items (rounded up to a power of two). Sized to
    /// absorb decode burstiness: regions are hundreds of ops, so 256
    /// in-flight items is megabytes, not gigabytes.
    std::size_t ring_capacity = 256;
  };

  explicit TraceReplayer(const std::string& path)
      : TraceReplayer(path, Options{}) {}
  TraceReplayer(const std::string& path, const Options& options);
  ~TraceReplayer();

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

  /// Moves the next item into `out`; false at end of trace. In
  /// pipelined mode a producer-side decode error is rethrown here.
  bool next(ReplayItem& out);

  /// Serial mode only: the next item comes from the start of chunk
  /// `chunk` (num_chunks() = end of trace); buffered records of the
  /// current chunk are dropped.
  void seek(std::size_t chunk);

 private:
  [[nodiscard]] bool decode_next_serial(ReplayItem& out);
  void producer_loop();
  static bool to_item(tracefmt::Record& record, ReplayItem& out);

  tracefmt::TraceReader reader_;
  // Serial-mode state.
  std::size_t chunk_ = 0;
  std::vector<tracefmt::Record> buffer_;
  std::size_t buffer_at_ = 0;
  // Pipelined-mode state. `error_` is written by the producer before
  // the release store to `done_`; the consumer reads it only after an
  // acquire load of `done_` returns true.
  std::unique_ptr<RingBuffer<ReplayItem>> ring_;
  std::thread producer_;
  std::atomic<bool> done_{false};
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
};

}  // namespace repro::sim
