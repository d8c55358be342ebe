// Compiled parallel-region programs.
//
// A RegionProgram is the immutable, executable form of a region: every
// thread's op stream laid out structure-of-arrays in one arena
// allocation, with per-thread [begin, end) index ranges. The NAS
// pattern generators compile each benchmark phase once and reuse the
// program across all iterations -- only page placement, cache state and
// the thread binding vary between runs -- so the per-iteration
// allocation and pointer-chasing cost of rebuilding `std::vector<Op>`
// streams disappears from the simulator's hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/memsys/op_batch.hpp"
#include "repro/sim/region.hpp"

namespace repro::sim {

class RegionProgram {
 public:
  /// Empty program of zero threads (placeholder; not runnable).
  RegionProgram() = default;

  /// Compiles per-thread op streams into the arena. The builder-side
  /// representation can be discarded afterwards.
  ///
  /// Compilation validates every access op (at least one line) and
  /// coalesces runs of consecutive same-page reads with identical
  /// flags: the head of a run keeps its own op (it may miss, and a
  /// miss's cost and stats depend on its exact line count), while ops
  /// 2..k -- guaranteed hits when nothing intervenes -- collapse into
  /// one op whose lines and attached compute are the run's sums. Hit
  /// cost, coherence bookkeeping and statistics are linear in the line
  /// count, so the batch executes identically with fewer ops.
  explicit RegionProgram(const std::vector<ThreadProgram>& programs);

  /// Compiles a builder (convenience for one-shot regions).
  [[nodiscard]] static RegionProgram compile(RegionBuilder&& builder) {
    return RegionProgram(std::move(builder).take());
  }

  RegionProgram(RegionProgram&&) noexcept = default;
  RegionProgram& operator=(RegionProgram&&) noexcept = default;
  RegionProgram(const RegionProgram&) = delete;
  RegionProgram& operator=(const RegionProgram&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return num_threads_ == 0; }

  /// Process-wide serial stamped when the program is built and never
  /// reused. Programs are immutable, so equal serials mean equal
  /// columns -- unlike addresses, which one-shot programs (Runtime::run
  /// on a builder, parallel_for) recycle. 0 for an empty program. The
  /// trace writer interns by it (tracefmt::RegionColumns::serial).
  [[nodiscard]] std::uint64_t serial() const { return serial_; }

  /// Largest line count of any *source* access op (before coalescing).
  /// The engine checks this against the machine's lines-per-page once
  /// per region run, replacing the old per-op bound check on the access
  /// hot path. Coalesced ops may legitimately exceed it: they stand for
  /// several touches of the same page.
  [[nodiscard]] std::uint32_t max_access_lines() const {
    return max_access_lines_;
  }

  /// Largest first-line position of any access op. Like
  /// max_access_lines(), checked once per region run: the coherence
  /// model requires line_begin < lines-per-page.
  [[nodiscard]] std::uint32_t max_line_begin() const {
    return max_line_begin_;
  }

  /// Index range of thread `t`'s ops within the columns.
  [[nodiscard]] std::uint32_t thread_begin(std::uint32_t t) const {
    return offsets_[t];
  }
  [[nodiscard]] std::uint32_t thread_end(std::uint32_t t) const {
    return offsets_[t + 1];
  }

  /// Column slice of thread `t`'s ops starting at absolute index `at`
  /// (callers resume mid-stream); `at` must be in
  /// [thread_begin(t), thread_end(t)].
  [[nodiscard]] memsys::OpSlice slice(std::uint32_t t,
                                      std::uint32_t at) const {
    return {pages_ + at,   lines_ + at, line_begin_ + at,
            compute_ + at, flags_ + at, offsets_[t + 1] - at};
  }

  // Per-op accessors (analysis passes and tests; the engine uses
  // slices).
  [[nodiscard]] bool is_access(std::uint32_t i) const {
    return (flags_[i] & memsys::kOpAccess) != 0;
  }
  [[nodiscard]] bool is_write(std::uint32_t i) const {
    return (flags_[i] & memsys::kOpWrite) != 0;
  }
  [[nodiscard]] bool is_stream(std::uint32_t i) const {
    return (flags_[i] & memsys::kOpStream) != 0;
  }
  [[nodiscard]] bool is_positioned(std::uint32_t i) const {
    return (flags_[i] & memsys::kOpPositioned) != 0;
  }
  [[nodiscard]] VPage page(std::uint32_t i) const { return VPage(pages_[i]); }
  [[nodiscard]] std::uint32_t lines(std::uint32_t i) const {
    return lines_[i];
  }
  [[nodiscard]] std::uint32_t line_begin(std::uint32_t i) const {
    return line_begin_[i];
  }
  [[nodiscard]] Ns compute(std::uint32_t i) const { return compute_[i]; }

  /// Materializes op `i` (round-trips exactly what was compiled).
  [[nodiscard]] Op op(std::uint32_t i) const;

  /// Borrowed structure-of-arrays view of the compiled columns (the
  /// trace writer serializes programs through this; pointers stay
  /// valid while the program lives).
  struct ColumnView {
    const std::uint64_t* pages = nullptr;
    const Ns* compute = nullptr;
    const std::uint32_t* lines = nullptr;
    const std::uint32_t* line_begin = nullptr;
    const std::uint8_t* flags = nullptr;
    const std::uint32_t* offsets = nullptr;  // num_threads + 1 entries
    std::uint32_t num_threads = 0;
    std::uint32_t size = 0;
    std::uint32_t max_access_lines = 0;
    std::uint32_t max_line_begin = 0;
  };
  [[nodiscard]] ColumnView columns() const {
    return {pages_,
            compute_,
            lines_,
            line_begin_,
            flags_,
            offsets_,
            static_cast<std::uint32_t>(num_threads_),
            size_,
            max_access_lines_,
            max_line_begin_};
  }

  /// Rebuilds a program verbatim from serialized columns (the trace
  /// replayer's constructor). No validation or read coalescing is
  /// re-run: the columns are already compiled output, and coalesced
  /// accumulator ops may legitimately carry more lines than any source
  /// op, so the recorded max_access_lines / max_line_begin -- which the
  /// engine's once-per-run bound check relies on -- are restored as-is.
  [[nodiscard]] static RegionProgram from_columns(const ColumnView& view);

 private:
  // One arena allocation; the column pointers alias it.
  std::unique_ptr<std::byte[]> arena_;
  std::uint64_t* pages_ = nullptr;
  Ns* compute_ = nullptr;
  std::uint32_t* lines_ = nullptr;
  std::uint32_t* line_begin_ = nullptr;
  std::uint32_t* offsets_ = nullptr;  // num_threads_ + 1 entries
  std::uint8_t* flags_ = nullptr;
  std::size_t num_threads_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t max_access_lines_ = 0;
  std::uint32_t max_line_begin_ = 0;
  std::uint64_t serial_ = 0;
};

}  // namespace repro::sim
