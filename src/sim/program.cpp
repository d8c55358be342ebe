#include "repro/sim/program.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "repro/common/assert.hpp"

namespace repro::sim {

namespace {

std::uint64_t next_serial() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1) + 1;
}

}  // namespace

RegionProgram::RegionProgram(const std::vector<ThreadProgram>& programs)
    : serial_(next_serial()) {
  REPRO_REQUIRE(!programs.empty());
  std::size_t total = 0;
  for (const ThreadProgram& p : programs) {
    total += p.size();
  }
  REPRO_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max());
  num_threads_ = programs.size();
  size_ = static_cast<std::uint32_t>(total);

  // Columns in decreasing alignment order so natural alignment holds
  // without padding between them.
  const std::size_t bytes = total * (sizeof(std::uint64_t) + sizeof(Ns) +
                                     2 * sizeof(std::uint32_t) +
                                     sizeof(std::uint8_t)) +
                            (num_threads_ + 1) * sizeof(std::uint32_t);
  arena_ = std::make_unique<std::byte[]>(bytes);
  std::byte* cursor = arena_.get();
  const auto claim = [&cursor](std::size_t n) {
    std::byte* start = cursor;
    cursor += n;
    return start;
  };
  pages_ = reinterpret_cast<std::uint64_t*>(
      claim(total * sizeof(std::uint64_t)));
  compute_ = reinterpret_cast<Ns*>(claim(total * sizeof(Ns)));
  lines_ = reinterpret_cast<std::uint32_t*>(
      claim(total * sizeof(std::uint32_t)));
  line_begin_ = reinterpret_cast<std::uint32_t*>(
      claim(total * sizeof(std::uint32_t)));
  offsets_ = reinterpret_cast<std::uint32_t*>(
      claim((num_threads_ + 1) * sizeof(std::uint32_t)));
  flags_ = reinterpret_cast<std::uint8_t*>(
      claim(total * sizeof(std::uint8_t)));

  std::uint32_t at = 0;
  for (std::size_t t = 0; t < num_threads_; ++t) {
    offsets_[t] = at;
    // Run state for read coalescing: index of the previous compiled op
    // when it is a read access, and whether it is the head of its run
    // (heads stay intact; only ops 2..k of a run accumulate).
    std::uint32_t prev = 0;
    bool prev_is_read = false;
    bool prev_is_head = false;
    for (const Op& op : programs[t]) {
      std::uint8_t f = 0;
      if (op.kind == Op::Kind::kAccess) {
        REPRO_REQUIRE_MSG(op.lines >= 1, "access op with zero lines");
        max_access_lines_ = std::max(max_access_lines_, op.lines);
        max_line_begin_ = std::max(max_line_begin_, op.line_begin);
        f |= memsys::kOpAccess;
      }
      if (op.write) {
        f |= memsys::kOpWrite;
      }
      if (op.stream) {
        f |= memsys::kOpStream;
      }
      if (op.positioned) {
        f |= memsys::kOpPositioned;
      }
      const bool is_read =
          op.kind == Op::Kind::kAccess && !op.write;
      // Positioned accesses never coalesce: folding would lose the
      // per-op line placement the coherence model and the line-granular
      // analysis need. (The flags comparison rejects mixed runs; the
      // explicit checks reject positioned-with-positioned.)
      if (prev_is_read && is_read && flags_[prev] == f && !op.positioned &&
          pages_[prev] == op.page.value() && op.line_begin == 0 &&
          line_begin_[prev] == 0) {
        if (prev_is_head) {
          // Second op of a run: open the accumulator op.
          prev_is_head = false;
        } else {
          // Fold into the run's accumulator.
          lines_[prev] += op.lines;
          compute_[prev] += op.compute;
          continue;
        }
      } else {
        prev_is_head = true;
      }
      pages_[at] = op.page.value();
      compute_[at] = op.compute;
      lines_[at] = op.lines;
      line_begin_[at] = op.line_begin;
      flags_[at] = f;
      prev = at;
      prev_is_read = is_read;
      ++at;
    }
  }
  offsets_[num_threads_] = at;
  size_ = at;
}

RegionProgram RegionProgram::from_columns(const ColumnView& view) {
  REPRO_REQUIRE(view.num_threads >= 1 && view.offsets != nullptr);
  REPRO_REQUIRE(view.offsets[0] == 0 &&
                view.offsets[view.num_threads] == view.size);
  for (std::uint32_t t = 0; t < view.num_threads; ++t) {
    REPRO_REQUIRE_MSG(view.offsets[t] <= view.offsets[t + 1],
                      "non-monotone thread offsets");
  }
  RegionProgram p;
  p.serial_ = next_serial();
  p.num_threads_ = view.num_threads;
  p.size_ = view.size;
  p.max_access_lines_ = view.max_access_lines;
  p.max_line_begin_ = view.max_line_begin;
  const std::size_t total = view.size;
  const std::size_t bytes = total * (sizeof(std::uint64_t) + sizeof(Ns) +
                                     2 * sizeof(std::uint32_t) +
                                     sizeof(std::uint8_t)) +
                            (p.num_threads_ + 1) * sizeof(std::uint32_t);
  p.arena_ = std::make_unique<std::byte[]>(bytes);
  std::byte* cursor = p.arena_.get();
  const auto claim = [&cursor](std::size_t n) {
    std::byte* start = cursor;
    cursor += n;
    return start;
  };
  p.pages_ =
      reinterpret_cast<std::uint64_t*>(claim(total * sizeof(std::uint64_t)));
  p.compute_ = reinterpret_cast<Ns*>(claim(total * sizeof(Ns)));
  p.lines_ =
      reinterpret_cast<std::uint32_t*>(claim(total * sizeof(std::uint32_t)));
  p.line_begin_ =
      reinterpret_cast<std::uint32_t*>(claim(total * sizeof(std::uint32_t)));
  p.offsets_ = reinterpret_cast<std::uint32_t*>(
      claim((p.num_threads_ + 1) * sizeof(std::uint32_t)));
  p.flags_ =
      reinterpret_cast<std::uint8_t*>(claim(total * sizeof(std::uint8_t)));
  std::copy_n(view.pages, total, p.pages_);
  std::copy_n(view.compute, total, p.compute_);
  std::copy_n(view.lines, total, p.lines_);
  std::copy_n(view.line_begin, total, p.line_begin_);
  std::copy_n(view.flags, total, p.flags_);
  std::copy_n(view.offsets, p.num_threads_ + 1, p.offsets_);
  return p;
}

Op RegionProgram::op(std::uint32_t i) const {
  REPRO_REQUIRE(i < size_);
  if (!is_access(i)) {
    return Op::compute_for(compute_[i]);
  }
  Op op = Op::access_at(VPage(pages_[i]), line_begin_[i], lines_[i],
                        is_write(i), compute_[i], is_stream(i));
  op.positioned = (flags_[i] & memsys::kOpPositioned) != 0;
  return op;
}

}  // namespace repro::sim
