#include "repro/nas/trace_workload.hpp"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/sim/trace_replayer.hpp"

namespace repro::nas {

namespace {

/// Re-establishes a recorded thread-to-processor binding on the live
/// runtime. Rebinding one thread at a time can transiently violate the
/// runtime's two-threads-one-processor guard, so occupied targets are
/// resolved by swapping with the occupant first (every permutation is
/// reachable by swaps alone; rebind covers processors outside the
/// team's current image).
void restore_binding(omp::Runtime& rt,
                     const std::vector<std::uint32_t>& target) {
  const auto num_threads = static_cast<std::uint32_t>(rt.num_threads());
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    const std::uint32_t desired = target.empty() ? t : target[t];
    if (rt.proc_of(ThreadId(t)).value() == desired) {
      continue;
    }
    bool swapped = false;
    for (std::uint32_t u = 0; u < num_threads; ++u) {
      if (rt.proc_of(ThreadId(u)).value() == desired) {
        rt.swap_binding(ThreadId(t), ThreadId(u));
        swapped = true;
        break;
      }
    }
    if (!swapped) {
      rt.rebind(ThreadId(t), ProcId(desired));
    }
  }
}

class TraceWorkload final : public Workload {
 public:
  explicit TraceWorkload(const std::string& path) : replayer_(path) {}

  [[nodiscard]] std::string name() const override {
    return replayer_.meta().benchmark;
  }

  [[nodiscard]] std::uint32_t default_iterations() const override {
    return replayer_.meta().iterations;
  }

  void setup(omp::Machine& machine) override {
    const tracefmt::TraceMeta& meta = replayer_.meta();
    REPRO_REQUIRE_MSG(
        machine.config().num_procs() == meta.num_procs &&
            machine.runtime().num_threads() == meta.num_threads,
        "trace was recorded on a different machine geometry");
    REPRO_REQUIRE_MSG(machine.config().page_size == meta.page_size,
                      "trace was recorded with a different page size");
    // Replay the allocation sequence verbatim: page numbers inside the
    // recorded op streams are offsets into this exact layout.
    for (const tracefmt::TraceAllocation& a : meta.allocations) {
      const vm::PageRange range =
          machine.address_space().allocate_pages(a.name, a.pages);
      REPRO_REQUIRE_MSG(range.first.value() == a.first_page,
                        "trace allocation layout diverged on replay");
    }
    // Every page the trace names must lie in the layout just replayed:
    // the page structures size themselves by page id, so one stray op
    // page would otherwise allocate tables out to it.
    page_end_ = machine.address_space().total_pages();
    checked_.assign(replayer_.reader().num_programs(), false);
  }

  void register_hot(upm::Upmlib& upm) const override {
    for (const tracefmt::TraceRange& r : replayer_.meta().hot_ranges) {
      REPRO_REQUIRE_MSG(r.pages >= 1 && r.first_page <= page_end_ &&
                            r.pages <= page_end_ - r.first_page,
                        ("trace hot range of " + std::to_string(r.pages) +
                         " page(s) at page " + std::to_string(r.first_page) +
                         " lies outside the trace's allocations")
                            .c_str());
      upm.memrefcnt(vm::PageRange{VPage(r.first_page), r.pages});
    }
  }

  void cold_start(omp::Machine& machine) override {
    sim::ReplayItem item;
    const bool have = replayer_.next(item);
    REPRO_REQUIRE_MSG(have &&
                          item.kind == sim::ReplayItem::Kind::kColdBegin,
                      "trace does not start with a cold-start marker");
    replay_phase(machine);
  }

  void iteration(omp::Machine& machine, const IterationContext& ctx,
                 std::uint32_t step) override {
    (void)ctx;  // record-replay instrumentation is not replayable
    REPRO_REQUIRE_MSG(pending_.has_value(),
                      "trace exhausted: more iterations requested than "
                      "were recorded");
    REPRO_REQUIRE_MSG(pending_->kind ==
                              sim::ReplayItem::Kind::kIterationBegin &&
                          pending_->step == step,
                      "trace iteration markers out of sequence");
    pending_.reset();
    replay_phase(machine);
  }

  [[nodiscard]] std::uint64_t hot_page_count() const override {
    std::uint64_t pages = 0;
    for (const tracefmt::TraceRange& r : replayer_.meta().hot_ranges) {
      pages += r.pages;
    }
    return pages;
  }

  [[nodiscard]] std::string fast_forward_blocker() const override {
    if (markers().empty()) {
      return "trace has no iteration index";
    }
    return {};
  }

  /// Proof by chunk table: iterations whose chunk runs have equal
  /// rows -- sizes, counts and payload digests -- dispatch the same
  /// records, because every marker sits alone in its chunk and records
  /// carry no state across chunks. Program definitions are the one
  /// record whose meaning depends on position, so an iteration that
  /// defines a program (or whose twin does) is never a repeat.
  [[nodiscard]] std::uint32_t repeating_iterations(
      std::uint32_t step, std::uint32_t period,
      std::uint32_t count) const override {
    REPRO_REQUIRE(period >= 1 && step > period);
    for (std::uint32_t j = 0; j < count; ++j) {
      if (step + j > markers().size() ||
          !same_chunks(step + j, step - period + j % period)) {
        return j;
      }
    }
    return count;
  }

  /// Seeks to step + count's marker. The skipped chunks are still
  /// digest-checked, so a corrupt trace fails as it would in a full
  /// replay.
  void skip_iterations(std::uint32_t step, std::uint32_t count) override {
    if (count == 0) {
      return;
    }
    REPRO_REQUIRE(pending_.has_value() && pending_->step == step &&
                  step + count - 1 <= markers().size());
    const std::size_t end = body_end(step + count - 1);
    for (std::size_t c = markers()[step - 1] + 1; c < end; ++c) {
      replayer_.reader().verify_chunk(c);
    }
    replayer_.seek(end);
    pending_.reset();
    sim::ReplayItem item;
    if (replayer_.next(item)) {
      pending_ = std::move(item);
    }
  }

 private:
  [[nodiscard]] const std::vector<std::size_t>& markers() const {
    return replayer_.reader().iteration_chunks();
  }

  /// One past iteration `step`'s last chunk.
  [[nodiscard]] std::size_t body_end(std::uint32_t step) const {
    return step < markers().size() ? markers()[step]
                                   : replayer_.reader().num_chunks();
  }

  /// Iterations `a` and `b` (marker chunks excluded) have equal rows
  /// and define no programs.
  [[nodiscard]] bool same_chunks(std::uint32_t a, std::uint32_t b) const {
    const tracefmt::TraceReader& reader = replayer_.reader();
    const std::size_t a0 = markers()[a - 1] + 1;
    const std::size_t b0 = markers()[b - 1] + 1;
    const std::size_t n = body_end(a) - a0;
    if (body_end(b) - b0 != n ||
        reader.programs_before(a0) != reader.programs_before(a0 + n) ||
        reader.programs_before(b0) != reader.programs_before(b0 + n)) {
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const tracefmt::ChunkInfo& x = reader.chunk(a0 + i);
      const tracefmt::ChunkInfo& y = reader.chunk(b0 + i);
      if (x.payload_bytes != y.payload_bytes ||
          x.record_count != y.record_count || x.op_count != y.op_count ||
          x.payload_digest != y.payload_digest) {
        return false;
      }
    }
    return true;
  }

  /// Dispatches items until the next phase marker (stashed in
  /// pending_) or the end of the trace.
  void replay_phase(omp::Machine& machine) {
    omp::Runtime& rt = machine.runtime();
    sim::ReplayItem item;
    while (replayer_.next(item)) {
      switch (item.kind) {
        case sim::ReplayItem::Kind::kRegion: {
          const sim::RegionProgram& program =
              replayer_.program(item.program_id);
          if (!checked_[item.program_id]) {
            check_pages(program);
            checked_[item.program_id] = true;
          }
          restore_binding(rt, item.binding);
          rt.run(replayer_.name(item.name_id), program);
          break;
        }
        case sim::ReplayItem::Kind::kAdvance:
          rt.advance(item.ns);
          break;
        case sim::ReplayItem::Kind::kColdBegin:
        case sim::ReplayItem::Kind::kIterationBegin:
          pending_ = std::move(item);
          return;
        case sim::ReplayItem::Kind::kNone:
          REPRO_UNREACHABLE("empty replay item");
      }
    }
  }

  /// Rejects a program with an access op past the replayed layout.
  void check_pages(const sim::RegionProgram& program) const {
    for (std::uint32_t i = 0; i < program.size(); ++i) {
      REPRO_REQUIRE_MSG(!program.is_access(i) ||
                            program.page(i).value() < page_end_,
                        ("trace op page " +
                         std::to_string(program.page(i).value()) +
                         " lies outside the trace's allocations")
                            .c_str());
    }
  }

  sim::TraceReplayer replayer_;
  std::optional<sim::ReplayItem> pending_;
  /// One past the last page of the replayed allocations.
  std::uint64_t page_end_ = 0;
  /// Program ids whose op pages check_pages has accepted.
  std::vector<bool> checked_;
};

}  // namespace

std::unique_ptr<Workload> make_trace_workload(
    const std::string& path, const TraceWorkloadOptions& options) {
  REPRO_REQUIRE_MSG(!options.pipeline,
                    "pipelined replay is not supported; replay decodes "
                    "serially");
  return std::make_unique<TraceWorkload>(path);
}

}  // namespace repro::nas
