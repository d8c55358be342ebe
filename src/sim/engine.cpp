#include "repro/sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "repro/common/assert.hpp"

namespace repro::sim {

double RegionResult::imbalance() const {
  if (thread_end.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  Ns max_busy = 0;
  for (Ns t : thread_end) {
    const Ns busy = t - start;
    sum += static_cast<double>(busy);
    max_busy = std::max(max_busy, busy);
  }
  const double avg = sum / static_cast<double>(thread_end.size());
  return avg <= 0.0 ? 1.0 : static_cast<double>(max_busy) / avg;
}

Engine::Engine(memsys::MemorySystem& memory) : memory_(&memory) {}

void Engine::sift_down_root() {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    std::size_t best = i;
    if (left < n && earlier(heap_[left], heap_[best])) {
      best = left;
    }
    if (right < n && earlier(heap_[right], heap_[best])) {
      best = right;
    }
    if (best == i) {
      break;
    }
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

RegionResult Engine::run(Ns start, const RegionProgram& program,
                         std::span<const ProcId> binding) {
  REPRO_REQUIRE(!program.empty());
  REPRO_REQUIRE(program.num_threads() <= memory_->config().num_procs());
  REPRO_REQUIRE(binding.empty() || binding.size() >= program.num_threads());
  // Once per run, instead of once per op on the batch hot path.
  REPRO_REQUIRE_MSG(
      program.max_access_lines() <= memory_->config().lines_per_page(),
      "access op exceeds lines per page");
  REPRO_REQUIRE_MSG(
      program.max_line_begin() < memory_->config().lines_per_page(),
      "access op line_begin exceeds lines per page");

  const auto num_threads = static_cast<std::uint32_t>(program.num_threads());
  RegionResult result;
  result.start = start;
  result.end = start;
  result.thread_end.assign(num_threads, start);

  cursor_.assign(num_threads, 0);
  heap_.clear();
  // Every thread starts at `start`, in ascending thread order: the
  // array is sorted by earlier(), so it is already a valid heap.
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    cursor_[t] = program.thread_begin(t);
    if (program.thread_begin(t) != program.thread_end(t)) {
      heap_.push_back({start, t});
    }
  }

  while (!heap_.empty()) {
    const Pending cur = heap_.front();

    // The root holds the earliest event. Its ops cannot be overtaken
    // by any other thread until its clock reaches the next queued
    // event -- the root's smaller child -- so that whole run executes
    // as one batch. At an exact tie the scalar schedule pops the lower
    // thread id first, hence `run_at_limit` when this thread wins that
    // tie-break. The limit is invariant during the batch: only this
    // thread's clock moves.
    Ns limit = std::numeric_limits<Ns>::max();
    bool run_at_limit = true;
    if (heap_.size() > 1) {
      const Pending& next =
          heap_.size() > 2 && earlier(heap_[2], heap_[1]) ? heap_[2]
                                                          : heap_[1];
      limit = next.clock;
      run_at_limit = cur.thread < next.thread;
    }

    const ProcId proc =
        binding.empty() ? ProcId(cur.thread) : binding[cur.thread];
    const memsys::MemorySystem::BatchResult batch = memory_->access_batch(
        proc, program.slice(cur.thread, cursor_[cur.thread]), cur.clock,
        limit, run_at_limit);
    cursor_[cur.thread] += batch.executed;
    ops_executed_ += batch.executed;

    // Re-seat the root in place with one sift-down. The schedule order
    // is total, so the sequence of roots is the same whatever the
    // heap's internal layout.
    if (cursor_[cur.thread] < program.thread_end(cur.thread)) {
      heap_.front().clock = batch.clock;
    } else {
      result.thread_end[cur.thread] = batch.clock;
      result.end = std::max(result.end, batch.clock);
      heap_.front() = heap_.back();
      heap_.pop_back();
    }
    sift_down_root();
  }
  return result;
}

RegionResult Engine::run(Ns start,
                         const std::vector<ThreadProgram>& programs,
                         std::span<const ProcId> binding) {
  return run(start, RegionProgram(programs), binding);
}

}  // namespace repro::sim
