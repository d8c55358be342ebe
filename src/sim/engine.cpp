#include "repro/sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

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

void Engine::sift_down_root(std::uint64_t key) {
  // Keys are distinct (the thread id is in the low bits), so the
  // smaller child is the only candidate to move up.
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  while (true) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1] < heap_[child]) {
      ++child;
    }
    if (key < heap_[child]) {
      break;
    }
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = key;
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
  // Schedule keys: clock << bits | thread. One thread needs no bits.
  const auto bits = static_cast<unsigned>(std::bit_width(num_threads - 1));
  const std::uint64_t thread_mask = (std::uint64_t{1} << bits) - 1;
  const Ns max_clock = std::numeric_limits<Ns>::max() >> bits;
  REPRO_REQUIRE_MSG(start <= max_clock,
                    "region start clock outside the schedule key range");

  RegionResult result;
  result.start = start;
  result.end = start;
  result.thread_end.assign(num_threads, start);

  cursor_.assign(num_threads, 0);
  heap_.clear();
  // Every thread starts at `start`, in ascending thread order: the
  // keys ascend, so the array is already a valid heap.
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    cursor_[t] = program.thread_begin(t);
    if (program.thread_begin(t) != program.thread_end(t)) {
      heap_.push_back((start << bits) | t);
    }
  }

  while (!heap_.empty()) {
    const std::uint64_t cur = heap_.front();
    const auto thread = static_cast<std::uint32_t>(cur & thread_mask);

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
      const std::uint64_t next =
          heap_.size() > 2 ? std::min(heap_[1], heap_[2]) : heap_[1];
      limit = next >> bits;
      run_at_limit = thread < (next & thread_mask);
    }

    const ProcId proc = binding.empty() ? ProcId(thread) : binding[thread];
    const memsys::MemorySystem::BatchResult batch = memory_->access_batch(
        proc, program.slice(thread, cursor_[thread]), cur >> bits, limit,
        run_at_limit);
    cursor_[thread] += batch.executed;
    ops_executed_ += batch.executed;

    // Re-seat the root in place with one sift-down. The schedule order
    // is total, so the sequence of roots is the same whatever the
    // heap's internal layout.
    if (cursor_[thread] < program.thread_end(thread)) {
      REPRO_REQUIRE_MSG(batch.clock <= max_clock,
                        "thread clock outside the schedule key range");
      sift_down_root((batch.clock << bits) | thread);
    } else {
      result.thread_end[thread] = batch.clock;
      result.end = std::max(result.end, batch.clock);
      const std::uint64_t last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) {
        sift_down_root(last);
      }
    }
  }
  return result;
}

RegionResult Engine::run(Ns start,
                         const std::vector<ThreadProgram>& programs,
                         std::span<const ProcId> binding) {
  return run(start, RegionProgram(programs), binding);
}

}  // namespace repro::sim
