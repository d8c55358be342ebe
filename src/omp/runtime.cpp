#include "repro/omp/runtime.hpp"

#include <algorithm>
#include <utility>

#include "repro/common/assert.hpp"

namespace repro::omp {

Runtime::Runtime(sim::Engine& engine, std::size_t num_threads)
    : engine_(&engine), num_threads_(num_threads) {
  REPRO_REQUIRE(num_threads >= 1);
  REPRO_REQUIRE(num_threads <= engine.memory().config().num_procs());
  binding_.reserve(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    binding_.push_back(ProcId(t));
  }
}

ProcId Runtime::proc_of(ThreadId thread) const {
  REPRO_REQUIRE(thread.value() < num_threads_);
  return binding_[thread.value()];
}

void Runtime::rebind(ThreadId thread, ProcId proc) {
  REPRO_REQUIRE(thread.value() < num_threads_);
  REPRO_REQUIRE(proc.value() < engine_->memory().config().num_procs());
  for (std::uint32_t t = 0; t < num_threads_; ++t) {
    REPRO_REQUIRE_MSG(t == thread.value() || binding_[t] != proc,
                      "two threads bound to one processor");
  }
  binding_[thread.value()] = proc;
}

void Runtime::swap_binding(ThreadId a, ThreadId b) {
  REPRO_REQUIRE(a.value() < num_threads_ && b.value() < num_threads_);
  std::swap(binding_[a.value()], binding_[b.value()]);
}

sim::RegionBuilder Runtime::make_region() const {
  return sim::RegionBuilder(num_threads_);
}

sim::RegionResult Runtime::run(const std::string& name,
                               const sim::RegionProgram& program) {
  if (inspector_) {
    inspector_(name, program, binding_);
  }
  if (dry_run_) {
    sim::RegionResult result;
    result.start = now_;
    result.end = now_;
    result.thread_end.assign(program.num_threads(), now_);
    records_.push_back(RegionRecord{name, now_, now_, 1.0});
    return result;
  }
  if (trace_ != nullptr) {
    // Events fired inside the region (daemon scans, kernel migrations)
    // inherit this phase; restored to 0 (serial code) after the join.
    trace_->set_phase(trace_->intern_phase(name));
    trace_->set_now(now_);
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kRegionBegin;
    ev.time = now_;
    trace_->emit(trace_lane_, ev);
  }
  sim::RegionResult result = engine_->run(now_, program, binding_);
  if (fault_ != nullptr) {
    // Injected preemption: the victim thread lost a timeslice inside
    // the region, so its completion (and possibly the join barrier)
    // moves out. Applied before the barrier-wait events below so the
    // trace reflects the stretched region.
    const auto preempt = fault_->on_region(
        static_cast<std::uint32_t>(result.thread_end.size()), result.end);
    if (preempt.fired) {
      Ns& victim_end = result.thread_end[preempt.thread];
      victim_end += preempt.stretch;
      result.end = std::max(result.end, victim_end);
    }
  }
  now_ = result.end;
  records_.push_back(
      RegionRecord{name, result.start, result.end, result.imbalance()});
  if (trace_ != nullptr) {
    trace_->set_now(now_);
    for (std::size_t t = 0; t < result.thread_end.size(); ++t) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kBarrierWait;
      ev.time = result.end;
      ev.node = static_cast<std::int32_t>(t);
      ev.a = result.end - result.thread_end[t];
      trace_->emit(trace_lane_, ev);
    }
    engine_->memory().sample_queues(*trace_, memsys_lane_, result.end);
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kRegionEnd;
    ev.time = result.end;
    ev.a = result.end - result.start;
    trace_->emit(trace_lane_, ev);
    trace_->set_phase(0);
  }
  return result;
}

sim::RegionResult Runtime::run(const std::string& name,
                               sim::RegionBuilder&& region) {
  return run(name, sim::RegionProgram::compile(std::move(region)));
}

sim::RegionResult Runtime::parallel_for(const std::string& name,
                                        std::uint64_t n,
                                        const Schedule& schedule,
                                        const ChunkEmitter& emit) {
  sim::RegionBuilder region = make_region();
  for (std::uint32_t t = 0; t < num_threads_; ++t) {
    for (const ChunkRange& chunk :
         schedule.chunks_for(ThreadId(t), num_threads_, n)) {
      emit(ThreadId(t), chunk, region);
    }
  }
  return run(name, std::move(region));
}

sim::RegionResult Runtime::parallel_reduce(const std::string& name,
                                           std::uint64_t n,
                                           const Schedule& schedule,
                                           const ChunkEmitter& emit) {
  sim::RegionResult result = parallel_for(name, n, schedule, emit);
  // Combine tree: ceil(log2(team)) levels after the join.
  Ns combine = 0;
  for (std::size_t span = 1; span < num_threads_; span *= 2) {
    combine += reduction_step_;
  }
  advance(combine);
  result.end += combine;
  return result;
}

sim::RegionResult Runtime::sections(
    const std::string& name, const std::vector<SectionBody>& bodies) {
  REPRO_REQUIRE(!bodies.empty());
  sim::RegionBuilder region = make_region();
  for (std::size_t s = 0; s < bodies.size(); ++s) {
    const ThreadId thread(static_cast<std::uint32_t>(s % num_threads_));
    bodies[s](thread, region);
  }
  return run(name, std::move(region));
}

Ns Runtime::total_time(const std::string& name) const {
  Ns total = 0;
  for (const RegionRecord& r : records_) {
    if (r.name == name) {
      total += r.duration();
    }
  }
  return total;
}

}  // namespace repro::omp
