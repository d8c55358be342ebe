#include "repro/memsys/memory_system.hpp"

#include <algorithm>
#include <cmath>

#include "repro/common/assert.hpp"

namespace repro::memsys {

double ProcStats::remote_fraction() const {
  const std::uint64_t total = miss_lines();
  return total == 0
             ? 0.0
             : static_cast<double>(remote_miss_lines) /
                   static_cast<double>(total);
}

MemorySystem::MemorySystem(const MachineConfig& config,
                           const topo::Topology& topology,
                           MemoryBackend& backend)
    : config_(config),
      topology_(&topology),
      backend_(&backend),
      latency_(config_, topology),
      directory_(config_.num_procs()) {
  config_.validate();
  REPRO_REQUIRE(topology.num_nodes() == config_.num_nodes);
  caches_.reserve(config_.num_procs());
  for (std::size_t p = 0; p < config_.num_procs(); ++p) {
    caches_.emplace_back(config_.cache_capacity_pages());
  }
  if (config_.tlb_entries > 0) {
    tlbs_.reserve(config_.num_procs());
    for (std::size_t p = 0; p < config_.num_procs(); ++p) {
      tlbs_.emplace_back(config_.tlb_entries);
    }
  }
  queues_.reserve(config_.num_nodes);
  for (std::size_t n = 0; n < config_.num_nodes; ++n) {
    queues_.emplace_back(config_.mem_occupancy_ns);
  }
  stats_.resize(config_.num_procs());
}

NodeId MemorySystem::node_of(ProcId proc) const {
  REPRO_REQUIRE(proc.value() < config_.num_procs());
  return NodeId(proc.value() / static_cast<std::uint32_t>(
                                   config_.procs_per_node));
}

MemorySystem::AccessResult MemorySystem::access(Ns now, const Access& a) {
  REPRO_REQUIRE(a.proc.value() < config_.num_procs());
  REPRO_REQUIRE(a.lines >= 1 && a.lines <= config_.lines_per_page());
  REPRO_REQUIRE(a.line_begin < config_.lines_per_page());
  return access_impl(now, a.proc, a.page, a.lines, a.line_begin, a.write,
                     a.stream);
}

void MemorySystem::charge_miss(AccessResult& out, double& elapsed, Ns now,
                               ProcId proc, VPage page, std::uint32_t lines,
                               bool write, bool stream) {
  out.misses = lines;
  const HomeInfo home = backend_->resolve(proc, page, write);
  out.home = home.node;
  const NodeId from = node_of(proc);
  out.remote = from != home.node;

  const MemQueue::Service svc = queues_[home.node.value()].serve(now, lines);
  out.queue_wait = svc.wait;
  const double lat = latency_.memory_latency(from, home.node);
  if (stream) {
    // Pipelined fetch: one full-latency line, the rest at a rate
    // limited by the memory module locally and additionally by the
    // network when remote (prefetching hides most, not all, of the
    // extra hop latency). Both the latency and the per-line stream
    // cost are table loads precomputed by the LatencyModel.
    elapsed += static_cast<double>(svc.wait) + lat +
               static_cast<double>(lines - 1) *
                   latency_.stream_line_cost(from, home.node);
  } else {
    elapsed += static_cast<double>(svc.wait) +
               static_cast<double>(lines) * lat;
  }

  ProcStats& st = stats_[proc.value()];
  st.queue_wait += svc.wait;
  if (out.remote) {
    st.remote_miss_lines += lines;
  } else {
    st.local_miss_lines += lines;
  }
  const Ns penalty = backend_->on_miss(proc, page, home, lines, now);
  elapsed += static_cast<double>(penalty);

  if (fault_ != nullptr) {
    const auto injected = fault_->on_miss(home.node, lines, now);
    if (injected.extra_ns != 0 || injected.extra_lines != 0) {
      // The spike's phantom lines occupy the home module (later
      // accesses queue behind them); their own wait is nobody's --
      // the interfering traffic is not a simulated thread.
      queues_[home.node.value()].serve(now, injected.extra_lines);
      elapsed += static_cast<double>(injected.extra_ns);
    }
  }
}

MemorySystem::AccessResult MemorySystem::access_impl(
    Ns now, ProcId proc, VPage page, std::uint32_t lines,
    std::uint32_t line_begin, bool write, bool stream) {
  AccessResult out;
  double tlb_penalty = 0.0;
  if (!tlbs_.empty() && !tlbs_[proc.value()].touch(page).hit) {
    tlb_penalty = config_.tlb_refill_ns;
    ++stats_[proc.value()].tlb_misses;
  }

  if (line_model_ != nullptr) {
    // Line-grain path: the model classifies which lines hit, which
    // need a memory fill and what protocol traffic the access
    // generates; the page-grain caches and directory are bypassed.
    const LineOutcome c =
        line_model_->on_access(now, {proc, page, line_begin, lines, write});
    out.invalidations = c.invalidation_copies;
    double elapsed = tlb_penalty +
                     static_cast<double>(c.invalidation_copies) *
                         config_.invalidation_ns;
    elapsed += static_cast<double>(c.hit_lines) * config_.cache_hit_ns +
               c.extra_ns;
    ProcStats& st = stats_[proc.value()];
    st.hit_lines += c.hit_lines;
    st.invalidations_sent += c.invalidation_copies;
    if (c.miss_lines == 0) {
      if (write) {
        elapsed += static_cast<double>(backend_->on_write_hit(proc, page));
      }
    } else {
      charge_miss(out, elapsed, now, proc, page, c.miss_lines, write, stream);
    }
    for (const std::uint64_t wb : c.writeback_pages) {
      // Posted writeback: the dirty victim occupies its home module,
      // but the evicting processor does not wait for it to retire
      // (the fault-spike phantom-line treatment).
      const HomeInfo wb_home = backend_->resolve(proc, VPage(wb), false);
      queues_[wb_home.node.value()].serve(now, 1);
    }
    elapsed += elapsed_frac_;
    const auto whole = static_cast<Ns>(elapsed);
    elapsed_frac_ = elapsed - static_cast<double>(whole);
    out.elapsed = whole;
    return out;
  }

  PageCache& cache = caches_[proc.value()];
  const auto touch = cache.touch(page);
  if (touch.evicted) {
    directory_.on_evict(proc, *touch.evicted);
  }

  // Coherence bookkeeping; a write invalidates every other cached copy
  // (page-grain upgrade), which is how page-level false sharing shows up.
  const Directory::AccessOutcome coherence =
      write ? directory_.on_write(proc, page) : directory_.on_read(proc, page);
  out.invalidations = coherence.invalidations();
  if (out.invalidations != 0) {
    const auto low = static_cast<std::uint32_t>(
        std::min<std::size_t>(64, config_.num_procs()));
    for (std::uint32_t p = 0; p < low; ++p) {
      if ((coherence.invalidate_mask >> p) & 1u) {
        caches_[p].invalidate(page);
      }
    }
    // Sharer words beyond the first exist only on > 64-proc machines.
    for (std::size_t w = 0; w < coherence.invalidate_high.size(); ++w) {
      const std::uint64_t word = coherence.invalidate_high[w];
      for (std::uint32_t bit = 0; bit < 64; ++bit) {
        if ((word >> bit) & 1u) {
          caches_[64 * (w + 1) + bit].invalidate(page);
        }
      }
    }
    stats_[proc.value()].invalidations_sent += out.invalidations;
  }

  double elapsed = tlb_penalty + static_cast<double>(out.invalidations) *
                                     config_.invalidation_ns;
  if (touch.hit) {
    elapsed += static_cast<double>(lines) * config_.cache_hit_ns;
    stats_[proc.value()].hit_lines += lines;
    if (write) {
      elapsed += static_cast<double>(backend_->on_write_hit(proc, page));
    }
  } else {
    charge_miss(out, elapsed, now, proc, page, lines, write, stream);
  }

  elapsed += elapsed_frac_;
  const auto whole = static_cast<Ns>(elapsed);
  elapsed_frac_ = elapsed - static_cast<double>(whole);
  out.elapsed = whole;
  return out;
}

MemorySystem::BatchResult MemorySystem::access_batch(ProcId proc,
                                                     const OpSlice& ops,
                                                     Ns clock, Ns limit_clock,
                                                     bool run_at_limit) {
  REPRO_REQUIRE(proc.value() < config_.num_procs());
  BatchResult out;
  out.clock = clock;
  // The first op always runs: the caller scheduled this thread because
  // it is the earliest event, so `clock` cannot exceed the limit.
  while (out.executed < ops.count) {
    if (out.clock > limit_clock ||
        (out.clock == limit_clock && !run_at_limit)) {
      break;
    }
    const std::uint32_t i = out.executed;
    if ((ops.flags[i] & kOpAccess) != 0) {
      // Line counts are validated once at RegionProgram compile time
      // and re-checked per region run by the engine, so the per-op
      // bound check is gone from this loop.
      const AccessResult r = access_impl(
          out.clock, proc, VPage(ops.pages[i]), ops.lines[i],
          ops.line_begin != nullptr ? ops.line_begin[i] : 0,
          (ops.flags[i] & kOpWrite) != 0, (ops.flags[i] & kOpStream) != 0);
      out.clock += r.elapsed + ops.compute[i];
    } else {
      out.clock += ops.compute[i];
    }
    ++out.executed;
  }
  return out;
}

void MemorySystem::invalidate_tlb_entries(VPage page) {
  for (PageCache& tlb : tlbs_) {
    tlb.invalidate(page);
  }
}

void MemorySystem::flush_page(VPage page) {
  for (std::uint32_t p = 0; p < config_.num_procs(); ++p) {
    if (caches_[p].invalidate(page)) {
      directory_.on_evict(ProcId(p), page);
    }
  }
  if (line_model_ != nullptr) {
    line_model_->flush_page(page);
  }
}

void MemorySystem::flush_tlbs() {
  for (PageCache& tlb : tlbs_) {
    tlb.clear();
  }
}

void MemorySystem::flush_all() {
  for (std::uint32_t p = 0; p < config_.num_procs(); ++p) {
    caches_[p].clear();
  }
  directory_ = Directory(config_.num_procs());
  if (line_model_ != nullptr) {
    line_model_->clear();
  }
  // A flushed machine is fully cold: stale translations would let the
  // next access skip the TLB refill a real post-flush access pays.
  flush_tlbs();
}

const ProcStats& MemorySystem::stats(ProcId proc) const {
  REPRO_REQUIRE(proc.value() < config_.num_procs());
  return stats_[proc.value()];
}

ProcStats MemorySystem::total_stats() const {
  ProcStats total;
  for (const ProcStats& st : stats_) {
    total.hit_lines += st.hit_lines;
    total.local_miss_lines += st.local_miss_lines;
    total.remote_miss_lines += st.remote_miss_lines;
    total.queue_wait += st.queue_wait;
    total.invalidations_sent += st.invalidations_sent;
    total.tlb_misses += st.tlb_misses;
  }
  return total;
}

std::uint64_t MemorySystem::digest(Ns now) const {
  StateHash hash;
  for (const PageCache& cache : caches_) {
    cache.digest(hash);
  }
  hash.mix(tlbs_.size());
  for (const PageCache& tlb : tlbs_) {
    tlb.digest(hash);
  }
  hash.mix(directory_.digest());
  if (line_model_ != nullptr) {
    line_model_->digest(hash);
  }
  for (const MemQueue& queue : queues_) {
    queue.digest_phase(hash, now);
  }
  hash.mix_double(elapsed_frac_);
  return hash.value();
}

void MemorySystem::apply_stats_delta(std::span<const ProcStats> delta,
                                     std::uint64_t count) {
  REPRO_REQUIRE(delta.size() == stats_.size());
  for (std::size_t p = 0; p < stats_.size(); ++p) {
    ProcStats& st = stats_[p];
    const ProcStats& d = delta[p];
    st.hit_lines += d.hit_lines * count;
    st.local_miss_lines += d.local_miss_lines * count;
    st.remote_miss_lines += d.remote_miss_lines * count;
    st.queue_wait += d.queue_wait * static_cast<Ns>(count);
    st.invalidations_sent += d.invalidations_sent * count;
    st.tlb_misses += d.tlb_misses * count;
  }
}

void MemorySystem::advance_queue_replayed(NodeId node, std::uint64_t count,
                                          std::uint64_t lines, Ns wait,
                                          Ns period) {
  REPRO_REQUIRE(node.value() < queues_.size());
  queues_[node.value()].advance_replayed(count, lines, wait, period);
}

void MemorySystem::reset_stats() {
  for (ProcStats& st : stats_) {
    st = ProcStats{};
  }
  for (MemQueue& q : queues_) {
    q.reset();
  }
  if (line_model_ != nullptr) {
    line_model_->reset_stats();
  }
}

const MemQueue& MemorySystem::queue(NodeId node) const {
  REPRO_REQUIRE(node.value() < config_.num_nodes);
  return queues_[node.value()];
}

const PageCache& MemorySystem::cache(ProcId proc) const {
  REPRO_REQUIRE(proc.value() < config_.num_procs());
  return caches_[proc.value()];
}

void MemorySystem::sample_queues(trace::TraceSink& sink, std::uint16_t lane,
                                 Ns now) const {
  for (std::uint32_t n = 0; n < queues_.size(); ++n) {
    const MemQueue& q = queues_[n];
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kQueueSample;
    ev.time = now;
    ev.node = static_cast<std::int32_t>(n);
    ev.a = q.busy_until() > now ? q.busy_until() - now : 0;
    ev.b = q.lines_served();
    sink.emit(lane, ev);
  }
}

}  // namespace repro::memsys
