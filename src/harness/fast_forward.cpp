#include "repro/harness/fast_forward.hpp"

#include <type_traits>
#include <utility>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/common/hash.hpp"
#include "repro/common/log.hpp"

namespace repro::harness {

namespace {

/// delta(a0 -> a1) == delta(b0 -> b1), field-wise.
bool same_proc_delta(const memsys::ProcStats& a0, const memsys::ProcStats& a1,
                     const memsys::ProcStats& b0,
                     const memsys::ProcStats& b1) {
  return a1.hit_lines - a0.hit_lines == b1.hit_lines - b0.hit_lines &&
         a1.local_miss_lines - a0.local_miss_lines ==
             b1.local_miss_lines - b0.local_miss_lines &&
         a1.remote_miss_lines - a0.remote_miss_lines ==
             b1.remote_miss_lines - b0.remote_miss_lines &&
         a1.queue_wait - a0.queue_wait == b1.queue_wait - b0.queue_wait &&
         a1.invalidations_sent - a0.invalidations_sent ==
             b1.invalidations_sent - b0.invalidations_sent &&
         a1.tlb_misses - a0.tlb_misses == b1.tlb_misses - b0.tlb_misses;
}

}  // namespace

FastForward::FastForward(omp::Machine& machine, upm::Upmlib* upmlib,
                         trace::TraceSink* sink)
    : machine_(&machine), upmlib_(upmlib), sink_(sink) {
  probe_limit_ = static_cast<std::uint32_t>(Env::global().get_int(
      "REPRO_FF_PROBE_LIMIT", kMaxUnreadyProbes));
}

FastForward::~FastForward() { drop_log(); }

const char* FastForward::rule_name(Rule rule) {
  switch (rule) {
    case Rule::kHolds:
      return "holds";
    case Rule::kDigest:
      return "digest";
    case Rule::kMachineDigest:
      return "machine digest";
    case Rule::kTimes:
      return "times";
    case Rule::kMigrationPass:
      return "migration pass";
    case Rule::kEngineDeltas:
      return "engine deltas";
    case Rule::kDaemonInterrupt:
      return "daemon interrupt";
    case Rule::kStats:
      return "stats";
    case Rule::kRecords:
      return "records";
    case Rule::kLanes:
      return "lanes";
    case Rule::kTooFewIterations:
      return "too few iterations";
  }
  return "?";
}

std::string FastForward::decline_reason() const {
  std::string rule = rule_name(decline_);
  if (decline_ == Rule::kDaemonInterrupt && stopped_at_ != 0) {
    rule += " at iteration " + std::to_string(stopped_at_);
  }
  return probe_limited_ ? "probe limit (" + rule + ")" : rule;
}

void FastForward::drop_log() {
  if (log_ != nullptr) {
    machine_->kernel().set_miss_log(nullptr);
    log_.reset();
  }
}

void FastForward::retire() {
  retired_ = true;
  drop_log();
  snapshots_.clear();
  snapshots_.shrink_to_fit();
}

FastForward::Snapshot FastForward::capture() {
  Snapshot s;
  omp::Runtime& rt = machine_->runtime();
  s.now = rt.now();

  StateHash machine;
  machine.mix(machine_->memory().digest(s.now));
  machine.mix(machine_->kernel().machine_digest());
  machine.mix(rt.digest());
  machine.mix(upmlib_ != nullptr ? 1 : 0);
  if (upmlib_ != nullptr) {
    machine.mix(upmlib_->digest());
  }
  // An attached fault injector keeps the gate shut by construction:
  // its digest mixes the current iteration while the plan's schedule
  // can still fire, so the window is never digest-periodic and no
  // scheduled draw is ever skipped by a replayed block.
  fault::FaultInjector* fault = machine_->fault_injector();
  machine.mix(fault != nullptr ? 1 : 0);
  if (fault != nullptr) {
    machine.mix(fault->digest());
  }
  s.machine_digest = machine.value();
  StateHash full(s.machine_digest);
  full.mix(machine_->kernel().daemon_digest(s.now));
  s.digest = full.value();

  const std::size_t procs = machine_->config().num_procs();
  s.proc_stats.reserve(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    s.proc_stats.push_back(
        machine_->memory().stats(ProcId(static_cast<std::uint32_t>(p))));
  }
  s.kernel = machine_->kernel().stats();
  s.kernel_misses = machine_->kernel().misses();
  if (machine_->kernel().daemon() != nullptr) {
    s.daemon = machine_->kernel().daemon()->stats();
  }
  if (upmlib_ != nullptr) {
    s.upm = upmlib_->stats();
  }
  const std::size_t nodes = machine_->config().num_nodes;
  s.queues.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    const memsys::MemQueue& q =
        machine_->memory().queue(NodeId(static_cast<std::uint32_t>(n)));
    s.queues.push_back({q.lines_served(), q.total_wait()});
  }
  if (sink_ != nullptr) {
    const auto lanes = static_cast<std::uint16_t>(sink_->num_lanes());
    s.lane_sizes.reserve(lanes);
    for (std::uint16_t l = 0; l < lanes; ++l) {
      s.lane_sizes.push_back(sink_->lane_events(l).size());
    }
  }
  s.record_count = rt.records().size();
  return s;
}

void FastForward::probe() {
  if (retired_) {
    return;
  }
  Snapshot s = capture();
  REPRO_LOG_DEBUG("ff digest ", s.digest, " machine ", s.machine_digest,
                  " at ", s.now);
  s.migration_pass = migration_pass_;
  migration_pass_ = false;
  snapshots_.push_back(std::move(s));
  if (snapshots_.size() > 2 * kMaxPeriod + 1) {
    snapshots_.erase(snapshots_.begin());
  }
  if (log_ != nullptr && ++log_probes_ == log_period_) {
    // The logged block just ended: it is block B of the window.
    machine_->kernel().set_miss_log(nullptr);
    if (!log_->overflow && check(log_period_, true) == Rule::kHolds) {
      ready_ = true;
      continuing_ = true;
      period_iters_ = log_period_;
      return;
    }
    drop_log();
  }
  // Smallest period first: a period-1 fixed point also satisfies every
  // larger candidate, and shorter periods replay with less leftover.
  Rule smallest = Rule::kTooFewIterations;
  for (std::uint32_t p = 1;
       p <= kMaxPeriod && snapshots_.size() >= 2 * p + 1; ++p) {
    const Rule rule = check(p, false);
    if (rule == Rule::kHolds) {
      drop_log();
      ready_ = true;
      period_iters_ = p;
      return;
    }
    if (p == 1) {
      smallest = rule;
    }
  }
  if (machine_->kernel().daemon() != nullptr && log_ == nullptr) {
    for (std::uint32_t p = 1;
         p <= kMaxPeriod && snapshots_.size() >= 2 * p + 1; ++p) {
      const Rule rule = check(p, true);
      if (rule == Rule::kHolds) {
        // The machine repeats and the daemon is quiet: log the next
        // block's misses, to continue the daemon over once that block
        // proves quiet too. It repeats the last block, miss count
        // included.
        const Snapshot& last = snapshots_.back();
        log_ = std::make_unique<os::MissLog>();
        log_->start = last.now;
        log_->misses.reserve(last.kernel_misses -
                             snapshots_[snapshots_.size() - 1 - p]
                                 .kernel_misses);
        log_period_ = p;
        log_probes_ = 0;
        machine_->kernel().set_miss_log(log_.get());
        if (p == 1) {
          // Not a decline: the gate holds and waits for the logged
          // block, which only a run that ends first never sees.
          smallest = Rule::kTooFewIterations;
        }
        break;
      }
      if (p == 1 && smallest == Rule::kDigest) {
        smallest = rule;
      }
    }
  }
  decline_ = smallest;
  if (probe_limit_ != 0 && ++unready_probes_ >= probe_limit_) {
    probe_limited_ = true;
    retire();
  }
}

FastForward::Rule FastForward::check(std::uint32_t period,
                                     bool continuation) const {
  // The last 2p+1 snapshots s[0..n] bracket two p-iteration blocks:
  // A = s[0]..s[p], B = s[p]..s[n].
  const auto p = static_cast<std::size_t>(period);
  const std::size_t n = 2 * p;
  const Snapshot* s = snapshots_.data() + (snapshots_.size() - n - 1);

  // Every pair of probes p iterations apart saw the same behavioural
  // state: the window is digest-periodic (and, as a determinism
  // cross-check, block B left the state exactly where block A did).
  // A continuation compares the machine part alone.
  for (std::size_t i = 0; i + p <= n; ++i) {
    if (continuation ? s[i].machine_digest != s[i + p].machine_digest
                     : s[i].digest != s[i + p].digest) {
      return continuation ? Rule::kMachineDigest : Rule::kDigest;
    }
  }
  // Matching per-sub-iteration times; their sums make the two block
  // periods equal automatically.
  const Ns block_ns = s[n].now - s[p].now;
  if (block_ns == 0) {
    return Rule::kTimes;
  }
  for (std::size_t i = 0; i < p; ++i) {
    if (s[i + 1].now - s[i].now != s[i + p + 1].now - s[i + p].now) {
      return Rule::kTimes;
    }
  }
  for (std::size_t i = 1; i <= n; ++i) {
    if (s[i].migration_pass) {
      return Rule::kMigrationPass;
    }
  }
  // Every migration engine did the same in both blocks: equal
  // per-block counter deltas (zero for a quiescent engine), so replay
  // can advance them by delta x blocks. A continued daemon runs its
  // blocks for real, so only its quiet is required, not equal deltas.
  const auto same_delta = [&](const auto& a0, const auto& a1,
                              const auto& b1) {
    using Stats = std::decay_t<decltype(a0)>;
    return Stats::delta(a0, a1) == Stats::delta(a1, b1);
  };
  if (!same_delta(s[0].kernel, s[p].kernel, s[n].kernel) ||
      !same_delta(s[0].upm, s[p].upm, s[n].upm) ||
      (!continuation &&
       !same_delta(s[0].daemon, s[p].daemon, s[n].daemon))) {
    return Rule::kEngineDeltas;
  }
  if (continuation && s[n].daemon.interrupts != s[0].daemon.interrupts) {
    return Rule::kDaemonInterrupt;
  }
  // Identical per-processor statistics deltas, sub-iteration by
  // sub-iteration.
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t q = 0; q < s[0].proc_stats.size(); ++q) {
      if (!same_proc_delta(s[i].proc_stats[q], s[i + 1].proc_stats[q],
                           s[i + p].proc_stats[q],
                           s[i + p + 1].proc_stats[q])) {
        return Rule::kStats;
      }
    }
    // Identical per-node queue throughput deltas.
    for (std::size_t q = 0; q < s[0].queues.size(); ++q) {
      if (s[i + 1].queues[q].lines - s[i].queues[q].lines !=
              s[i + p + 1].queues[q].lines - s[i + p].queues[q].lines ||
          s[i + 1].queues[q].wait - s[i].queues[q].wait !=
              s[i + p + 1].queues[q].wait - s[i + p].queues[q].wait) {
        return Rule::kStats;
      }
    }
  }
  // Identical region records, shifted by exactly one block period
  // (with the sub-iteration boundaries lining up too).
  const auto& records = machine_->runtime().records();
  for (std::size_t i = 0; i <= p; ++i) {
    if (s[i].record_count - s[0].record_count !=
        s[i + p].record_count - s[p].record_count) {
      return Rule::kRecords;
    }
  }
  for (std::size_t i = 0; i < s[n].record_count - s[p].record_count; ++i) {
    const omp::RegionRecord& prev = records[s[0].record_count + i];
    const omp::RegionRecord& cur = records[s[p].record_count + i];
    if (prev.name != cur.name || prev.imbalance != cur.imbalance ||
        cur.start - prev.start != block_ns ||
        cur.end - prev.end != block_ns) {
      return Rule::kRecords;
    }
  }
  // Identical trace-event streams: same shape, times shifted by one
  // block period, iteration stamps advanced by the period. The a/b
  // payloads may advance by a per-event constant (cumulative counters
  // such as the queue samples' lines-served); replay extrapolates them
  // affinely.
  if (sink_ != nullptr) {
    const auto lanes = static_cast<std::uint16_t>(sink_->num_lanes());
    for (std::uint16_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i <= p; ++i) {
        if (s[i].lane_sizes[l] - s[0].lane_sizes[l] !=
            s[i + p].lane_sizes[l] - s[p].lane_sizes[l]) {
          return Rule::kLanes;
        }
      }
      const auto& events = sink_->lane_events(l);
      const std::size_t a0 = s[0].lane_sizes[l];
      const std::size_t b0 = s[p].lane_sizes[l];
      for (std::size_t j = 0; j < s[n].lane_sizes[l] - b0; ++j) {
        const trace::TraceEvent& prev = events[a0 + j];
        const trace::TraceEvent& cur = events[b0 + j];
        if (prev.kind != cur.kind || prev.node != cur.node ||
            prev.src != cur.src || prev.dst != cur.dst ||
            prev.page != cur.page || prev.cost != cur.cost ||
            prev.phase != cur.phase || cur.time - prev.time != block_ns ||
            cur.iteration != prev.iteration + period) {
          return Rule::kLanes;
        }
      }
    }
  }
  return Rule::kHolds;
}

std::uint32_t FastForward::continue_daemon(std::uint32_t next_step,
                                           std::uint32_t max_blocks,
                                           Ns block_ns) {
  // Block c repeats the logged block c * block_ns later for as long as
  // the daemon stays quiet, so only the counters and the daemon need
  // to run. Keep a copy to rewind to in case one block would interrupt.
  os::Kernel& kernel = machine_->kernel();
  const os::Kernel::DaemonCopy start = kernel.copy_daemon();
  for (std::uint32_t c = 1; c <= max_blocks; ++c) {
    if (kernel.observe_block(*log_, static_cast<Ns>(c) * block_ns)) {
      continue;
    }
    // Block c would raise an interrupt part-way. Rewind and re-run the
    // blocks before it, which are interrupt-free, so the caller
    // simulates block c from its exact start.
    kernel.restore_daemon(start);
    for (std::uint32_t k = 1; k < c; ++k) {
      const bool quiet =
          kernel.observe_block(*log_, static_cast<Ns>(k) * block_ns);
      REPRO_REQUIRE(quiet);
    }
    decline_ = Rule::kDaemonInterrupt;
    stopped_at_ = next_step + (c - 1) * period_iters_;
    REPRO_LOG_INFO("ff daemon continuation stops at block ", c, " of ",
                   max_blocks, ": iteration ", stopped_at_,
                   " would raise an interrupt");
    return c - 1;
  }
  return max_blocks;
}

std::uint32_t FastForward::replay(std::uint32_t next_step,
                                  std::uint32_t iterations,
                                  std::vector<Ns>& iteration_times) {
  REPRO_REQUIRE(ready_);
  // One replay per watcher: the caller simulates whatever sub-block
  // tail remains, so probing must not re-arm.
  ready_ = false;
  const auto p = static_cast<std::size_t>(period_iters_);
  const std::size_t n = 2 * p;
  const Snapshot* s = snapshots_.data() + (snapshots_.size() - n - 1);
  const Ns block_ns = s[n].now - s[p].now;
  const std::uint32_t remaining =
      next_step <= iterations ? iterations - next_step + 1 : 0;
  std::uint32_t blocks = remaining / period_iters_;
  if (continuing_ && blocks > 0) {
    blocks = continue_daemon(next_step, blocks, block_ns);
  }
  const std::uint32_t count = blocks * period_iters_;
  if (count == 0) {
    if (stopped_at_ == 0) {
      decline_ = Rule::kTooFewIterations;
    }
    retire();
    return 0;
  }
  omp::Runtime& rt = machine_->runtime();

  // Re-stamp the cached block's trace events. Copy the source ranges
  // first: appending grows the very vectors they live in.
  if (sink_ != nullptr) {
    const auto lanes = static_cast<std::uint16_t>(sink_->num_lanes());
    for (std::uint16_t l = 0; l < lanes; ++l) {
      const auto& events = sink_->lane_events(l);
      const std::size_t prev_begin = s[0].lane_sizes[l];
      const std::size_t cur_begin = s[p].lane_sizes[l];
      const std::size_t len = s[n].lane_sizes[l] - cur_begin;
      std::vector<trace::TraceEvent> cached(
          events.begin() + static_cast<std::ptrdiff_t>(cur_begin),
          events.begin() + static_cast<std::ptrdiff_t>(cur_begin + len));
      // Per-event payload deltas between the two probed blocks
      // (modular arithmetic, so decreasing payloads extrapolate too).
      std::vector<std::pair<std::uint64_t, std::uint64_t>> deltas;
      deltas.reserve(len);
      for (std::size_t j = 0; j < len; ++j) {
        deltas.emplace_back(cached[j].a - events[prev_begin + j].a,
                            cached[j].b - events[prev_begin + j].b);
      }
      for (std::uint32_t c = 1; c <= blocks; ++c) {
        for (std::size_t j = 0; j < len; ++j) {
          trace::TraceEvent out = cached[j];
          out.time += static_cast<Ns>(c) * block_ns;
          out.iteration += c * period_iters_;
          out.a += static_cast<std::uint64_t>(c) * deltas[j].first;
          out.b += static_cast<std::uint64_t>(c) * deltas[j].second;
          sink_->append_replayed(l, out);
        }
      }
    }
  }

  // Shifted copies of the cached block's region records.
  {
    const auto& records = rt.records();
    const std::vector<omp::RegionRecord> cached(
        records.begin() + static_cast<std::ptrdiff_t>(s[p].record_count),
        records.begin() + static_cast<std::ptrdiff_t>(s[n].record_count));
    for (std::uint32_t c = 1; c <= blocks; ++c) {
      for (const omp::RegionRecord& r : cached) {
        omp::RegionRecord out = r;
        out.start += static_cast<Ns>(c) * block_ns;
        out.end += static_cast<Ns>(c) * block_ns;
        rt.append_record(std::move(out));
      }
    }
  }

  // Statistics and clocks advance delta-by-block.
  std::vector<memsys::ProcStats> delta(s[p].proc_stats.size());
  for (std::size_t q = 0; q < delta.size(); ++q) {
    const memsys::ProcStats& a = s[p].proc_stats[q];
    const memsys::ProcStats& b = s[n].proc_stats[q];
    delta[q].hit_lines = b.hit_lines - a.hit_lines;
    delta[q].local_miss_lines = b.local_miss_lines - a.local_miss_lines;
    delta[q].remote_miss_lines = b.remote_miss_lines - a.remote_miss_lines;
    delta[q].queue_wait = b.queue_wait - a.queue_wait;
    delta[q].invalidations_sent =
        b.invalidations_sent - a.invalidations_sent;
    delta[q].tlb_misses = b.tlb_misses - a.tlb_misses;
  }
  machine_->memory().apply_stats_delta(delta, blocks);
  for (std::size_t q = 0; q < s[p].queues.size(); ++q) {
    machine_->memory().advance_queue_replayed(
        NodeId(static_cast<std::uint32_t>(q)), blocks,
        s[n].queues[q].lines - s[p].queues[q].lines,
        s[n].queues[q].wait - s[p].queues[q].wait, block_ns);
  }
  rt.advance(static_cast<Ns>(blocks) * block_ns);
  os::Kernel& kernel = machine_->kernel();
  kernel.advance_stats_replayed(os::KernelStats::delta(s[p].kernel,
                                                       s[n].kernel),
                                blocks);
  if (upmlib_ != nullptr) {
    upmlib_->advance_stats_replayed(upm::UpmStats::delta(s[p].upm, s[n].upm),
                                    blocks);
  }
  // A daemon that repeated with the machine advances like the rest:
  // its counters by delta x blocks, and its absolute timers shift so a
  // simulated sub-block tail ages windows exactly as a full run would.
  // A continued daemon already ran the replayed blocks for real.
  if (kernel.daemon() != nullptr && !continuing_) {
    kernel.daemon()->advance_stats_replayed(
        os::DaemonStats::delta(s[p].daemon, s[n].daemon), blocks);
    kernel.daemon()->advance_replayed(static_cast<Ns>(blocks) * block_ns);
  }
  for (std::uint32_t c = 0; c < blocks; ++c) {
    for (std::size_t i = 0; i < p; ++i) {
      iteration_times.push_back(s[p + i + 1].now - s[p + i].now);
    }
  }
  if (sink_ != nullptr) {
    sink_->set_now(rt.now());
    sink_->set_iteration(next_step + count - 1);
  }
  retire();
  return count;
}

}  // namespace repro::harness
