#include "repro/trace/metrics.hpp"

#include <algorithm>
#include <map>

namespace repro::trace {

double IterationMetrics::remote_ratio() const {
  const std::uint64_t total = remote_miss_lines + local_miss_lines;
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(remote_miss_lines) /
         static_cast<double>(total);
}

Ns percentile95(std::vector<Ns> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest-rank: ceil(0.95 * n), 1-based.
  const std::size_t rank = (samples.size() * 95 + 99) / 100;
  return samples[rank - 1];
}

MetricsRegistry::MetricsRegistry(const TraceSink& sink) {
  struct Bucket {
    IterationMetrics metrics;
    std::vector<Ns> samples;  ///< queue backlogs, for the p95
  };
  std::map<std::uint32_t, Bucket> buckets;
  std::vector<Ns> all_samples;

  // Every row is a sum per iteration plus a p95 over a sorted copy of
  // the samples, so no field depends on event order: each lane is
  // walked in place instead of copying and sorting the whole trace
  // into canonical order. Consecutive events of a lane nearly always
  // share an iteration, so the bucket lookup is redone only when the
  // iteration changes.
  for (std::uint16_t lane = 0; lane < sink.num_lanes(); ++lane) {
    Bucket* bucket = nullptr;
    for (const TraceEvent& e : sink.lane_events(lane)) {
      if (bucket == nullptr || bucket->metrics.iteration != e.iteration) {
        bucket = &buckets[e.iteration];
        bucket->metrics.iteration = e.iteration;
      }
      IterationMetrics& m = bucket->metrics;
      switch (e.kind) {
        case EventKind::kPageMigration:
          ++m.migrations;
          m.migration_cost += e.cost;
          break;
        case EventKind::kUpmCall:
          m.upm_migrations += e.b;
          break;
        case EventKind::kDaemonScan:
          if (e.a == static_cast<std::uint64_t>(DaemonDecision::kMigrated)) {
            ++m.daemon_migrations;
          }
          break;
        case EventKind::kPageReplication:
          ++m.replications;
          break;
        case EventKind::kPageFreeze:
          ++m.freezes;
          break;
        case EventKind::kBarrierWait:
          m.barrier_wait += e.a;
          break;
        case EventKind::kQueueSample:
          bucket->samples.push_back(e.a);
          all_samples.push_back(e.a);
          break;
        case EventKind::kIterationEnd:
          m.remote_miss_lines += e.a;
          m.local_miss_lines += e.b;
          break;
        case EventKind::kFaultInjection:
          ++m.faults_injected;
          break;
        case EventKind::kLineFill:
          m.line_fills += e.a;
          // Payload b packs the fill classification in 16-bit fields:
          // cold | capacity<<16 | coherence<<32 | dirty-fetches<<48.
          m.coherence_misses += (e.b >> 32) & 0xffffu;
          break;
        case EventKind::kLineInvalidate:
          m.line_invalidations += e.b;
          break;
        case EventKind::kLineUpgrade:
          m.line_upgrades += e.a;
          break;
        case EventKind::kLineWriteback:
          m.line_writebacks += e.a;
          break;
        default:
          break;
      }
    }
  }

  rows_.reserve(buckets.size());
  for (auto& [iteration, bucket] : buckets) {
    IterationMetrics& m = bucket.metrics;
    m.queue_backlog_p95 = percentile95(std::move(bucket.samples));
    rows_.push_back(m);

    totals_.migrations += m.migrations;
    totals_.upm_migrations += m.upm_migrations;
    totals_.daemon_migrations += m.daemon_migrations;
    totals_.replications += m.replications;
    totals_.freezes += m.freezes;
    totals_.migration_cost += m.migration_cost;
    totals_.barrier_wait += m.barrier_wait;
    totals_.remote_miss_lines += m.remote_miss_lines;
    totals_.local_miss_lines += m.local_miss_lines;
    totals_.faults_injected += m.faults_injected;
    totals_.line_fills += m.line_fills;
    totals_.coherence_misses += m.coherence_misses;
    totals_.line_invalidations += m.line_invalidations;
    totals_.line_upgrades += m.line_upgrades;
    totals_.line_writebacks += m.line_writebacks;
  }
  totals_.queue_backlog_p95 = percentile95(std::move(all_samples));
}

std::vector<std::uint64_t> MetricsRegistry::migrations_per_timed_iteration()
    const {
  std::vector<std::uint64_t> out;
  for (const IterationMetrics& m : rows_) {
    if (m.iteration >= 1) {
      out.push_back(m.migrations);
    }
  }
  return out;
}

}  // namespace repro::trace
