#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr bool kLower = false;
constexpr bool kHigher = true;

}  // namespace

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      // End to end: host-side cost of the measured phase.
      {"wall_s", "s", kLower, Scope::kEndToEnd},
      {"cpu_s", "s", kLower, Scope::kEndToEnd},
      {"setup_s", "s", kLower, Scope::kEndToEnd},
      {"peak_rss_mb", "MB", kLower, Scope::kEndToEnd},
      // Report only: zero when correct, or defined on one workload.
      {"fail_ratio", "ratio", kLower, Scope::kReport},
      {"trace_mb", "MB", kLower, Scope::kReport},
      {"cold_s", "s", kLower, Scope::kReport},
      {"hit_p50_ms", "ms", kLower, Scope::kReport},
      {"hit_p99_ms", "ms", kLower, Scope::kReport},
      {"miss_p50_ms", "ms", kLower, Scope::kReport},
      {"hit_ratio", "ratio", kHigher, Scope::kReport},
      {"tracing_overhead_s", "s", kLower, Scope::kReport},
      // Per layer (traced run).
      {"harness.ff_probes", "count", kLower, Scope::kLayer},
      {"harness.ff_probe_ms", "ms", kLower, Scope::kLayer},
      {"harness.ff_replay_ms", "ms", kLower, Scope::kLayer},
      {"harness.ff_replayed_ratio", "ratio", kHigher, Scope::kLayer},
      {"omp.machine_ms", "ms", kLower, Scope::kLayer},
      {"nas.setup_ms", "ms", kLower, Scope::kLayer},
      {"nas.cold_start_ms", "ms", kLower, Scope::kLayer},
      {"nas.iteration_ms", "ms", kLower, Scope::kLayer},
      {"nas.iterations_simulated", "count", kLower, Scope::kLayer},
      {"sim.ops", "count", kLower, Scope::kLayer},
      {"sim.ns_per_op", "ns", kLower, Scope::kLayer},
      {"memsys.lines", "count", kLower, Scope::kLayer},
      {"memsys.remote_fraction", "ratio", kLower, Scope::kLayer},
      {"memsys.tlb_misses", "count", kLower, Scope::kLayer},
      {"memsys.ns_per_line", "ns", kLower, Scope::kLayer},
      {"os.daemon_interrupts", "count", kLower, Scope::kLayer},
      {"os.daemon_migrations", "count", kLower, Scope::kLayer},
      {"os.daemon_ms", "ms", kLower, Scope::kLayer},
      {"upmlib.migrate_calls", "count", kLower, Scope::kLayer},
      {"upmlib.migrate_ms", "ms", kLower, Scope::kLayer},
      {"upmlib.migrations", "count", kLower, Scope::kLayer},
      {"upmlib.recrep_migrations", "count", kLower, Scope::kLayer},
      {"tracefmt.dump_ms", "ms", kLower, Scope::kLayer},
      {"tracefmt.decode_mops", "Mops/s", kHigher, Scope::kLayer},
      {"tracefmt.bytes_per_op", "B", kLower, Scope::kLayer},
      {"tracefmt.replay_over_direct", "ratio", kLower, Scope::kLayer},
      {"coherence.lines", "count", kLower, Scope::kLayer},
      {"coherence.miss_lines", "count", kLower, Scope::kLayer},
      {"coherence.invalidations", "count", kLower, Scope::kLayer},
      {"coherence.upgrades", "count", kLower, Scope::kLayer},
      {"coherence.ns_per_line", "ns", kLower, Scope::kLayer},
      {"coherence.over_pagegrain", "ratio", kLower, Scope::kLayer},
      {"trace.events", "count", kLower, Scope::kLayer},
      {"service.cache_open_ms", "ms", kLower, Scope::kLayer},
      {"service.lookup_us", "us", kLower, Scope::kLayer},
      {"service.insert_ms", "ms", kLower, Scope::kLayer},
      {"service.identity_us", "us", kLower, Scope::kLayer},
      {"service.decode_result_us", "us", kLower, Scope::kLayer},
  };
  return defs;
}

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Percentile tail_percentile(std::vector<double> samples, double wanted) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) {
    return p;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double candidate : {wanted, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (candidate > wanted) {
      continue;
    }
    // Nearest rank: the smallest value with at least candidate% of the
    // samples at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(candidate / 100.0 * static_cast<double>(n)));
    const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
    if (n - (index + 1) >= 10) {
      p.percentile = candidate;
      p.value = samples[index];
      p.beyond = n - (index + 1);
      p.enough_beyond = true;
      return p;
    }
  }
  p.percentile = 50.0;
  p.value = median(samples);
  p.beyond = n / 2;
  return p;
}

std::string Percentile::describe() const {
  std::ostringstream os;
  os << 'p' << percentile << " of " << samples << " samples";
  if (!enough_beyond) {
    os << " (too few samples for a tail; median shown)";
  }
  return os.str();
}

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_outcome(std::ostream& os, const Outcome& outcome,
                   Scope result_scope) {
  for (const std::string& note : outcome.notes) {
    os << note << '\n';
  }
  for (const MetricDef& d : metric_defs()) {
    const auto it = outcome.values.find(std::string(d.name));
    if (it != outcome.values.end()) {
      os << "  " << d.name << " = " << format_number(it->second) << ' '
         << d.unit << '\n';
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (outcome.correct() ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : metric_defs()) {
    if (d.scope != result_scope) {
      continue;
    }
    const auto it = outcome.values.find(std::string(d.name));
    if (it == outcome.values.end() || !std::isfinite(it->second)) {
      throw std::runtime_error("metric " + std::string(d.name) +
                               " was not measured");
    }
    json << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
         << format_number(it->second) << ", \"unit\": \"" << d.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  os << json.str() << '\n';
}

}  // namespace perfbench
