#include "repro/harness/checkpoint.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>

#include "repro/common/hash.hpp"
#include "repro/tracefmt/reader.hpp"

namespace repro::harness {

namespace {

void mix_string(StateHash& h, const std::string& s) {
  h.mix(s.size());
  for (const char c : s) {
    h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
}

constexpr std::uint64_t kFormatVersion = 5;

/// Stands in for the content digest of a trace that cannot be opened,
/// so identities never throw; such a cell fails in run_benchmark.
constexpr std::uint64_t kUnreadableTrace = 0x7472616365455252ull;

std::uint64_t trace_content_digest(const std::string& path) {
  try {
    return tracefmt::TraceReader(path).content_digest();
  } catch (const tracefmt::TraceError&) {
    return kUnreadableTrace;
  }
}

std::string join(const std::vector<Ns>& values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : " ") << values[i];
  }
  return os.str();
}

// --- decode_result's parsing: string_views over the body, no copies --

/// The keys decode_result reads, in encode_result's order.
enum Key : std::uint8_t {
  kVersion,
  kIdentity,
  kLabel,
  kBenchmark,
  kTotal,
  kIterationTimes,
  kIterationsSimulated,
  kIterationsReplayed,
  kFaultRate,
  kTraceDigest,
  kMem,
  kKernel,
  kDaemon,
  kUpm,
  kUpmPerInvocation,
  kFault,
  kCoherence,
  kMetricIteration,
  kMetricMigrations,
  kMetricQueueP95,
  kMetricFaults,
  kNumKeys,
};

constexpr std::array<std::string_view, kNumKeys> kKeyNames = {
    "version",
    "identity",
    "label",
    "benchmark",
    "total",
    "iteration_times",
    "iterations_simulated",
    "iterations_replayed",
    "fault_rate",
    "trace_digest",
    "mem",
    "kernel",
    "daemon",
    "upm",
    "upm_migrations_per_invocation",
    "fault",
    "coherence",
    "metric_iteration",
    "metric_migrations",
    "metric_queue_p95",
    "metric_faults",
};

/// Calls `f` with each space-separated decimal u64 of `s`. False on a
/// token from_chars does not consume whole: a sign, any other
/// character, or a value past 2^64 - 1.
template <class F>
bool for_each_u64(std::string_view s, F&& f) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (true) {
    while (p != end && *p == ' ') {
      ++p;
    }
    if (p == end) {
      return true;
    }
    std::uint64_t v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{} || (next != end && *next != ' ')) {
      return false;
    }
    f(v);
    p = next;
  }
}

/// Space-separated tokens in `s`: sizes a column before it is parsed,
/// so decoded results hold no spare capacity.
std::size_t count_tokens(std::string_view s) {
  std::size_t n = 0;
  char prev = ' ';
  for (const char c : s) {
    n += static_cast<std::size_t>(prev == ' ' && c != ' ');
    prev = c;
  }
  return n;
}

bool parse_u64s(std::string_view s, std::vector<std::uint64_t>* out) {
  out->clear();
  out->reserve(count_tokens(s));
  return for_each_u64(s, [out](std::uint64_t v) { out->push_back(v); });
}

/// Exactly out.size() numbers.
bool parse_fixed(std::string_view s, std::span<std::uint64_t> out) {
  std::size_t n = 0;
  return for_each_u64(s,
                      [&](std::uint64_t v) {
                        if (n < out.size()) {
                          out[n] = v;
                        }
                        ++n;
                      }) &&
         n == out.size();
}

/// The whole of `s` as one double. Subnormal values are refused:
/// strtod-based readers report them as ERANGE, so a body holding one
/// was never readable and must not become readable.
bool parse_double(std::string_view s, double* out) {
  double v = 0.0;
  const auto [next, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || next != s.data() + s.size() ||
      std::fpclassify(v) == FP_SUBNORMAL) {
    return false;
  }
  *out = v;
  return true;
}

/// True when `s` is exactly the decimal text of `v`.
bool is_decimal(std::string_view s, std::uint64_t v) {
  std::array<char, 24> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return ec == std::errc{} &&
         s == std::string_view(buf.data(), static_cast<std::size_t>(
                                               end - buf.data()));
}

}  // namespace

std::uint64_t config_identity(const RunConfig& config) {
  StateHash h(0x9e3779b97f4a7c15ull + kFormatVersion);
  h.mix(kModelVersion);
  mix_string(h, config.benchmark);
  mix_string(h, config.placement);
  h.mix(config.kernel_migration ? 1 : 0);
  h.mix(static_cast<std::uint64_t>(config.upm_mode));
  h.mix(config.iterations);
  h.mix(config.compute_scale);
  h.mix(config.seed);
  h.mix(config.analyze ? 1 : 0);
  h.mix(config.trace ? 1 : 0);
  // A replay substitutes the workload, so replayed cells must never
  // alias their direct twins in the result store. A replay computes
  // what its trace holds, so the trace's content is mixed too: a
  // different trace re-dumped to the same path is a new cell.
  mix_string(h, config.replay);
  if (!config.replay.empty()) {
    h.mix(trace_content_digest(config.replay));
  }
  // The coherence model changes every hit/miss classification, so a
  // coherence cell must never alias its page-grain twin or a cell with
  // another cache geometry.
  mix_string(h, config.coherence);
  const coherence::CoherenceConfig& c = config.coherence_config;
  h.mix(static_cast<std::uint64_t>(c.policy));
  h.mix(c.line_size);
  h.mix(c.sets);
  h.mix(c.ways);
  h.mix_double(c.upgrade_ns);
  h.mix_double(c.intervention_ns);

  const memsys::MachineConfig& m = config.machine;
  h.mix(m.num_nodes);
  h.mix(m.procs_per_node);
  mix_string(h, m.topology);
  h.mix(m.page_size);
  h.mix(m.cache_line);
  h.mix(m.l2_size);
  h.mix(m.frames_per_node);
  h.mix_double(m.l1_latency_ns);
  h.mix_double(m.l2_latency_ns);
  h.mix(m.mem_latency_ns.size());
  for (const double lat : m.mem_latency_ns) {
    h.mix_double(lat);
  }
  h.mix_double(m.extra_hop_latency_ns);
  h.mix_double(m.cache_hit_ns);
  h.mix_double(m.mem_occupancy_ns);
  h.mix_double(m.stream_hide_factor);
  h.mix_double(m.invalidation_ns);
  h.mix_double(m.page_copy_ns);
  h.mix_double(m.tlb_local_flush_ns);
  h.mix_double(m.tlb_shootdown_ns);
  h.mix(m.tlb_entries);
  h.mix_double(m.tlb_refill_ns);
  h.mix(m.counter_bits);

  const os::DaemonConfig& d = config.daemon;
  h.mix(d.threshold);
  h.mix(d.window_ns);
  h.mix(d.page_cooloff_ns);
  h.mix(d.max_migrations_per_page);
  h.mix(d.global_min_interval_ns);

  const upm::UpmConfig& u = config.upm;
  h.mix_double(u.threshold);
  h.mix(u.max_critical_pages);
  h.mix(u.freeze_bouncing_pages ? 1 : 0);
  h.mix(u.enable_replication ? 1 : 0);
  h.mix(u.replication_min_nodes);
  h.mix(u.replication_min_count);
  h.mix(u.max_replicas);
  h.mix(u.busy_retry_limit);
  h.mix(u.busy_backoff_ns);
  h.mix(u.give_up_freeze_limit);
  h.mix(u.hysteresis_passes);

  const nas::WorkloadParams& w = config.workload;
  h.mix(w.iterations);
  h.mix(w.compute_scale);
  h.mix_double(w.serial_init_fraction);
  h.mix_double(w.size_scale);

  // Hash the plan run_benchmark will actually use: REPRO_FAULT_*
  // overrides must miss results stored without them.
  const fault::FaultPlan f = fault::FaultPlan::from_env(config.fault);
  h.mix(f.seed);
  h.mix_double(f.counter_rate);
  h.mix_double(f.migration_busy_rate);
  h.mix_double(f.slowdown_rate);
  h.mix_double(f.preemption_rate);
  h.mix(f.counter_scale_percent);
  h.mix(f.busy_pin_attempts);
  h.mix(f.slowdown_ns);
  h.mix(f.spike_lines);
  h.mix(f.preemption_ns);
  h.mix(f.active_from_iteration);
  h.mix(f.active_until_iteration);
  return h.value();
}

std::string encode_result(std::uint64_t identity, const RunResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "version=" << kFormatVersion << "\n";
  os << "identity=" << identity << "\n";
  os << "label=" << result.label << "\n";
  os << "benchmark=" << result.benchmark << "\n";
  os << "total=" << result.total << "\n";
  os << "iteration_times=" << join(result.iteration_times) << "\n";
  os << "iterations_simulated=" << result.iterations_simulated << "\n";
  os << "iterations_replayed=" << result.iterations_replayed << "\n";
  os << "fault_rate=" << result.fault_rate << "\n";
  os << "trace_digest=" << result.trace_digest << "\n";

  const memsys::ProcStats& mem = result.memory_totals;
  os << "mem=" << mem.hit_lines << ' ' << mem.local_miss_lines << ' '
     << mem.remote_miss_lines << ' ' << mem.queue_wait << ' '
     << mem.invalidations_sent << ' ' << mem.tlb_misses << "\n";
  const os::KernelStats& k = result.kernel_stats;
  os << "kernel=" << k.page_faults << ' ' << k.migrations << ' '
     << k.rejected_migrations << ' ' << k.busy_migrations << ' '
     << k.redirected_migrations << ' ' << k.migration_cost << ' '
     << k.replications << ' ' << k.replica_collapses << "\n";
  const os::DaemonStats& d = result.daemon_stats;
  os << "daemon=" << d.interrupts << ' ' << d.migrations << ' '
     << d.window_resets << ' ' << d.suppressed_cooloff << ' '
     << d.suppressed_frozen << ' ' << d.suppressed_global << ' '
     << d.deferred_busy << ' ' << d.cost << "\n";
  const upm::UpmStats& u = result.upm_stats;
  os << "upm=" << u.distribution_migrations << ' ' << u.replications << ' '
     << u.replication_cost << ' ' << u.replay_migrations << ' '
     << u.undo_migrations << ' ' << u.frozen_pages << ' ' << u.busy_retries
     << ' ' << u.give_ups << ' ' << u.hysteresis_deferrals << ' '
     << u.distribution_cost << ' ' << u.recrep_cost << "\n";
  os << "upm_migrations_per_invocation=" << join(u.migrations_per_invocation)
     << "\n";
  const fault::FaultStats& f = result.fault_stats;
  os << "fault=" << f.counter_corruptions << ' ' << f.busy_rejections << ' '
     << f.slowdowns << ' ' << f.preemptions << ' ' << f.spike_lines << ' '
     << f.slowdown_ns_total << ' ' << f.preemption_ns_total << "\n";
  const coherence::CoherenceStats& c = result.coherence_totals;
  os << "coherence=" << (result.coherence_enabled ? 1 : 0) << ' '
     << c.hit_lines << ' ' << c.cold_miss_lines << ' '
     << c.capacity_miss_lines << ' ' << c.coherence_miss_lines << ' '
     << c.upgrades << ' ' << c.invalidations_sent << ' '
     << c.invalidations_received << ' ' << c.writebacks << ' '
     << c.dirty_fetches << "\n";

  // Per-iteration trace metrics: one line of columns per metric the
  // JSON writer serializes (iteration index, migrations, queue p95,
  // injected faults).
  os << "metric_iteration=";
  for (std::size_t i = 0; i < result.iteration_metrics.size(); ++i) {
    os << (i == 0 ? "" : " ") << result.iteration_metrics[i].iteration;
  }
  os << "\nmetric_migrations=";
  for (std::size_t i = 0; i < result.iteration_metrics.size(); ++i) {
    os << (i == 0 ? "" : " ") << result.iteration_metrics[i].migrations;
  }
  os << "\nmetric_queue_p95=";
  for (std::size_t i = 0; i < result.iteration_metrics.size(); ++i) {
    os << (i == 0 ? "" : " ") << result.iteration_metrics[i].queue_backlog_p95;
  }
  os << "\nmetric_faults=";
  for (std::size_t i = 0; i < result.iteration_metrics.size(); ++i) {
    os << (i == 0 ? "" : " ") << result.iteration_metrics[i].faults_injected;
  }
  os << "\n";
  return os.str();
}

bool decode_result(const std::string& text, std::uint64_t expected_identity,
                   RunResult* out) {
  // One pass splits the body into key=value lines; each known key keeps
  // a view of its last value (unknown keys are ignored).
  std::array<std::optional<std::string_view>, kNumKeys> values;
  const std::string_view body = text;
  for (std::size_t pos = 0; pos < body.size();) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = body.size();
    }
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return false;
    }
    const std::string_view key = line.substr(0, eq);
    for (std::size_t k = 0; k < kNumKeys; ++k) {
      if (key == kKeyNames[k]) {
        values[k] = line.substr(eq + 1);
        break;
      }
    }
  }
  for (const std::optional<std::string_view>& v : values) {
    if (!v.has_value()) {
      return false;
    }
  }
  const auto value = [&values](Key key) { return *values[key]; };
  if (!is_decimal(value(kVersion), kFormatVersion) ||
      !is_decimal(value(kIdentity), expected_identity)) {
    return false;
  }

  RunResult r;
  r.label = value(kLabel);
  r.benchmark = value(kBenchmark);
  r.trace_digest = value(kTraceDigest);
  std::uint64_t one = 0;
  std::array<std::uint64_t, 11> v{};
  const auto fixed = [&v](std::string_view s, std::size_t n) {
    return parse_fixed(s, std::span(v).first(n));
  };
  if (!parse_fixed(value(kTotal), {&one, 1})) {
    return false;
  }
  r.total = one;
  if (!parse_u64s(value(kIterationTimes), &r.iteration_times) ||
      !parse_fixed(value(kIterationsSimulated), {&one, 1})) {
    return false;
  }
  r.iterations_simulated = static_cast<std::uint32_t>(one);
  if (!parse_fixed(value(kIterationsReplayed), {&one, 1})) {
    return false;
  }
  r.iterations_replayed = static_cast<std::uint32_t>(one);
  if (!parse_double(value(kFaultRate), &r.fault_rate)) {
    return false;
  }

  if (!fixed(value(kMem), 6)) {
    return false;
  }
  r.memory_totals = {v[0], v[1], v[2], v[3], v[4], v[5]};
  if (!fixed(value(kKernel), 8)) {
    return false;
  }
  r.kernel_stats = {v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]};
  if (!fixed(value(kDaemon), 8)) {
    return false;
  }
  r.daemon_stats = {v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]};
  if (!fixed(value(kUpm), 11)) {
    return false;
  }
  r.upm_stats.distribution_migrations = v[0];
  r.upm_stats.replications = v[1];
  r.upm_stats.replication_cost = v[2];
  r.upm_stats.replay_migrations = v[3];
  r.upm_stats.undo_migrations = v[4];
  r.upm_stats.frozen_pages = v[5];
  r.upm_stats.busy_retries = v[6];
  r.upm_stats.give_ups = v[7];
  r.upm_stats.hysteresis_deferrals = v[8];
  r.upm_stats.distribution_cost = v[9];
  r.upm_stats.recrep_cost = v[10];
  if (!parse_u64s(value(kUpmPerInvocation),
                  &r.upm_stats.migrations_per_invocation)) {
    return false;
  }
  if (!fixed(value(kFault), 7)) {
    return false;
  }
  r.fault_stats = {v[0], v[1], v[2], v[3], v[4], v[5], v[6]};
  if (!fixed(value(kCoherence), 10)) {
    return false;
  }
  r.coherence_enabled = v[0] != 0;
  r.coherence_totals = {v[1], v[2], v[3], v[4], v[5],
                        v[6], v[7], v[8], v[9]};

  // Per-iteration metric columns: the iteration column sizes the rows,
  // every other column must fill exactly those rows.
  std::vector<trace::IterationMetrics>& rows = r.iteration_metrics;
  rows.reserve(count_tokens(value(kMetricIteration)));
  if (!for_each_u64(value(kMetricIteration), [&rows](std::uint64_t x) {
        rows.emplace_back().iteration = static_cast<std::uint32_t>(x);
      })) {
    return false;
  }
  const auto column = [&rows](std::string_view s, auto field) {
    std::size_t i = 0;
    return for_each_u64(s,
                        [&](std::uint64_t x) {
                          if (i < rows.size()) {
                            rows[i].*field = x;
                          }
                          ++i;
                        }) &&
           i == rows.size();
  };
  if (!column(value(kMetricMigrations), &trace::IterationMetrics::migrations) ||
      !column(value(kMetricQueueP95),
              &trace::IterationMetrics::queue_backlog_p95) ||
      !column(value(kMetricFaults),
              &trace::IterationMetrics::faults_injected)) {
    return false;
  }

  *out = std::move(r);
  return true;
}

}  // namespace repro::harness
