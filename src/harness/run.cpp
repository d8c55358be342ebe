#include "repro/harness/run.hpp"

#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>

#include "repro/analysis/session.hpp"
#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/common/log.hpp"
#include "repro/harness/atomic_file.hpp"
#include "repro/harness/fast_forward.hpp"
#include "repro/nas/trace_workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/sim/trace_recorder.hpp"
#include "repro/trace/export.hpp"

namespace repro::harness {

namespace {

/// Assembles the RTRC metadata of a dump: machine geometry, the
/// address-space layout after workload setup, and the hot ranges the
/// workload would register with UPMlib.
tracefmt::TraceMeta dump_meta(omp::Machine& machine, const RunConfig& config,
                              const std::string& benchmark,
                              std::uint32_t iterations,
                              const std::vector<vm::PageRange>& hot_ranges) {
  tracefmt::TraceMeta meta;
  meta.benchmark = benchmark;
  meta.source_label = config.label();
  meta.num_procs = static_cast<std::uint32_t>(machine.config().num_procs());
  meta.num_threads =
      static_cast<std::uint32_t>(machine.runtime().num_threads());
  meta.iterations = iterations;
  meta.page_size = machine.config().page_size;
  for (const auto& [name, range] : machine.address_space().arrays()) {
    meta.allocations.push_back(
        tracefmt::TraceAllocation{name, range.first.value(), range.count});
  }
  for (const vm::PageRange& r : hot_ranges) {
    meta.hot_ranges.push_back(tracefmt::TraceRange{r.first.value(), r.count});
  }
  return meta;
}

/// The hot ranges `workload` registers, observed without touching the
/// machine: a throwaway UPMlib instance (no trace sink, no call trace)
/// only accumulates the ranges.
std::vector<vm::PageRange> probe_hot_ranges(omp::Machine& machine,
                                            const nas::Workload& workload,
                                            const upm::UpmConfig& config) {
  upm::Upmlib probe(machine.mmci(), machine.runtime(), config);
  workload.register_hot(probe);
  return probe.hot_ranges();
}

void check_frontend_config(const RunConfig& config) {
  REPRO_REQUIRE_MSG(config.trace_out.empty() || config.replay.empty(),
                    "trace_out and replay are mutually exclusive");
  REPRO_REQUIRE_MSG(!config.pipeline,
                    "pipelined replay is not supported; replay decodes "
                    "serially");
  REPRO_REQUIRE_MSG((config.trace_out.empty() && config.replay.empty()) ||
                        config.upm_mode != nas::UpmMode::kRecordReplay,
                    "record-replay cells drive UPMlib from inside "
                    "iterations and cannot be dumped or replayed");
}

}  // namespace

std::string RunConfig::label() const {
  // Plain runs use IRIX's default first-touch kernel with *no* special
  // engine, so they are "base"; "IRIXmig" is reserved for the actual
  // kernel migration daemon.
  std::string engine = "base";
  if (upm_mode == nas::UpmMode::kDistribution) {
    engine = "upmlib";
  } else if (upm_mode == nas::UpmMode::kRecordReplay) {
    engine = "recrep";
  } else if (kernel_migration) {
    engine = "IRIXmig";
  }
  std::string name = placement + "-" + engine;
  if (!coherence.empty()) {
    // Coherence cells get their own label family ("ft-base-msi") so
    // sweep rows, trace dumps and golden digests never collide with
    // the page-grain baseline.
    name += "-" + coherence;
  }
  return name;
}

Ns RunResult::mean_iteration_last(double fraction) const {
  REPRO_REQUIRE(fraction > 0.0 && fraction <= 1.0);
  if (iteration_times.empty()) {
    return 0;
  }
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(iteration_times.size()) * fraction));
  const std::size_t first = iteration_times.size() - count;
  Ns sum = 0;
  for (std::size_t i = first; i < iteration_times.size(); ++i) {
    sum += iteration_times[i];
  }
  return sum / count;
}

Ns RunResult::phase_time(const std::string& suffix) const {
  Ns total_time = 0;
  for (const omp::RegionRecord& r : records) {
    if (r.name.size() >= suffix.size() &&
        r.name.compare(r.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total_time += r.duration();
    }
  }
  return total_time;
}

RunResult run_benchmark(const RunConfig& config) {
  REPRO_REQUIRE(config.upm_mode == nas::UpmMode::kOff ||
                !config.kernel_migration);
  check_frontend_config(config);
  if (!config.trace_out.empty()) {
    // The dump is a dry run of the same configuration: the recorded
    // stream does not depend on simulated state, so the run below stays
    // free to fast-forward.
    dump_trace(config, config.trace_out);
  }
  const bool analyze =
      config.analyze || Env::global().get_bool("REPRO_ANALYZE", false);
  std::string trace_dir = config.trace_dir;
  if (trace_dir.empty()) {
    trace_dir = Env::global().get_string("REPRO_TRACE", "");
  }
  const bool tracing = config.trace || !trace_dir.empty();

  auto machine = omp::Machine::create(config.machine);
  machine->set_placement(config.placement, config.seed);
  coherence::CoherenceModel* coh = nullptr;
  if (!config.coherence.empty()) {
    const auto policy = coherence::parse_policy(config.coherence);
    REPRO_REQUIRE_MSG(policy.has_value(),
                      "unknown coherence policy (want \"msi\" or \"mesi\")");
    coherence::CoherenceConfig cc = config.coherence_config;
    cc.policy = *policy;
    // Before enable_tracing, so the "coherence" lane lands in the
    // canonical slot between "upmlib" and "daemon"/"harness".
    coh = &machine->enable_coherence(cc);
  }
  trace::TraceSink* sink = nullptr;
  std::uint16_t harness_lane = 0;
  if (tracing) {
    // Before enable_kernel_daemon, so the lane order (and with it the
    // canonical dump) is the same for every run of one configuration.
    sink = &machine->enable_tracing();
    harness_lane = sink->register_lane("harness");
  }
  if (config.kernel_migration) {
    machine->enable_kernel_daemon(config.daemon);
  }
  // REPRO_FAULT_* environment overrides land on top of the config's
  // plan, like REPRO_ANALYZE / REPRO_TRACE above.
  const fault::FaultPlan fault_plan = fault::FaultPlan::from_env(config.fault);
  fault::FaultInjector* injector = nullptr;
  if (!fault_plan.empty()) {
    // After the daemon, so the "fault" lane lands after "daemon" and
    // fault-free configurations keep their exact lane layout.
    injector = &machine->enable_fault_injection(fault_plan);
  }

  std::unique_ptr<nas::Workload> workload;
  if (!config.replay.empty()) {
    workload = nas::make_trace_workload(config.replay);
  } else {
    nas::WorkloadParams wparams = config.workload;
    wparams.compute_scale = config.compute_scale;
    workload = nas::make_workload(config.benchmark, wparams);
  }
  // Under replay, the benchmark name comes from the trace metadata
  // (config.benchmark is ignored); everywhere else they coincide.
  const std::string benchmark = workload->name();
  workload->setup(*machine);
  const std::uint32_t iterations = config.iterations != 0
                                       ? config.iterations
                                       : workload->default_iterations();

  std::unique_ptr<upm::Upmlib> upmlib;
  nas::IterationContext ctx;
  ctx.mode = config.upm_mode;
  if (config.upm_mode != nas::UpmMode::kOff) {
    REPRO_REQUIRE_MSG(config.upm_mode != nas::UpmMode::kRecordReplay ||
                          workload->supports_record_replay(),
                      "benchmark has no record-replay instrumentation");
    upmlib = std::make_unique<upm::Upmlib>(machine->mmci(),
                                           machine->runtime(), config.upm);
    if (sink != nullptr) {
      upmlib->set_trace(sink, machine->upm_trace_lane());
    }
    if (analyze) {
      // Trace from before register_hot so the protocol checker sees the
      // memrefcnt() registrations.
      upmlib->enable_call_trace();
    }
    workload->register_hot(*upmlib);
    ctx.upm = upmlib.get();
  }

  // Cold-start iteration: establishes first-touch placement; results
  // and statistics are discarded.
  workload->cold_start(*machine);
  if (upmlib != nullptr) {
    upmlib->reset_hot_counters();
  }
  machine->memory().reset_stats();
  machine->runtime().clear_records();
  if (sink != nullptr) {
    // The trace covers the timed iterations only, like every other
    // statistic (cold-start placement noise would swamp it).
    sink->clear();
  }

  // Analyze the timed phases only: by now first-touch placement is
  // established, so the locality lint judges the placement the timed
  // iterations actually run under.
  std::unique_ptr<analysis::AnalysisSession> session;
  if (analyze) {
    session = std::make_unique<analysis::AnalysisSession>(*machine);
    if (upmlib != nullptr) {
      session->attach_upm(*upmlib);
    }
  }

  RunResult result;
  result.label = config.label();
  result.benchmark = benchmark;
  result.iteration_times.reserve(iterations);

  // Steady-state fast-forward: on unless opted out, and off under the
  // analyzer (it inspects every *executed* region, so synthesized
  // iterations would change its input). A trace replay fast-forwards
  // when its workload can seek past the synthesized iterations: an
  // indexed trace.
  std::string no_fast_forward;  // why, when the watcher is off
  if (config.no_fast_forward ||
      !Env::global().get_bool("REPRO_FAST_FORWARD", true)) {
    no_fast_forward = "opted out";
  } else if (analyze) {
    no_fast_forward = "the analyzer inspects every executed region";
  } else {
    no_fast_forward = workload->fast_forward_blocker();
  }
  std::unique_ptr<FastForward> ff;
  if (no_fast_forward.empty()) {
    ff = std::make_unique<FastForward>(*machine, upmlib.get(), sink);
  }

  omp::Runtime& rt = machine->runtime();
  const Ns t0 = rt.now();
  std::uint64_t seen_remote_lines = 0;
  std::uint64_t seen_local_lines = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::uint32_t step = 1; step <= iterations; ++step) {
    if (config.cell_timeout_ms != 0) {
      // Cooperative watchdog: host wall-clock, checked only at outer
      // iteration boundaries so an aborted cell never leaves torn
      // simulation state (and the check never perturbs simulated time).
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - wall_start)
              .count();
      if (elapsed >= static_cast<std::int64_t>(config.cell_timeout_ms)) {
        throw CellTimeoutError(benchmark + " " + config.label() +
                               ": exceeded cell timeout of " +
                               std::to_string(config.cell_timeout_ms) +
                               " ms at iteration " + std::to_string(step));
      }
    }
    if (injector != nullptr) {
      injector->set_iteration(step);
    }
    if (ff != nullptr) {
      ff->probe();
      if (ff->ready()) {
        // Synthesize only the iterations the workload proves repeat
        // the probed block; the first that differs is simulated.
        const std::uint32_t remaining = iterations - step + 1;
        const std::uint32_t proven =
            workload->repeating_iterations(step, ff->period(), remaining);
        if (proven < remaining) {
          REPRO_LOG_INFO(benchmark, " ", result.label, ": iteration ",
                         step + proven,
                         " differs from the steady state, fast-forward "
                         "stops before it");
        }
        result.iterations_replayed =
            ff->replay(step, step - 1 + proven, result.iteration_times);
        workload->skip_iterations(step, result.iterations_replayed);
        step += result.iterations_replayed;
        if (step > iterations) {
          break;
        }
        // A steady state with period > 1 replays whole blocks only;
        // the (< period) leftover iterations are simulated for real
        // from the time-shifted steady state. Resync the baselines the
        // iteration-end events difference against, since the replay
        // advanced the cumulative counters underneath them.
        const memsys::ProcStats totals = machine->memory().total_stats();
        seen_remote_lines = totals.remote_miss_lines;
        seen_local_lines = totals.local_miss_lines;
      }
    }
    ++result.iterations_simulated;
    const Ns iter_start = rt.now();
    if (sink != nullptr) {
      sink->set_iteration(step);
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kIterationBegin;
      ev.time = iter_start;
      sink->emit(harness_lane, ev);
    }
    workload->iteration(*machine, ctx, step);
    if (config.upm_mode == nas::UpmMode::kDistribution &&
        (step == 1 || upmlib->active())) {
      // Paper Fig. 2: invoke the engine after the first iteration and
      // keep invoking it while it is still active. Equivalent to the
      // classic "while the last pass migrated" loop in fault-free runs
      // (a zero-migration pass deactivates the engine in the same
      // step), but under faults a pass can defer candidates without
      // migrating -- activity, not migration count, is the signal.
      upmlib->migrate_memory();
      if (ff != nullptr) {
        ff->note_migration_pass();
      }
    }
    if (sink != nullptr) {
      const memsys::ProcStats totals = machine->memory().total_stats();
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kIterationEnd;
      ev.time = rt.now();
      ev.a = totals.remote_miss_lines - seen_remote_lines;
      ev.b = totals.local_miss_lines - seen_local_lines;
      seen_remote_lines = totals.remote_miss_lines;
      seen_local_lines = totals.local_miss_lines;
      sink->emit(harness_lane, ev);
    }
    result.iteration_times.push_back(rt.now() - iter_start);
  }
  result.total = rt.now() - t0;
  if (result.iterations_replayed > 0) {
    REPRO_LOG_INFO(benchmark, " ", result.label,
                   ": steady state after ", result.iterations_simulated,
                   " iterations, replayed ", result.iterations_replayed);
  } else {
    REPRO_LOG_INFO(benchmark, " ", result.label, ": no fast-forward: ",
                   ff != nullptr ? ff->decline_reason() : no_fast_forward);
  }
  result.records = rt.records();
  if (upmlib != nullptr) {
    result.upm_stats = upmlib->stats();
  }
  result.kernel_stats = machine->kernel().stats();
  if (machine->kernel().daemon() != nullptr) {
    result.daemon_stats = machine->kernel().daemon()->stats();
  }
  result.memory_totals = machine->memory().total_stats();
  if (coh != nullptr) {
    result.coherence_totals = coh->total_stats();
    result.coherence_enabled = true;
  }
  if (injector != nullptr) {
    result.fault_stats = injector->stats();
    result.fault_rate = fault_plan.max_rate();
  }
  if (session != nullptr) {
    session->finish();
    result.diagnostics = session->sink().diagnostics();
    // Canonical order: the rendered findings are byte-identical across
    // --jobs counts and reruns whatever order the passes emitted in.
    analysis::canonical_sort(result.diagnostics);
    // Through the leveled logger (one atomic line per finding) rather
    // than std::cout: concurrent scheduler cells must not interleave
    // mid-table. Callers wanting the ASCII table render it from
    // RunResult::diagnostics (placement_explorer --analyze does).
    for (const analysis::Diagnostic& d : result.diagnostics) {
      const LogLevel level =
          d.severity == analysis::Severity::kError     ? LogLevel::kError
          : d.severity == analysis::Severity::kWarning ? LogLevel::kWarn
                                                       : LogLevel::kInfo;
      const std::string loc = d.location();
      REPRO_LOG(level, "analysis ", benchmark, " ", result.label,
                " ", d.rule, " [", d.region, loc.empty() ? "" : ", ", loc,
                "]: ", d.message);
    }
  }
  if (sink != nullptr) {
    result.trace_digest = trace::digest(*sink);
    result.iteration_metrics =
        trace::MetricsRegistry(*sink).per_iteration();
    if (!trace_dir.empty()) {
      const std::string stem =
          trace_dir + "/TRACE_" + benchmark + "_" + result.label;
      // Render in memory, land atomically: a killed run leaves either
      // no dump or a complete one, never a truncated file.
      atomic_write_file(stem + ".trace", trace::canonical_dump(*sink));
      std::ostringstream chrome;
      trace::write_chrome_trace(chrome, *sink);
      atomic_write_file(stem + ".chrome.json", chrome.str());
      REPRO_LOG_INFO("trace ", benchmark, " ", result.label,
                     " digest ", result.trace_digest, " -> ", stem,
                     ".{trace,chrome.json}");
    }
    result.trace = machine->take_trace_sink();
  }
  REPRO_LOG_INFO(benchmark, " ", result.label, ": ",
                 ns_to_seconds(result.total), " s, remote fraction ",
                 result.memory_totals.remote_fraction());
  return result;
}

TraceDumpStats dump_trace(const RunConfig& config, const std::string& path) {
  REPRO_REQUIRE_MSG(config.upm_mode != nas::UpmMode::kRecordReplay,
                    "record-replay cells drive UPMlib from inside "
                    "iterations and cannot be dumped or replayed");
  REPRO_REQUIRE_MSG(config.replay.empty(),
                    "dump_trace dumps a compiled workload, not a replay");
  auto machine = omp::Machine::create(config.machine);
  nas::WorkloadParams wparams = config.workload;
  wparams.compute_scale = config.compute_scale;
  const auto workload = nas::make_workload(config.benchmark, wparams);
  workload->setup(*machine);
  const std::uint32_t iterations = config.iterations != 0
                                       ? config.iterations
                                       : workload->default_iterations();
  sim::TraceRecorder recorder(
      path, dump_meta(*machine, config, workload->name(), iterations,
                      probe_hot_ranges(*machine, *workload, config.upm)));
  omp::Runtime& rt = machine->runtime();
  // Dry-run dispatch: the recorder observes the exact region/advance
  // stream a live run would execute -- the declarative workloads'
  // streams are pure functions of the workload parameters -- without
  // simulating a single access.
  rt.set_dry_run(true);
  rt.set_region_inspector([&recorder](const std::string& name,
                                      const sim::RegionProgram& program,
                                      std::span<const ProcId> binding) {
    recorder.on_region(name, program, binding);
  });
  rt.set_advance_observer([&recorder](Ns d) { recorder.on_advance(d); });
  recorder.begin_cold_start();
  workload->cold_start(*machine);
  // Mode kOff: no UPMlib calls. A replay runs the harness's migration
  // passes live, so the dump must not record them.
  const nas::IterationContext ctx;
  for (std::uint32_t step = 1; step <= iterations; ++step) {
    recorder.begin_iteration(step);
    workload->iteration(*machine, ctx, step);
  }
  rt.set_region_inspector({});
  rt.set_advance_observer({});
  const tracefmt::WriterStats ws = recorder.finish();
  REPRO_LOG_INFO("trace-dump ", config.benchmark, ": ", ws.regions,
                 " regions of ", ws.programs, " programs, ", ws.ops,
                 " ops, ", ws.chunks, " chunks -> ", path);
  TraceDumpStats stats;
  stats.records = ws.records;
  stats.ops = ws.ops;
  stats.regions = ws.regions;
  stats.programs = ws.programs;
  stats.chunks = ws.chunks;
  stats.bytes = ws.bytes;
  stats.iterations = iterations;
  return stats;
}

}  // namespace repro::harness
