#include "traced.hpp"

#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "cells.hpp"
#include "digest.hpp"
#include "repro/common/env.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/fast_forward.hpp"
#include "repro/nas/trace_workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/service/result_cache.hpp"
#include "repro/trace/export.hpp"
#include "repro/trace/metrics.hpp"
#include "repro/tracefmt/reader.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace harness = repro::harness;
using harness::RunResult;
using repro::Ns;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Tracing overhead bookkeeping: the traced driver's wall time against
/// run_benchmark's on the same cells.
struct Overhead {
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
};

/// Drives `cell` traced, checks it against run_benchmark and the
/// recorded digest of `key`, and attributes the layers that need a twin.
RunResult trace_cell(Outcome& out, const DigestBook& book,
                     const RunConfig& cell, const RunConfig& key,
                     LayerSums& sums, Overhead& overhead) {
  const DrivenCell driven = drive_cell(cell, sums);
  const auto t0 = Clock::now();
  const RunResult direct = harness::run_benchmark(cell);
  overhead.untraced_ms += ms_since(t0);
  overhead.traced_ms += driven.wall_ms;
  if (result_digest(driven.result) != result_digest(direct)) {
    fail(out, "traced driver diverged from run_benchmark on " +
                  cell_key(key));
  }
  verify(out, book, key, driven.result);

  LayerSums discard;
  if (cell.kernel_migration) {
    RunConfig twin = cell;
    twin.kernel_migration = false;
    twin.no_fast_forward = true;
    sums.daemon_ms +=
        driven.iteration_ms - drive_cell(twin, discard).iteration_ms;
  }
  if (!cell.coherence.empty()) {
    RunConfig twin = cell;
    twin.coherence.clear();
    twin.no_fast_forward = true;
    sums.coherence_iteration_ms += driven.iteration_ms;
    sums.pagegrain_iteration_ms += drive_cell(twin, discard).iteration_ms;
  }
  if (!cell.replay.empty()) {
    RunConfig twin = key;
    twin.no_fast_forward = true;
    sums.replay_ms += driven.wall_ms;
    sums.direct_ms += drive_cell(twin, discard).wall_ms;
  }
  return driven.result;
}

/// Dumps each config's RTRC trace into `dir`, then decodes every chunk
/// of it with no simulator attached.
void dump_and_decode(const std::string& dir,
                     const std::vector<RunConfig>& dumps, LayerSums& sums) {
  std::vector<repro::tracefmt::Record> records;
  for (const RunConfig& c : dumps) {
    const std::string path = trace_path(dir, c.benchmark);
    auto t0 = Clock::now();
    const harness::TraceDumpStats stats = harness::dump_trace(c, path);
    sums.dump_ms += ms_since(t0);
    ++sums.dumps;
    sums.dump_bytes += stats.bytes;
    sums.dump_ops += stats.ops;
    const repro::tracefmt::TraceReader reader(path);
    t0 = Clock::now();
    for (std::size_t i = 0; i < reader.num_chunks(); ++i) {
      reader.decode_chunk(i, records);
    }
    sums.decode_ms += ms_since(t0);
    sums.decoded_ops += reader.total_ops();
  }
}

struct ServiceCost {
  double cache_open_ms = 0.0;
  double lookup_us = 0.0;
  double insert_ms = 0.0;
  double identity_us = 0.0;
  double decode_result_us = 0.0;
};

/// Times the service layer's cache and codec on `dir`: insert
/// `inserts` (with their results), reopen the cache, then look up and
/// decode every cell of `lookups`, which must all be present by then.
ServiceCost time_service(Outcome& out, const std::string& dir,
                         const std::vector<CellSpec>& inserts,
                         const std::vector<RunResult>& results,
                         const std::vector<CellSpec>& lookups) {
  ServiceCost cost;
  const auto identities = [&cost](const std::vector<CellSpec>& specs) {
    std::vector<std::uint64_t> ids;
    for (const CellSpec& s : specs) {
      const auto t0 = Clock::now();
      ids.push_back(s.identity());
      cost.identity_us += ms_since(t0) * 1e3;
    }
    return ids;
  };
  const std::vector<std::uint64_t> insert_ids = identities(inserts);
  const std::vector<std::uint64_t> lookup_ids = identities(lookups);
  cost.identity_us /= static_cast<double>(inserts.size() + lookups.size());
  {
    repro::service::ResultCache cache(repro::service::CacheConfig{dir});
    for (std::size_t i = 0; i < inserts.size(); ++i) {
      const std::string payload = harness::encode_result(insert_ids[i],
                                                         results[i]);
      const auto t0 = Clock::now();
      cache.insert(insert_ids[i], payload);
      cost.insert_ms += ms_since(t0);
    }
    cost.insert_ms /= static_cast<double>(inserts.size());
  }
  auto t0 = Clock::now();
  repro::service::ResultCache cache(repro::service::CacheConfig{dir});
  cost.cache_open_ms = ms_since(t0);
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    t0 = Clock::now();
    const auto payload = cache.lookup(lookup_ids[i]);
    cost.lookup_us += ms_since(t0) * 1e3;
    RunResult decoded;
    t0 = Clock::now();
    const bool ok = payload.has_value() &&
                    harness::decode_result(*payload, lookup_ids[i], &decoded);
    cost.decode_result_us += ms_since(t0) * 1e3;
    if (!ok) {
      fail(out, "service cache lost " + lookups[i].format());
    }
  }
  cost.lookup_us /= static_cast<double>(lookups.size());
  cost.decode_result_us /= static_cast<double>(lookups.size());
  return cost;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

DrivenCell drive_cell(const RunConfig& config, LayerSums& sums) {
  if (config.analyze || !config.trace_dir.empty() ||
      !config.trace_out.empty() || !config.fault.empty() ||
      config.cell_timeout_ms != 0) {
    throw std::invalid_argument("drive_cell: unsupported cell option");
  }
  namespace nas = repro::nas;
  const auto cell_t0 = Clock::now();
  auto t0 = Clock::now();
  auto machine = repro::omp::Machine::create(config.machine);
  machine->set_placement(config.placement, config.seed);
  sums.machine_ms += ms_since(t0);
  repro::coherence::CoherenceModel* coh = nullptr;
  if (!config.coherence.empty()) {
    repro::coherence::CoherenceConfig cc = config.coherence_config;
    cc.policy = *repro::coherence::parse_policy(config.coherence);
    coh = &machine->enable_coherence(cc);
  }
  repro::trace::TraceSink* sink = nullptr;
  std::uint16_t harness_lane = 0;
  if (config.trace) {
    sink = &machine->enable_tracing();
    harness_lane = sink->register_lane("harness");
  }
  if (config.kernel_migration) {
    machine->enable_kernel_daemon(config.daemon);
  }

  std::unique_ptr<nas::Workload> workload;
  if (!config.replay.empty()) {
    workload = nas::make_trace_workload(
        config.replay, nas::TraceWorkloadOptions{config.pipeline});
  } else {
    nas::WorkloadParams params = config.workload;
    params.compute_scale = config.compute_scale;
    workload = nas::make_workload(config.benchmark, params);
  }
  t0 = Clock::now();
  workload->setup(*machine);
  sums.setup_ms += ms_since(t0);
  const std::uint32_t iterations = config.iterations != 0
                                       ? config.iterations
                                       : workload->default_iterations();

  std::unique_ptr<repro::upm::Upmlib> upmlib;
  nas::IterationContext ctx;
  ctx.mode = config.upm_mode;
  if (config.upm_mode != nas::UpmMode::kOff) {
    upmlib = std::make_unique<repro::upm::Upmlib>(
        machine->mmci(), machine->runtime(), config.upm);
    if (sink != nullptr) {
      upmlib->set_trace(sink, machine->upm_trace_lane());
    }
    workload->register_hot(*upmlib);
    ctx.upm = upmlib.get();
  }

  t0 = Clock::now();
  workload->cold_start(*machine);
  sums.cold_start_ms += ms_since(t0);
  if (upmlib != nullptr) {
    upmlib->reset_hot_counters();
  }
  machine->memory().reset_stats();
  machine->runtime().clear_records();
  if (sink != nullptr) {
    sink->clear();
  }

  DrivenCell cell;
  RunResult& result = cell.result;
  result.label = config.label();
  result.benchmark = workload->name();
  result.iteration_times.reserve(iterations);

  const bool fast_forward =
      !config.no_fast_forward && coh == nullptr && config.replay.empty() &&
      repro::Env::global().get_bool("REPRO_FAST_FORWARD", true);
  std::unique_ptr<harness::FastForward> ff;
  if (fast_forward) {
    ff = std::make_unique<harness::FastForward>(*machine, upmlib.get(), sink);
  }

  repro::omp::Runtime& rt = machine->runtime();
  const Ns start = rt.now();
  std::uint64_t seen_remote_lines = 0;
  std::uint64_t seen_local_lines = 0;
  for (std::uint32_t step = 1; step <= iterations; ++step) {
    if (ff != nullptr) {
      t0 = Clock::now();
      ff->probe();
      sums.ff_probe_ms += ms_since(t0);
      ++sums.ff_probes;
      if (ff->ready()) {
        t0 = Clock::now();
        result.iterations_replayed =
            ff->replay(step, iterations, result.iteration_times);
        sums.ff_replay_ms += ms_since(t0);
        step += result.iterations_replayed;
        if (step > iterations) {
          break;
        }
        const repro::memsys::ProcStats totals =
            machine->memory().total_stats();
        seen_remote_lines = totals.remote_miss_lines;
        seen_local_lines = totals.local_miss_lines;
      }
    }
    ++result.iterations_simulated;
    const Ns iter_start = rt.now();
    if (sink != nullptr) {
      sink->set_iteration(step);
      repro::trace::TraceEvent ev;
      ev.kind = repro::trace::EventKind::kIterationBegin;
      ev.time = iter_start;
      sink->emit(harness_lane, ev);
    }
    // Counted around simulated iterations only: a fast-forward replay
    // extrapolates the memory statistics without doing the work.
    const std::uint64_t ops0 = machine->engine().ops_executed();
    const repro::memsys::ProcStats mem0 = machine->memory().total_stats();
    t0 = Clock::now();
    workload->iteration(*machine, ctx, step);
    cell.iteration_ms += ms_since(t0);
    sums.ops += machine->engine().ops_executed() - ops0;
    const repro::memsys::ProcStats mem1 = machine->memory().total_stats();
    sums.lines += (mem1.hit_lines + mem1.miss_lines()) -
                  (mem0.hit_lines + mem0.miss_lines());
    sums.miss_lines += mem1.miss_lines() - mem0.miss_lines();
    sums.remote_lines += mem1.remote_miss_lines - mem0.remote_miss_lines;
    sums.tlb_misses += mem1.tlb_misses - mem0.tlb_misses;
    if (config.upm_mode == nas::UpmMode::kDistribution &&
        (step == 1 || upmlib->active())) {
      t0 = Clock::now();
      upmlib->migrate_memory();
      sums.migrate_ms += ms_since(t0);
      ++sums.migrate_calls;
      if (ff != nullptr) {
        ff->note_migration_pass();
      }
    }
    if (sink != nullptr) {
      const repro::memsys::ProcStats totals = machine->memory().total_stats();
      repro::trace::TraceEvent ev;
      ev.kind = repro::trace::EventKind::kIterationEnd;
      ev.time = rt.now();
      ev.a = totals.remote_miss_lines - seen_remote_lines;
      ev.b = totals.local_miss_lines - seen_local_lines;
      seen_remote_lines = totals.remote_miss_lines;
      seen_local_lines = totals.local_miss_lines;
      sink->emit(harness_lane, ev);
    }
    result.iteration_times.push_back(rt.now() - iter_start);
  }
  result.total = rt.now() - start;
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
  if (sink != nullptr) {
    result.trace_digest = repro::trace::digest(*sink);
    result.iteration_metrics =
        repro::trace::MetricsRegistry(*sink).per_iteration();
    sums.trace_events += sink->size();
  }

  sums.iteration_ms += cell.iteration_ms;
  sums.iterations_timed += iterations;
  sums.iterations_simulated += result.iterations_simulated;
  sums.iterations_replayed += result.iterations_replayed;
  if (config.kernel_migration) {
    ++sums.daemon_cells;
    sums.daemon_interrupts += result.daemon_stats.interrupts;
    sums.daemon_migrations += result.daemon_stats.migrations;
  }
  sums.migrations += result.upm_stats.distribution_migrations;
  sums.recrep_migrations +=
      result.upm_stats.replay_migrations + result.upm_stats.undo_migrations;
  if (coh != nullptr) {
    const repro::coherence::CoherenceStats& c = result.coherence_totals;
    ++sums.coherence_cells;
    sums.coherence_lines += c.hit_lines + c.miss_lines();
    sums.coherence_miss_lines += c.miss_lines();
    sums.invalidations += c.invalidations_sent;
    sums.upgrades += c.upgrades;
  }
  cell.wall_ms = ms_since(cell_t0);
  return cell;
}

Outcome run_traced(const Options& o) {
  Outcome out;
  const DigestBook& book = *o.book;
  const std::string dir = o.work_dir + "/" + o.workload + "-traced";
  fs::remove_all(dir);
  fs::create_directories(dir);

  LayerSums w;      // the workload's own cells
  LayerSums probe;  // probe cells, for layers the workload never runs
  Overhead overhead;
  std::vector<std::pair<RunConfig, RunConfig>> cells;  // (cell, key cell)
  std::vector<CellSpec> grid;
  std::vector<CellSpec> fresh;
  if (o.workload == "paper-daemon" || o.workload == "coherence-mix") {
    for (const RunConfig& c : o.workload == "paper-daemon"
                                  ? paper_daemon_cells(o.seed)
                                  : coherence_cells()) {
      cells.emplace_back(c, c);
    }
  } else if (o.workload == "rtrc-replay") {
    dump_and_decode(dir, trace_dump_configs(), w);
    for (const RunConfig& twin : replay_twins()) {
      cells.emplace_back(
          replay_config(twin, trace_path(dir, twin.benchmark)), twin);
    }
  } else if (o.workload == "service-grid") {
    grid = service_grid(o.seed);
    for (const Request& r : service_loop(o.seed, 0)) {
      if (r.grid < 0) {
        fresh.push_back(r.fresh());
      }
    }
    for (const CellSpec& s : grid) {
      cells.emplace_back(s.to_config(), s.to_config());
    }
    for (const CellSpec& s : fresh) {
      cells.emplace_back(s.to_config(), s.to_config());
    }
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }

  std::vector<RunResult> fresh_results;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    RunResult r =
        trace_cell(out, book, cells[i].first, cells[i].second, w, overhead);
    if (!grid.empty() && i >= grid.size()) {
      fresh_results.push_back(std::move(r));
    }
  }

  // Probe cells for the layers this workload never runs.
  Overhead probe_overhead;
  const bool own_ff = w.ff_probes > 0;
  const bool own_trace = w.trace_events > 0;
  const bool own_daemon = w.daemon_cells > 0;
  const bool own_coherence = w.coherence_cells > 0;
  const bool own_tracefmt = w.dumps > 0;
  if (!own_ff || !own_trace) {
    const RunConfig c = probe_fast_forward_cell();
    (void)trace_cell(out, book, c, c, probe, probe_overhead);
  }
  if (!own_daemon) {
    const RunConfig c = probe_daemon_cell();
    (void)trace_cell(out, book, c, c, probe, probe_overhead);
  }
  if (!own_coherence) {
    const RunConfig c = probe_coherence_cell();
    (void)trace_cell(out, book, c, c, probe, probe_overhead);
  }
  if (!own_tracefmt) {
    for (const RunConfig& dump : trace_dump_configs()) {
      if (dump.benchmark == "CG") {
        dump_and_decode(dir, {dump}, probe);
        (void)trace_cell(out, book,
                         replay_config(dump, trace_path(dir, "CG")), dump,
                         probe, probe_overhead);
      }
    }
  }
  ServiceCost svc;
  const std::string cache_copy = dir + "/cache-copy";
  if (o.workload == "service-grid") {
    const std::string served = dir + "/service";
    {
      const ServiceHost host(served);
      check_grid(out, book, grid, submit_grid(host.socket_path(), grid));
    }
    fs::copy(served + "/cache", cache_copy, fs::copy_options::recursive);
    svc = time_service(out, cache_copy, fresh, fresh_results, grid);
  } else {
    const std::vector<CellSpec> specs = probe_service_specs();
    std::vector<RunResult> results;
    for (const CellSpec& s : specs) {
      results.push_back(harness::run_benchmark(s.to_config()));
      verify(out, book, s.to_config(), results.back());
    }
    svc = time_service(out, cache_copy, specs, results, specs);
  }

  auto& v = out.values;
  const LayerSums& h = own_ff ? w : probe;
  v["harness.ff_probes"] = static_cast<double>(h.ff_probes);
  v["harness.ff_probe_ms"] = h.ff_probe_ms;
  v["harness.ff_replay_ms"] = h.ff_replay_ms;
  v["harness.ff_replayed_ratio"] =
      ratio(static_cast<double>(h.iterations_replayed),
            static_cast<double>(h.iterations_timed));
  v["omp.machine_ms"] = w.machine_ms;
  v["nas.setup_ms"] = w.setup_ms;
  v["nas.cold_start_ms"] = w.cold_start_ms;
  v["nas.iteration_ms"] = w.iteration_ms;
  v["nas.iterations_simulated"] = static_cast<double>(w.iterations_simulated);
  v["sim.ops"] = static_cast<double>(w.ops);
  v["sim.ns_per_op"] = ratio(w.iteration_ms * 1e6, static_cast<double>(w.ops));
  v["memsys.lines"] = static_cast<double>(w.lines);
  v["memsys.remote_fraction"] = ratio(static_cast<double>(w.remote_lines),
                                      static_cast<double>(w.miss_lines));
  v["memsys.tlb_misses"] = static_cast<double>(w.tlb_misses);
  v["memsys.ns_per_line"] =
      ratio(w.iteration_ms * 1e6, static_cast<double>(w.lines));
  const LayerSums& d = own_daemon ? w : probe;
  v["os.daemon_interrupts"] = static_cast<double>(d.daemon_interrupts);
  v["os.daemon_migrations"] = static_cast<double>(d.daemon_migrations);
  v["os.daemon_ms"] = d.daemon_ms;
  v["upmlib.migrate_calls"] = static_cast<double>(w.migrate_calls);
  v["upmlib.migrate_ms"] = w.migrate_ms;
  v["upmlib.migrations"] = static_cast<double>(w.migrations);
  v["upmlib.recrep_migrations"] = static_cast<double>(w.recrep_migrations);
  const LayerSums& t = own_tracefmt ? w : probe;
  v["tracefmt.dump_ms"] = t.dump_ms;
  v["tracefmt.decode_mops"] =
      ratio(static_cast<double>(t.decoded_ops), t.decode_ms * 1e3);
  v["tracefmt.bytes_per_op"] = ratio(static_cast<double>(t.dump_bytes),
                                     static_cast<double>(t.dump_ops));
  v["tracefmt.replay_over_direct"] = ratio(t.replay_ms, t.direct_ms);
  const LayerSums& c = own_coherence ? w : probe;
  v["coherence.lines"] = static_cast<double>(c.coherence_lines);
  v["coherence.miss_lines"] = static_cast<double>(c.coherence_miss_lines);
  v["coherence.invalidations"] = static_cast<double>(c.invalidations);
  v["coherence.upgrades"] = static_cast<double>(c.upgrades);
  v["coherence.ns_per_line"] =
      ratio((c.coherence_iteration_ms - c.pagegrain_iteration_ms) * 1e6,
            static_cast<double>(c.coherence_lines));
  v["coherence.over_pagegrain"] =
      ratio(c.coherence_iteration_ms, c.pagegrain_iteration_ms);
  v["trace.events"] =
      static_cast<double>((own_trace ? w : probe).trace_events);
  v["service.cache_open_ms"] = svc.cache_open_ms;
  v["service.lookup_us"] = svc.lookup_us;
  v["service.insert_ms"] = svc.insert_ms;
  v["service.identity_us"] = svc.identity_us;
  v["service.decode_result_us"] = svc.decode_result_us;
  v["tracing_overhead_s"] = (overhead.traced_ms - overhead.untraced_ms) / 1e3;

  std::ostringstream note;
  note << o.workload << " traced: " << cells.size() << " cells, "
       << overhead.traced_ms / 1e3 << " s traced vs "
       << overhead.untraced_ms / 1e3 << " s untraced (run_benchmark)";
  out.notes.push_back(note.str());
  std::string probed;
  for (const auto& [own, layer] :
       {std::pair{own_ff, "harness"}, std::pair{own_daemon, "os"},
        std::pair{own_tracefmt, "tracefmt"},
        std::pair{own_coherence, "coherence"}, std::pair{own_trace, "trace"},
        std::pair{o.workload == "service-grid", "service"}}) {
    if (!own) {
      probed += (probed.empty() ? "" : ", ") + std::string(layer);
    }
  }
  if (!probed.empty()) {
    out.notes.push_back("layers " + o.workload +
                        " never runs, measured on probe cells: " + probed);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out;
}

}  // namespace perfbench
