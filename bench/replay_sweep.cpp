// Replay sweep: the compiled (direct-simulation) frontend vs the
// trace-replay frontend.
//
// One benchmark (default CG) is dry-dumped once to an RTRC trace --
// the recorded stream is placement/engine independent, so the same
// file replays under every cell -- and each {ft, rr, wc} x {base,
// upmlib} cell is then timed two ways on the host wall clock:
//
//   direct: workload regions compiled and dispatched in-process;
//   replay: chunks decoded lazily on the simulation thread.
//
// The timed replay simulates every iteration, so its time includes
// decoding every chunk. A separate traced verification pass, with the
// fast-forward at its default, asserts both modes produce
// byte-identical canonical-trace digests and migration vectors (the
// replay-equivalence guarantee of DESIGN.md section 16). Decode-only
// throughput (Mops/s) is measured by draining the trace without a
// simulator attached.
//
// Timings written to BENCH_replay_sweep.json (google-benchmark shape,
// for tools/perf_compare.py and the checked-in baseline) are *host*
// wall-clock milliseconds: this sweep exists to measure frontend
// overhead, not simulated time (which the digest check proves equal).
//
// Usage: replay_sweep [--benchmark=CG] [--iterations=N] [--scale=X]
//                     [--json=DIR] [--trace-file=PATH] [--smoke]
//                     [--golden=FILE] [--no-verify]
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/run.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/sim/trace_replayer.hpp"
#include "repro/trace/metrics.hpp"

using namespace repro;
using namespace repro::harness;

namespace {

struct Cell {
  std::string placement;  // "ft" | "rr" | "wc"
  bool upmlib = false;
};

const char* kModes[] = {"direct", "replay"};

struct CellTiming {
  double ms[2] = {0.0, 0.0};  // indexed like kModes
};

/// Peak resident set of this process in MiB (Linux ru_maxrss is KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// --cell-timeout-ms (0 = env REPRO_CELL_TIMEOUT_MS, else off); applied
/// to every cell this binary runs, direct or replayed.
std::uint32_t g_cell_timeout_ms = 0;

RunConfig cell_config(const std::string& benchmark, const Cell& cell,
                      std::uint32_t iterations, double scale, bool trace) {
  RunConfig config;
  config.cell_timeout_ms = effective_cell_timeout_ms(g_cell_timeout_ms);
  config.benchmark = benchmark;
  config.placement = cell.placement;
  config.iterations = iterations;
  config.workload.size_scale = scale;
  if (cell.upmlib) {
    config.upm_mode = nas::UpmMode::kDistribution;
  }
  config.trace = trace;
  return config;
}

std::string cell_label(const Cell& cell) {
  return cell.placement + (cell.upmlib ? "-upmlib" : "-base");
}

std::string row_name(const std::string& benchmark, const Cell& cell,
                     const char* mode) {
  return "ReplaySweep/" + benchmark + "/" + cell_label(cell) + "/" + mode;
}

/// Runs one cell in `mode` (0 = direct, 1 = replay) and returns the
/// result; wall-clock cost lands in `*ms`.
RunResult run_mode(const RunConfig& base, const std::string& trace_file,
                   int mode, double* ms) {
  RunConfig config = base;
  if (mode == 1) {
    config.replay = trace_file;
  }
  const double begin = now_ms();
  RunResult result = run_benchmark(config);
  *ms = now_ms() - begin;
  return result;
}

std::vector<std::uint64_t> migration_vector(const RunResult& result) {
  std::vector<std::uint64_t> out;
  for (const trace::IterationMetrics& m : result.iteration_metrics) {
    if (m.iteration >= 1) {
      out.push_back(m.migrations);
    }
  }
  return out;
}

std::string render_vector(const std::vector<std::uint64_t>& v) {
  if (v.empty()) {
    return "-";
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ",") << v[i];
  }
  return os.str();
}

/// Drains the trace through a serial TraceReplayer with no simulator
/// attached; returns decode throughput in Mops/s.
double decode_mops(const std::string& trace_file, std::uint64_t total_ops) {
  const double begin = now_ms();
  sim::TraceReplayer replayer(trace_file);
  sim::ReplayItem item;
  std::uint64_t items = 0;
  while (replayer.next(item)) {
    ++items;
  }
  const double seconds = (now_ms() - begin) / 1e3;
  if (seconds <= 0.0 || items == 0) {
    return 0.0;
  }
  return static_cast<double>(total_ops) / 1e6 / seconds;
}

/// tests/golden/trace_digests.txt rows: "benchmark label digest migs".
std::map<std::string, std::pair<std::string, std::string>> load_goldens(
    const std::string& path) {
  std::map<std::string, std::pair<std::string, std::string>> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string benchmark;
    std::string label;
    std::string digest;
    std::string migrations;
    fields >> benchmark >> label >> digest >> migrations;
    goldens[benchmark + " " + label] = {digest, migrations};
  }
  return goldens;
}

/// Traced verification: direct and replay must agree on the
/// canonical-trace digest and the migration vector. Returns the number
/// of mismatches; fills `digest_out` with the direct digest.
std::size_t verify_cell(const RunConfig& traced, const std::string& trace_file,
                        std::string* digest_out, std::string* migs_out) {
  double ignored = 0.0;
  const RunResult direct = run_mode(traced, trace_file, 0, &ignored);
  const RunResult replay = run_mode(traced, trace_file, 1, &ignored);
  *digest_out = direct.trace_digest;
  *migs_out = render_vector(migration_vector(direct));
  std::size_t mismatches = 0;
  if (replay.trace_digest != direct.trace_digest) {
    ++mismatches;
    std::cerr << "DIGEST MISMATCH: " << direct.benchmark << ' '
              << direct.label << ": " << replay.trace_digest
              << " != direct " << direct.trace_digest << '\n';
  }
  if (migration_vector(replay) != migration_vector(direct)) {
    ++mismatches;
    std::cerr << "MIGRATION MISMATCH: " << direct.benchmark << ' '
              << direct.label << ": "
              << render_vector(migration_vector(replay)) << " != direct "
              << *migs_out << '\n';
  }
  return mismatches;
}

void write_json(const std::string& dir, const std::string& benchmark,
                const std::vector<Cell>& cells,
                const std::vector<CellTiming>& timings, double mops,
                std::uint32_t iterations) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/BENCH_replay_sweep.json";
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << '\n';
    return;
  }
  out << "{\n \"context\": {\n"
      << "  \"executable\": \"replay_sweep\",\n"
      << "  \"decode_mops\": " << mops << ",\n"
      << "  \"peak_rss_mib\": " << peak_rss_mib() << "\n },\n"
      << " \"benchmarks\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (int mode = 0; mode < 2; ++mode) {
      const std::string name = row_name(benchmark, cells[i], kModes[mode]);
      const double speedup =
          timings[i].ms[mode] > 0.0 ? timings[i].ms[1] / timings[i].ms[mode]
                                    : 0.0;
      out << (first ? "" : ",\n") << "  {\n"
          << "   \"name\": \"" << name << "\",\n"
          << "   \"run_name\": \"" << name << "\",\n"
          << "   \"run_type\": \"iteration\",\n"
          << "   \"repetitions\": 1,\n"
          << "   \"iterations\": " << iterations << ",\n"
          << "   \"real_time\": " << timings[i].ms[mode] << ",\n"
          << "   \"cpu_time\": " << timings[i].ms[mode] << ",\n"
          << "   \"time_unit\": \"ms\",\n"
          << "   \"speedup_vs_replay\": " << speedup << "\n"
          << "  }";
      first = false;
    }
  }
  out << "\n ]\n}\n";
  std::cout << "\nwrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchmark = "CG";
  std::uint64_t iterations = 6;
  double scale = 0.25;
  std::string json_dir;
  std::string trace_file;
  std::string golden_file;
  bool smoke = false;
  bool no_verify = false;

  Cli cli("replay_sweep");
  cli.add_string("benchmark", &benchmark,
                 "BT | SP | CG | MG | FT: the workload to dump and replay "
                 "(default CG)");
  cli.add_uint("iterations", &iterations, "timed iterations per cell", 1);
  cli.add_uint("cell-timeout-ms", &g_cell_timeout_ms,
               "abort any cell exceeding this wall-clock budget (ms; env "
               "REPRO_CELL_TIMEOUT_MS)",
               /*min=*/1);
  cli.add_double("scale", &scale, "problem-size multiplier");
  cli.add_string("json", &json_dir,
                 "directory for BENCH_replay_sweep.json (google-benchmark "
                 "shape, host wall-clock ms)");
  cli.add_string("trace-file", &trace_file,
                 "where to dump the RTRC trace (default: a file in the "
                 "system temp directory)");
  cli.add_string("golden", &golden_file,
                 "with --smoke: also compare the direct digest against "
                 "this tests/golden/trace_digests.txt");
  cli.add_flag("smoke", &smoke,
               "CI mode: one golden cell (CG rr-upmlib, iterations=3), "
               "traced direct == replay check, no timing sweep");
  cli.add_flag("no-verify", &no_verify,
               "skip the traced direct == replay pass (timing only)");
  switch (cli.parse(argc, argv)) {
    case Cli::Status::kHelp:
      std::cout << cli.usage();
      return 0;
    case Cli::Status::kError:
      std::cerr << "error: " << cli.error() << "\n\n" << cli.usage();
      return 2;
    case Cli::Status::kOk:
      break;
  }

  std::vector<Cell> cells;
  if (smoke) {
    benchmark = "CG";
    iterations = 3;
    scale = 0.25;
    cells.push_back(Cell{"rr", true});
  } else {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const bool upmlib : {false, true}) {
        cells.push_back(Cell{placement, upmlib});
      }
    }
  }
  if (trace_file.empty()) {
    trace_file = (std::filesystem::temp_directory_path() /
                  ("replay_sweep_" + benchmark + ".rtrc"))
                     .string();
  }

  // Dump once: the recorded stream is placement/engine independent
  // (DESIGN.md section 16), so every cell replays the same file.
  const RunConfig dump_config = cell_config(
      benchmark, cells.front(), static_cast<std::uint32_t>(iterations),
      scale, /*trace=*/false);
  const double dump_begin = now_ms();
  const TraceDumpStats dump = dump_trace(dump_config, trace_file);
  const double dump_ms = now_ms() - dump_begin;
  const double mops = decode_mops(trace_file, dump.ops);
  std::cout << "Replay sweep: " << benchmark << ", " << cells.size()
            << " cell(s), iterations=" << iterations << "\n"
            << "trace: " << trace_file << " (" << dump.bytes << " bytes, "
            << dump.records << " records, " << dump.ops << " ops in "
            << dump.regions << " regions of " << dump.programs
            << " program(s), " << dump.chunks << " chunk(s); dumped in "
            << fmt_double(dump_ms, 1) << " ms)\n"
            << "decode throughput: " << fmt_double(mops, 1) << " Mops/s\n\n";

  // Traced equivalence (the replay-equivalence guarantee).
  std::size_t mismatches = 0;
  if (!no_verify) {
    for (const Cell& cell : cells) {
      const RunConfig traced = cell_config(
          benchmark, cell, static_cast<std::uint32_t>(iterations), scale,
          /*trace=*/true);
      std::string digest;
      std::string migrations;
      mismatches += verify_cell(traced, trace_file, &digest, &migrations);
      std::cout << "verify " << benchmark << ' ' << cell_label(cell)
                << ": direct == replay (digest " << digest
                << ", migrations " << migrations << ")\n";
      if (!golden_file.empty()) {
        const auto goldens = load_goldens(golden_file);
        const auto it = goldens.find(benchmark + " " + cell_label(cell));
        if (it == goldens.end()) {
          ++mismatches;
          std::cerr << "GOLDEN MISSING: no entry for " << benchmark << ' '
                    << cell_label(cell) << " in " << golden_file << '\n';
        } else if (it->second.first != digest ||
                   it->second.second != migrations) {
          ++mismatches;
          std::cerr << "GOLDEN MISMATCH: " << benchmark << ' '
                    << cell_label(cell) << " got " << digest << '/'
                    << migrations << ", golden " << it->second.first << '/'
                    << it->second.second << '\n';
        } else {
          std::cout << "golden " << benchmark << ' ' << cell_label(cell)
                    << ": matches " << golden_file << '\n';
        }
      }
    }
    if (mismatches != 0) {
      std::cerr << mismatches << " replay-equivalence violation(s)\n";
      return 1;
    }
    std::cout << '\n';
  }
  if (smoke) {
    std::cout << "smoke: replay equivalence holds\n";
    return 0;
  }

  // Timing sweep: untraced, sequential, wall clock; the replay without
  // the fast-forward (see the file comment).
  std::vector<CellTiming> timings(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    RunConfig base = cell_config(
        benchmark, cells[i], static_cast<std::uint32_t>(iterations), scale,
        /*trace=*/false);
    for (int mode = 0; mode < 2; ++mode) {
      base.no_fast_forward = mode == 1;
      run_mode(base, trace_file, mode, &timings[i].ms[mode]);
    }
  }

  TextTable table({"cell", "direct ms", "replay ms"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.add_row({cell_label(cells[i]), fmt_double(timings[i].ms[0], 1),
                   fmt_double(timings[i].ms[1], 1)});
  }
  table.print(std::cout);

  if (!json_dir.empty()) {
    write_json(json_dir, benchmark, cells, timings, mops,
               static_cast<std::uint32_t>(iterations));
  }
  return 0;
}
