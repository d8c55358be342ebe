// Scale sweep past the paper's 16 nodes: {16, 64, 128, 512} logical
// nodes x {static, task} scheduling x {first-touch, round-robin,
// rr+upmlib}.
//
// The 16-node cell is the paper's fat-hypercube Origin2000; the larger
// machines are hierarchical topologies (hier:4x4x4, hier:8x4x4,
// hier:8x8x8) whose latency ladders extrapolate Table 1 past 3 hops.
// Static cells run the loop-parallel benchmark (CG/MG); task cells run
// its task-parallel twin (CGT/MGT) through the deterministic
// work-stealing scheduler. Weak scaling throughout: the problem grows
// with the machine so per-thread working sets stay constant.
//
// Timings reported (and written to BENCH_scale_sweep.json in
// google-benchmark shape for tools/perf_compare.py) are *simulated*
// milliseconds per timed iteration -- deterministic across hosts, so
// the +/-25% advisory band actually flags model changes, not host
// noise. Peak host RSS is printed at the end. Every machine size runs
// the same page structures: the page table and directory are one per
// machine and O(pages), and each processor's page-cache index
// allocates fixed chunks only for the pages it caches, which is what
// keeps the 512-node cells inside a laptop's memory.
//
// Usage: scale_sweep [--fast] [--benchmark=CG|MG] [--iterations=N]
//                    [--max-nodes=N] [--scale=X] [--jobs=N]
//                    [--json=DIR] [--verify-determinism] [--smoke]
#include <sys/resource.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/scheduler.hpp"

using namespace repro;
using namespace repro::harness;

namespace {

struct MachineSpec {
  std::size_t nodes;
  const char* topology;
};

constexpr MachineSpec kMachines[] = {
    {16, "fat-hypercube"},
    {64, "hier:4x4x4"},
    {128, "hier:8x4x4"},
    {512, "hier:8x8x8"},
};

struct Cell {
  MachineSpec machine;
  std::string sched;  // "static" | "task"
  std::string benchmark;
  std::string placement;
  bool upmlib = false;
};

/// Peak resident set of this process in MiB (Linux ru_maxrss is KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

RunConfig cell_config(const Cell& cell, std::uint32_t iterations,
                      double base_scale, bool trace) {
  RunConfig config;
  config.benchmark = cell.benchmark;
  config.placement = cell.placement;
  config.iterations = iterations;
  if (cell.upmlib) {
    config.upm_mode = nas::UpmMode::kDistribution;
  }
  config.trace = trace;
  config.machine.num_nodes = cell.machine.nodes;
  config.machine.topology = cell.machine.topology;
  // Keep the machine's total frame pool constant while nodes grow, as
  // a real installation would partition a fixed budget; the weak-scaled
  // footprint stays well inside it.
  config.machine.frames_per_node = std::max<std::size_t>(
      1024, (16 * 32768) / cell.machine.nodes);
  // Weak scaling relative to the paper's 16-node Class A cell.
  config.workload.size_scale =
      base_scale * static_cast<double>(cell.machine.nodes) / 16.0;
  return config;
}

std::string cell_name(const Cell& cell) {
  std::ostringstream os;
  os << "ScaleSweep/" << cell.benchmark << '/' << cell.machine.nodes << '/'
     << cell.placement << (cell.upmlib ? "-upmlib" : "-base");
  return os.str();
}

void write_json(const std::string& dir, const std::vector<Cell>& cells,
                const std::vector<RunResult>& results,
                std::uint32_t iterations) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/BENCH_scale_sweep.json";
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << '\n';
    return;
  }
  out << "{\n \"context\": {\n"
      << "  \"executable\": \"scale_sweep\",\n"
      << "  \"peak_rss_mib\": " << peak_rss_mib() << "\n },\n"
      << " \"benchmarks\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double sim_ms_per_iter =
        ns_to_seconds(results[i].total) * 1e3 /
        static_cast<double>(iterations);
    out << "  {\n"
        << "   \"name\": \"" << cell_name(cells[i]) << "\",\n"
        << "   \"run_name\": \"" << cell_name(cells[i]) << "\",\n"
        << "   \"run_type\": \"iteration\",\n"
        << "   \"repetitions\": 1,\n"
        << "   \"iterations\": " << iterations << ",\n"
        << "   \"real_time\": " << sim_ms_per_iter << ",\n"
        << "   \"cpu_time\": " << sim_ms_per_iter << ",\n"
        << "   \"time_unit\": \"ms\"\n"
        << "  }" << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  out << " ]\n}\n";
  std::cout << "\nwrote " << path << '\n';
}

/// Compares per-cell trace digests of two sweep runs; returns the
/// number of mismatches (0 = byte-identical schedules).
std::size_t compare_digests(const std::vector<Cell>& cells,
                            const std::vector<RunResult>& a,
                            const std::vector<RunResult>& b,
                            const std::string& what) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (a[i].trace_digest != b[i].trace_digest) {
      ++mismatches;
      std::cerr << "DIGEST MISMATCH (" << what << "): " << cell_name(cells[i])
                << ' ' << a[i].trace_digest << " != " << b[i].trace_digest
                << '\n';
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  bool verify = false;
  bool smoke = false;
  std::string benchmark = "CG";
  std::string json_dir;
  std::uint64_t iterations = 3;
  std::uint64_t jobs = 0;
  std::uint32_t cell_timeout_ms = 0;
  std::uint64_t max_nodes = 512;
  double base_scale = 0.25;

  Cli cli("scale_sweep");
  cli.add_flag("fast", &fast, "limit the sweep to 16 and 64 nodes");
  cli.add_string("benchmark", &benchmark,
                 "loop-parallel base benchmark: CG or MG (the task cells "
                 "run its task twin, CGT or MGT)");
  cli.add_uint("iterations", &iterations, "timed iterations per cell", 1);
  cli.add_uint("jobs", &jobs, "host worker threads (0 = auto)");
  cli.add_uint("cell-timeout-ms", &cell_timeout_ms,
               "abort any cell exceeding this wall-clock budget (ms; env "
               "REPRO_CELL_TIMEOUT_MS)",
               /*min=*/1);
  cli.add_uint("max-nodes", &max_nodes, "largest machine to sweep", 16);
  cli.add_double("scale", &base_scale,
                 "size_scale of the 16-node cell (weak scaling multiplies "
                 "it by nodes/16)");
  cli.add_string("json", &json_dir,
                 "directory for BENCH_scale_sweep.json (google-benchmark "
                 "shape, simulated ms per iteration)");
  cli.add_flag("verify-determinism", &verify,
               "run the matrix under --jobs, --jobs=1 and again under "
               "--jobs, and require byte-identical trace digests");
  cli.add_flag("smoke", &smoke,
               "CI mode: one 64-node task cell, tracing on, jobs=1 vs "
               "jobs=4 digest check");
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
  if (benchmark != "CG" && benchmark != "MG") {
    std::cerr << "error: --benchmark must be CG or MG\n";
    return 2;
  }
  const std::string task_benchmark = benchmark + "T";

  std::vector<Cell> cells;
  if (smoke) {
    iterations = 2;
    cells.push_back(Cell{kMachines[1], "task", task_benchmark, "ft", false});
  } else {
    for (const MachineSpec& machine : kMachines) {
      if (machine.nodes > max_nodes || (fast && machine.nodes > 64)) {
        continue;
      }
      for (const std::string sched : {"static", "task"}) {
        const std::string bench =
            sched == "task" ? task_benchmark : benchmark;
        cells.push_back(Cell{machine, sched, bench, "ft", false});
        cells.push_back(Cell{machine, sched, bench, "rr", false});
        cells.push_back(Cell{machine, sched, bench, "rr", true});
      }
    }
  }

  const bool trace = verify || smoke;
  std::vector<RunConfig> configs;
  configs.reserve(cells.size());
  for (const Cell& cell : cells) {
    configs.push_back(cell_config(cell, static_cast<std::uint32_t>(iterations),
                                  base_scale, trace));
  }

  std::cout << "Scale sweep: " << cells.size() << " cells, "
            << benchmark << " (static) vs " << task_benchmark
            << " (deterministic work stealing), iterations=" << iterations
            << ", 16-node size_scale=" << base_scale << "\n\n";

  const std::size_t run_jobs = effective_jobs(std::max<std::uint64_t>(
      1, jobs == 0 ? 0 : jobs));
  const auto sweep_with = [cell_timeout_ms](std::size_t sweep_jobs) {
    SweepOptions sweep_options;
    sweep_options.jobs = sweep_jobs;
    sweep_options.cell_timeout_ms = cell_timeout_ms;
    return sweep_options;
  };
  const std::vector<RunResult> results =
      run_experiments(configs, sweep_with(run_jobs));

  if (trace) {
    const std::size_t check_jobs = smoke ? 4 : run_jobs;
    const std::vector<RunResult> serial =
        run_experiments(configs, sweep_with(1));
    const std::vector<RunResult> parallel =
        check_jobs == run_jobs ? results
                               : run_experiments(configs, sweep_with(check_jobs));
    std::size_t mismatches =
        compare_digests(cells, results, serial, "jobs");
    mismatches += compare_digests(cells, results, parallel, "rerun");
    if (mismatches != 0) {
      std::cerr << mismatches << " cell(s) not byte-identical\n";
      return 1;
    }
    std::cout << "determinism: all " << cells.size()
              << " cell(s) byte-identical across job counts and reruns\n\n";
  }

  TextTable table(
      {"nodes", "topology", "bench", "label", "sim ms/iter", "digest"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double sim_ms = ns_to_seconds(results[i].total) * 1e3 /
                          static_cast<double>(iterations);
    table.add_row({std::to_string(cells[i].machine.nodes),
                   cells[i].machine.topology, cells[i].benchmark,
                   results[i].label, fmt_double(sim_ms, 3),
                   results[i].trace_digest.empty() ? "-"
                                                   : results[i].trace_digest});
  }
  table.print(std::cout);
  std::cout << "\npeak RSS: " << fmt_double(peak_rss_mib(), 1) << " MiB\n";

  if (!json_dir.empty()) {
    write_json(json_dir, cells, results, static_cast<std::uint32_t>(iterations));
  }
  return 0;
}
