// Machine ablations: how the paper's conclusions depend on the
// architectural parameters the authors call out.
//
//  (a) remote:local latency ratio -- the paper credits the Origin2000's
//      ~2:1 ratio for the small rr/rand slowdowns and predicts bigger
//      effects on machines with higher ratios;
//  (b) interconnect topology -- bigger diameters magnify bad placement
//      (the paper's closing remark about >=128-processor systems);
//  (c) memory-module occupancy -- the contention component that makes
//      worst-case placement so much worse than its remote-access
//      fraction alone predicts.
//
// Usage: ablation_machine [--fast] [--benchmark=NAME]
#include <iostream>
#include <string>

#include "repro/common/stats.hpp"
#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/figures.hpp"

using namespace repro;
using namespace repro::harness;

namespace {

double slowdown_vs_ft(const std::string& bench, const FigureOptions& options,
                      const std::string& placement,
                      const memsys::MachineConfig& machine) {
  RunConfig config = base_config(bench, options);
  config.machine = machine;
  const RunResult ft = run_benchmark(config);
  config.placement = placement;
  const RunResult other = run_benchmark(config);
  return slowdown(other.seconds(), ft.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  FigureOptions options;
  std::string bench = "CG";
  Cli cli("ablation_machine");
  cli.add_flag("fast", &options.fast, "trim the long benchmarks");
  cli.add_flag("no-fast-forward", &options.no_fast_forward,
               "simulate every iteration in full (disable the "
               "steady-state fast-forward)");
  cli.add_string("benchmark", &bench, "the benchmark to ablate (default CG)");
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

  std::cout << "Machine ablations on NAS " << bench << "\n\n";

  {
    // (a) scale the remote part of the latency ladder.
    TextTable table({"remote:local ratio", "rr slowdown", "wc slowdown"});
    for (const double factor : {0.5, 1.0, 2.0, 4.0}) {
      memsys::MachineConfig machine;
      for (std::size_t h = 1; h < machine.mem_latency_ns.size(); ++h) {
        const double base = machine.mem_latency_ns.front();
        machine.mem_latency_ns[h] =
            base + (machine.mem_latency_ns[h] - base) * factor;
      }
      machine.extra_hop_latency_ns *= factor;
      const double ratio = machine.mem_latency_ns.back() /
                           machine.mem_latency_ns.front();
      table.add_row(
          {fmt_double(ratio, 2),
           fmt_percent(slowdown_vs_ft(bench, options, "rr", machine)),
           fmt_percent(slowdown_vs_ft(bench, options, "wc", machine))});
    }
    std::cout << "(a) latency-ratio sweep (paper: the low 2:1 ratio is "
                 "why balanced placements are cheap)\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  {
    // (b) topology sweep.
    TextTable table({"topology", "max hops", "rr slowdown"});
    for (const std::string topology : {"crossbar", "fat-hypercube",
                                       "ring"}) {
      memsys::MachineConfig machine;
      machine.topology = topology;
      const auto topo = topo::make_topology(topology, machine.num_nodes);
      table.add_row(
          {topology, std::to_string(topo->max_hops()),
           fmt_percent(slowdown_vs_ft(bench, options, "rr", machine))});
    }
    std::cout << "(b) topology sweep (bigger diameter -> bad placement "
                 "hurts more)\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  {
    // (c) memory occupancy sweep.
    TextTable table({"occupancy (ns/line)", "rr slowdown", "wc slowdown"});
    for (const double occupancy : {25.0, 100.0, 400.0}) {
      memsys::MachineConfig machine;
      machine.mem_occupancy_ns = occupancy;
      table.add_row(
          {fmt_double(occupancy, 0),
           fmt_percent(slowdown_vs_ft(bench, options, "rr", machine)),
           fmt_percent(slowdown_vs_ft(bench, options, "wc", machine))});
    }
    std::cout << "(c) memory-occupancy sweep (contention is what makes "
                 "worst-case placement catastrophic)\n";
    table.print(std::cout);
  }
  return 0;
}
