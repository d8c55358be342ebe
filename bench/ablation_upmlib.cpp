// UPMlib ablations: the design choices DESIGN.md calls out.
//
//  (a) competitive threshold sweep (paper Section 3.3's `thr`);
//  (b) critical-page cap sweep for record--replay (the paper's n = 20);
//  (c) ping-pong freezing on/off;
//  (d) run-length amortization: the same engine on MG with 4 (paper)
//      vs. more iterations -- the one place our scaled-down runs cannot
//      amortize the one-time migration cost that the paper's longer
//      wall-times absorbed.
//
// Usage: ablation_upmlib [--fast] [--jobs=N]
#include <iostream>
#include <string>

#include "repro/common/stats.hpp"
#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/figures.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/omp/machine.hpp"
#include "repro/omp/schedule.hpp"
#include "repro/upmlib/upmlib.hpp"

using namespace repro;
using namespace repro::harness;

int main(int argc, char** argv) {
  FigureOptions options;
  Cli cli("ablation_upmlib");
  cli.add_flag("fast", &options.fast, "trim the long benchmarks");
  cli.add_flag("no-fast-forward", &options.no_fast_forward,
               "simulate every iteration in full (disable the "
               "steady-state fast-forward)");
  cli.add_uint("jobs", &options.jobs, "worker threads for the run matrix",
               /*min=*/1);
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

  {
    // (a) threshold sweep on SP under random placement.
    std::cout << "(a) competitive threshold sweep (SP, random "
                 "placement)\n";
    const std::vector<double> thresholds = {1.2, 2.0, 4.0, 16.0};
    std::vector<RunConfig> configs;
    for (const double thr : thresholds) {
      RunConfig config = base_config("SP", options);
      config.placement = "rand";
      config.upm_mode = nas::UpmMode::kDistribution;
      config.upm.threshold = thr;
      configs.push_back(std::move(config));
    }
    const std::vector<RunResult> results =
        run_experiments(configs, options.sweep());
    TextTable table({"thr", "time (s)", "migrations", "remote frac"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      table.add_row({fmt_double(thresholds[i], 1),
                     fmt_double(r.seconds(), 3),
                     std::to_string(r.upm_stats.distribution_migrations),
                     fmt_double(r.memory_totals.remote_fraction(), 3)});
    }
    table.print(std::cout);
    std::cout << "Too high a threshold leaves misplaced pages in place; "
                 "too low risks moving shared pages.\n\n";
  }

  {
    // (b) critical-page cap sweep for record-replay on BT.
    std::cout << "(b) record-replay critical-page cap (BT, first touch, "
                 "compute scale 2)\n";
    const std::vector<std::size_t> caps = {5, 20, 80, 320};
    std::vector<RunConfig> configs;
    for (const std::size_t cap : caps) {
      RunConfig config = base_config("BT", options);
      config.upm_mode = nas::UpmMode::kRecordReplay;
      config.upm.max_critical_pages = cap;
      config.compute_scale = 2;
      configs.push_back(std::move(config));
    }
    const std::vector<RunResult> results =
        run_experiments(configs, options.sweep());
    TextTable table({"n", "time (s)", "z_solve (s)", "recrep cost (s)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      table.add_row({std::to_string(caps[i]), fmt_double(r.seconds(), 3),
                     fmt_double(ns_to_seconds(r.phase_time("z_solve")), 3),
                     fmt_double(ns_to_seconds(r.upm_stats.recrep_cost), 3)});
    }
    table.print(std::cout);
    std::cout << "The paper caps n to limit the on-critical-path cost; "
                 "past the set of genuinely critical pages, extra "
                 "migrations only add overhead.\n\n";
  }

  {
    // (c) freezing on/off on FT under first touch + distribution mode.
    std::cout << "(c) ping-pong freezing (FT, random placement)\n";
    std::vector<RunConfig> configs;
    for (const bool freeze : {true, false}) {
      RunConfig config = base_config("FT", options);
      config.placement = "rand";
      config.upm_mode = nas::UpmMode::kDistribution;
      config.upm.freeze_bouncing_pages = freeze;
      configs.push_back(std::move(config));
    }
    const std::vector<RunResult> results =
        run_experiments(configs, options.sweep());
    TextTable table({"freeze", "time (s)", "migrations", "frozen pages"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      table.add_row({i == 0 ? "on" : "off", fmt_double(r.seconds(), 3),
                     std::to_string(r.upm_stats.distribution_migrations),
                     std::to_string(r.upm_stats.frozen_pages)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  {
    // (e) replication (paper Section 1.2 extension). None of the NAS
    // codes has read-only multi-reader hot data (CG's gather vector is
    // rewritten every iteration, so the policy correctly declines it);
    // a synthetic lookup-table workload shows the win: every thread
    // gathers a shared read-only table each iteration.
    std::cout << "(e) read-only page replication (synthetic lookup "
                 "table, 16 threads)\n";
    TextTable table({"replication", "time (s)", "replications",
                     "remote frac"});
    for (const bool replicate : {false, true}) {
      auto machine = omp::Machine::create(memsys::MachineConfig{});
      machine->set_placement("ft");
      omp::Runtime& rt = machine->runtime();
      const std::uint32_t lines = machine->config().lines_per_page();
      const auto lut =
          machine->address_space().allocate("lut", 4 * kMiB);
      const auto priv =
          machine->address_space().allocate("work", 160 * kMiB);
      upm::UpmConfig upm_config;
      upm_config.enable_replication = replicate;
      upm_config.replication_min_nodes = 4;
      upm_config.replication_min_count = 64;
      upm_config.max_replicas = 15;
      upm::Upmlib upmlib(machine->mmci(), rt, upm_config);
      upmlib.memrefcnt(lut);
      const auto sweep = [&] {
        sim::RegionBuilder region = rt.make_region();
        for (std::uint32_t t = 0; t < rt.num_threads(); ++t) {
          const auto block =
              omp::static_block(ThreadId(t), rt.num_threads(), priv.count);
          for (std::uint64_t p = 0; p < lut.count; ++p) {
            region.access(ThreadId(t), lut.page(p), lines, false,
                          lines * 60);
          }
          for (std::uint64_t p = block.begin; p < block.end; ++p) {
            region.access(ThreadId(t), priv.page(p), lines, true,
                          lines * 60, /*stream=*/true);
          }
        }
        rt.run("lookup", std::move(region));
      };
      sweep();  // cold start
      upmlib.reset_hot_counters();
      machine->memory().reset_stats();
      const Ns t0 = rt.now();
      std::size_t migrations = 1;
      for (int step = 1; step <= 12; ++step) {
        sweep();
        if (step == 1 || migrations > 0) {
          migrations = upmlib.migrate_memory();
        }
      }
      table.add_row(
          {replicate ? "on" : "off",
           fmt_double(ns_to_seconds(rt.now() - t0), 3),
           std::to_string(upmlib.stats().replications),
           fmt_double(machine->memory().total_stats().remote_fraction(),
                      3)});
    }
    table.print(std::cout);
    std::cout << "With replication every node gains a local copy of the "
                 "table; without it the competitive criterion correctly "
                 "refuses to migrate an all-readers page anywhere.\n\n";
  }

  {
    // (d) amortization: MG with its paper-faithful 4 iterations vs more.
    std::cout << "(d) run-length amortization (MG, round-robin "
                 "placement)\n";
    const std::vector<std::uint32_t> iteration_counts = {4, 12, 40};
    std::vector<RunConfig> configs;
    for (const std::uint32_t iters : iteration_counts) {
      RunConfig plain = base_config("MG", options);
      plain.placement = "rr";
      plain.iterations = iters;
      RunConfig upm = plain;
      upm.upm_mode = nas::UpmMode::kDistribution;
      configs.push_back(std::move(plain));
      configs.push_back(std::move(upm));
    }
    const std::vector<RunResult> results =
        run_experiments(configs, options.sweep());
    TextTable table({"iterations", "rr-base (s)", "rr-upmlib (s)",
                     "upmlib vs plain"});
    for (std::size_t i = 0; i < iteration_counts.size(); ++i) {
      const RunResult& base = results[2 * i];
      const RunResult& with = results[2 * i + 1];
      table.add_row({std::to_string(iteration_counts[i]),
                     fmt_double(base.seconds(), 3),
                     fmt_double(with.seconds(), 3),
                     fmt_percent(slowdown(with.seconds(),
                                          base.seconds()))});
    }
    table.print(std::cout);
    std::cout << "At the paper's 4 iterations our scaled-down MG cannot "
                 "amortize the one-time migration batch; with more "
                 "iterations UPMlib wins, converging to the paper's "
                 "behaviour (see EXPERIMENTS.md).\n";
  }
  return 0;
}
