// Multiprogramming ablation (beyond the paper's scope by its own
// footnote 3, which defers scheduler interference to the authors'
// companion work): what happens when the OS rebinds threads to
// different processors mid-run, invalidating the placement UPMlib
// established — and how the engine recovers when the scheduler
// notifies it.
//
// Scenario: BT under first-touch with UPMlib; after one third of the
// iterations the scheduler rotates every thread to the next node (a
// gang rescheduling after another job departs). Three configurations:
//   (a) no UPMlib           — the program keeps paying remote accesses;
//   (b) UPMlib, no notify   — the engine already self-deactivated and
//                             never notices the upheaval;
//   (c) UPMlib + notify     — notify_thread_rebinding() reactivates the
//                             engine, which re-distributes everything.
//
// Usage: ablation_multiprog [--iterations=N]
#include <iostream>
#include <string>

#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/upmlib/upmlib.hpp"

using namespace repro;

namespace {

struct Outcome {
  double total_s = 0;
  double post_rebind_iter_ms = 0;
  std::uint64_t migrations = 0;
};

Outcome run(std::uint32_t iterations, bool use_upmlib, bool notify) {
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  machine->set_placement("ft");
  auto workload = nas::make_workload("BT", {});
  workload->setup(*machine);

  std::unique_ptr<upm::Upmlib> upmlib;
  if (use_upmlib) {
    upmlib = std::make_unique<upm::Upmlib>(machine->mmci(),
                                           machine->runtime(), upm::UpmConfig{});
    workload->register_hot(*upmlib);
  }
  workload->cold_start(*machine);
  if (upmlib) {
    upmlib->reset_hot_counters();
  }

  omp::Runtime& rt = machine->runtime();
  const Ns t0 = rt.now();
  std::size_t last_migrations = 1;
  Ns last_iter = 0;
  for (std::uint32_t step = 1; step <= iterations; ++step) {
    if (step == iterations / 3 + 1) {
      // The scheduler rotates every thread one node over (a chain of
      // pairwise exchanges keeps the binding a bijection throughout).
      const std::size_t threads = rt.num_threads();
      for (std::uint32_t t = 0; t + 1 < threads; ++t) {
        rt.swap_binding(ThreadId(t),
                        ThreadId(static_cast<std::uint32_t>(t + 1)));
      }
      if (upmlib && notify) {
        upmlib->notify_thread_rebinding();
        last_migrations = 1;
      }
    }
    const Ns iter_start = rt.now();
    workload->iteration(*machine, nas::IterationContext{}, step);
    if (upmlib && (step == 1 || last_migrations > 0)) {
      last_migrations = upmlib->migrate_memory();
    }
    last_iter = rt.now() - iter_start;
  }
  Outcome out;
  out.total_s = ns_to_seconds(rt.now() - t0);
  out.post_rebind_iter_ms = ns_to_ms(last_iter);
  if (upmlib) {
    out.migrations = upmlib->stats().distribution_migrations;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t iterations = 30;
  harness::Cli cli("ablation_multiprog");
  cli.add_uint("iterations", &iterations,
               "timed iterations (threads rotate after a third)", /*min=*/1);
  switch (cli.parse(argc, argv)) {
    case harness::Cli::Status::kHelp:
      std::cout << cli.usage();
      return 0;
    case harness::Cli::Status::kError:
      std::cerr << "error: " << cli.error() << "\n\n" << cli.usage();
      return 2;
    case harness::Cli::Status::kOk:
      break;
  }

  std::cout << "Multiprogramming ablation: BT, first touch, thread "
               "rotation after iteration " << iterations / 3 << " of "
            << iterations << "\n\n";

  TextTable table({"configuration", "total (s)", "final iter (ms)",
                   "migrations"});
  const Outcome plain = run(iterations, false, false);
  const Outcome deaf = run(iterations, true, false);
  const Outcome aware = run(iterations, true, true);
  table.add_row({"no UPMlib", fmt_double(plain.total_s, 3),
                 fmt_double(plain.post_rebind_iter_ms, 2), "0"});
  table.add_row({"UPMlib, not notified", fmt_double(deaf.total_s, 3),
                 fmt_double(deaf.post_rebind_iter_ms, 2),
                 std::to_string(deaf.migrations)});
  table.add_row({"UPMlib + scheduler notify", fmt_double(aware.total_s, 3),
                 fmt_double(aware.post_rebind_iter_ms, 2),
                 std::to_string(aware.migrations)});
  table.print(std::cout);
  std::cout << "\nWithout notification the self-deactivated engine never "
               "sees the upheaval; with it, the first post-rebinding "
               "pass restores thread-local placement (companion-paper "
               "mechanism).\n";
  return 0;
}
