// Google-benchmark microbenchmarks for the building blocks: cache
// touches, directory transitions, counter updates, the memory-system
// access path, page migration, UPMlib scan/migrate passes, machine
// bring-up, the daemon cell's kernel digest, the line-grain coherence
// model's per-line cost (warm, and a cold sweep that builds the
// directory), the canonical-trace digest and whole
// simulated iterations, with and without the kernel daemon. These
// measure *host* performance of the simulator (how fast the
// reproduction runs), not simulated time.
#include <benchmark/benchmark.h>

#include <string>

#include "repro/coherence/model.hpp"
#include "repro/memsys/memory_system.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/os/daemon.hpp"
#include "repro/sim/program.hpp"
#include "repro/topology/topology.hpp"
#include "repro/trace/export.hpp"
#include "repro/upmlib/upmlib.hpp"
#include "repro/vm/counters.hpp"

namespace {

using namespace repro;

void BM_PageCacheTouch(benchmark::State& state) {
  memsys::PageCache cache(256);
  std::uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.touch(VPage(page)));
    page = (page + 1) % 512;  // always-miss cyclic sweep
  }
}
BENCHMARK(BM_PageCacheTouch);

void BM_DirectoryWrite(benchmark::State& state) {
  memsys::Directory dir(16);
  std::uint32_t proc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.on_write(ProcId(proc), VPage(7)));
    proc = (proc + 1) % 16;
  }
}
BENCHMARK(BM_DirectoryWrite);

void BM_CounterIncrement(benchmark::State& state) {
  vm::RefCounters counters(1024, 16, 11);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    counters.increment(FrameId(frame), NodeId(3), 16);
    frame = (frame + 1) % 1024;
  }
}
BENCHMARK(BM_CounterIncrement);

void BM_TopologyHops(benchmark::State& state) {
  const topo::FatHypercube topology(64);
  std::uint32_t a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.hops(NodeId(a), NodeId(63 - a)));
    a = (a + 1) % 64;
  }
}
BENCHMARK(BM_TopologyHops);

void BM_MemoryAccess(benchmark::State& state) {
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  Ns now = 0;
  std::uint64_t page = 0;
  for (auto _ : state) {
    const auto r = machine->memory().access(
        now, {ProcId(0), VPage(page), 128, false});
    now += r.elapsed;
    page = (page + 1) % 1024;  // thrash: all misses
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryAccess);

void BM_PageMigration(benchmark::State& state) {
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  for (std::uint64_t p = 0; p < 4096; ++p) {
    machine->memory().access(0, {ProcId(0), VPage(p), 1, true});
  }
  std::uint64_t page = 0;
  std::uint32_t target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine->kernel().migrate_page(VPage(page), NodeId(target)));
    page = (page + 1) % 4096;
    target = 1 + (target + 1) % 15;
  }
}
BENCHMARK(BM_PageMigration);

void BM_UpmlibScanPass(benchmark::State& state) {
  // A full migrate_memory() scan over `range` hot pages where nothing
  // qualifies: the steady-state cost of the engine.
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  const auto hot = machine->address_space().allocate_pages(
      "hot", static_cast<std::uint64_t>(state.range(0)));
  upm::UpmConfig config;
  config.freeze_bouncing_pages = false;
  for (std::uint64_t p = 0; p < hot.count; ++p) {
    machine->memory().access(0, {ProcId(0), hot.page(p), 1, true});
  }
  for (auto _ : state) {
    // A fresh engine per pass (the real one deactivates after the first
    // empty pass).
    upm::Upmlib upmlib(machine->mmci(), machine->runtime(), config);
    upmlib.memrefcnt(hot);
    benchmark::DoNotOptimize(upmlib.migrate_memory());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UpmlibScanPass)->Arg(1024)->Arg(8192);

void BM_TlbLookup(benchmark::State& state) {
  memsys::MachineConfig config;
  config.tlb_entries = 128;
  auto machine = omp::Machine::create(config);
  Ns now = 0;
  std::uint64_t page = 0;
  for (auto _ : state) {
    const auto r = machine->memory().access(
        now, {ProcId(0), VPage(page), 1, false});
    now += r.elapsed;
    page = (page + 1) % 256;  // 2x TLB reach: every lookup misses
  }
}
BENCHMARK(BM_TlbLookup);

void BM_Replication(benchmark::State& state) {
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  for (std::uint64_t p = 0; p < 8192; ++p) {
    machine->memory().access(0, {ProcId(0), VPage(p), 1, true});
  }
  std::uint64_t page = 0;
  std::uint32_t node = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine->kernel().replicate_page(VPage(page), NodeId(node)));
    machine->kernel().collapse_replicas(VPage(page));
    page = (page + 1) % 8192;
    node = 1 + (node + 1) % 15;
  }
}
BENCHMARK(BM_Replication);

void BM_CompiledRegionRun(benchmark::State& state) {
  // Batched-engine throughput on a compiled region program: 16 threads
  // striding over a shared array, compiled once and replayed.
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  machine->set_placement("ft");
  omp::Runtime& rt = machine->runtime();
  const std::uint32_t lines = machine->config().lines_per_page();
  const auto data = machine->address_space().allocate("data", 16 * kMiB);
  sim::RegionBuilder region = rt.make_region();
  for (std::uint32_t t = 0; t < rt.num_threads(); ++t) {
    for (std::uint64_t p = t; p < data.count; p += rt.num_threads()) {
      region.access(ThreadId(t), data.page(p), lines, false, lines * 60);
    }
  }
  const sim::RegionProgram program =
      sim::RegionProgram::compile(std::move(region));
  for (auto _ : state) {
    rt.run("micro", program);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(program.size()));
}
BENCHMARK(BM_CompiledRegionRun);

void BM_MachineCreate(benchmark::State& state) {
  // Bring-up and teardown of the default 16-node machine: the fixed
  // host cost of every cell, whatever it simulates.
  for (auto _ : state) {
    benchmark::DoNotOptimize(omp::Machine::create(memsys::MachineConfig{}));
  }
}
BENCHMARK(BM_MachineCreate)->Unit(benchmark::kMicrosecond);

void BM_KernelDigestWithDaemon(benchmark::State& state) {
  // The kernel's share of a fast-forward probe in a daemon cell: page
  // table, daemon page state and the reference counters, with 4096
  // touched frames. Each page's first miss opens its daemon window
  // (resetting its counters); a second processor's miss then leaves a
  // nonzero counter behind.
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  machine->enable_kernel_daemon(os::DaemonConfig{});
  for (std::uint64_t p = 0; p < 4096; ++p) {
    const auto proc = static_cast<std::uint32_t>(p % 16);
    machine->memory().access(0, {ProcId(proc), VPage(p), 1, false});
    machine->memory().access(0,
                             {ProcId((proc + 1) % 16), VPage(p), 1, false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine->kernel().digest(0));
  }
}
BENCHMARK(BM_KernelDigestWithDaemon)->Unit(benchmark::kMicrosecond);

void BM_CoherenceLineStream(benchmark::State& state) {
  // Host cost per coherent line: the default 16-proc machine under
  // MESI, each proc sweeping whole pages (128-line accesses) over its
  // own 360 pages, every 4th page written -- the capacity-miss,
  // Exclusive-fill and dirty-writeback path of a NAS sweep.
  const memsys::MachineConfig machine;
  coherence::CoherenceConfig config;
  config.policy = coherence::Policy::kMesi;
  coherence::CoherenceModel model(machine, config);
  constexpr std::uint64_t kPagesPerProc = 360;
  const std::uint32_t procs = static_cast<std::uint32_t>(machine.num_procs());
  memsys::LineAccess access;
  access.lines = machine.lines_per_page();
  std::uint64_t step = 0;
  for (auto _ : state) {
    const auto proc = static_cast<std::uint32_t>(step % procs);
    const std::uint64_t k = (step / procs) % kPagesPerProc;
    access.proc = ProcId(proc);
    access.page = VPage(1 + proc * kPagesPerProc + k);
    access.write = k % 4 == 0;
    benchmark::DoNotOptimize(model.on_access(0, access));
    ++step;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(access.lines));
}
BENCHMARK(BM_CoherenceLineStream);

void BM_CoherenceColdSweep(benchmark::State& state) {
  // A coherent cell's first lap, directory build included: a fresh
  // default model under MESI per iteration, then one whole-page sweep
  // of BM_CoherenceLineStream's pattern over all 16 x 360 pages (CG's
  // footprint), so every page allocates its directory block.
  const memsys::MachineConfig machine;
  coherence::CoherenceConfig config;
  config.policy = coherence::Policy::kMesi;
  constexpr std::uint64_t kPagesPerProc = 360;
  const std::uint32_t procs = static_cast<std::uint32_t>(machine.num_procs());
  memsys::LineAccess access;
  access.lines = machine.lines_per_page();
  for (auto _ : state) {
    coherence::CoherenceModel model(machine, config);
    for (std::uint64_t k = 0; k < kPagesPerProc; ++k) {
      for (std::uint32_t proc = 0; proc < procs; ++proc) {
        access.proc = ProcId(proc);
        access.page = VPage(1 + proc * kPagesPerProc + k);
        access.write = k % 4 == 0;
        benchmark::DoNotOptimize(model.on_access(0, access));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPagesPerProc * procs *
                                                    access.lines));
}
BENCHMARK(BM_CoherenceColdSweep)->Unit(benchmark::kMillisecond);

void BM_CoherenceProbe(benchmark::State& state) {
  // The coherence share of one fast-forward probe: the behavioural
  // digest of a default MESI model warmed by one BM_CoherenceColdSweep
  // lap (every way of the 16 x 64 x 8 caches valid, 5,760 directory
  // blocks). The digest walks the ways, not the directory.
  const memsys::MachineConfig machine;
  coherence::CoherenceConfig config;
  config.policy = coherence::Policy::kMesi;
  coherence::CoherenceModel model(machine, config);
  constexpr std::uint64_t kPagesPerProc = 360;
  const std::uint32_t procs = static_cast<std::uint32_t>(machine.num_procs());
  memsys::LineAccess access;
  access.lines = machine.lines_per_page();
  for (std::uint64_t k = 0; k < kPagesPerProc; ++k) {
    for (std::uint32_t proc = 0; proc < procs; ++proc) {
      access.proc = ProcId(proc);
      access.page = VPage(1 + proc * kPagesPerProc + k);
      access.write = k % 4 == 0;
      benchmark::DoNotOptimize(model.on_access(0, access));
    }
  }
  for (auto _ : state) {
    StateHash hash;
    model.digest(hash);
    benchmark::DoNotOptimize(hash.value());
  }
}
BENCHMARK(BM_CoherenceProbe)->Unit(benchmark::kMicrosecond);

void BM_TraceDigest(benchmark::State& state) {
  // Host cost per event of a traced cell's digest (the canonical merge
  // walk and the packed word hash): 8 lanes x 4096 events, every kind,
  // equal-time ties across lanes, payloads of one to thirteen digits.
  trace::TraceSink sink;
  constexpr std::uint16_t kLanes = 8;
  constexpr std::uint32_t kEventsPerLane = 4096;
  for (std::uint16_t l = 0; l < kLanes; ++l) {
    sink.register_lane("lane" + std::to_string(l));
  }
  const std::uint32_t phases[] = {sink.intern_phase("x_solve"),
                                  sink.intern_phase("y_solve"),
                                  sink.intern_phase("z_solve")};
  for (std::uint32_t i = 0; i < kEventsPerLane; ++i) {
    sink.set_iteration(i / 512);
    sink.set_phase(phases[i % 3]);
    for (std::uint16_t l = 0; l < kLanes; ++l) {
      trace::TraceEvent ev;
      ev.time = static_cast<Ns>(i) * 1000 + (l % 2) * 250;
      ev.kind = static_cast<trace::EventKind>((i + l) %
                                              trace::kNumEventKinds);
      ev.page = 1 + static_cast<std::uint64_t>(i) * 977;
      ev.a = static_cast<std::uint64_t>(i) << (l * 4);
      ev.b = l;
      ev.cost = i % 7 == 0 ? 25000 : 0;
      ev.node = static_cast<std::int32_t>(l) - 1;
      ev.src = static_cast<std::int32_t>(i % 16);
      ev.dst = static_cast<std::int32_t>((i + l) % 16);
      sink.emit(l, ev);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::digest(sink));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sink.size()));
}
BENCHMARK(BM_TraceDigest)->Unit(benchmark::kMicrosecond);

void BM_NasIteration(benchmark::State& state) {
  // Host cost of simulating one full BT iteration (~26k events).
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  machine->set_placement("ft");
  nas::WorkloadParams params;
  auto workload = nas::make_workload("BT", params);
  workload->setup(*machine);
  workload->cold_start(*machine);
  std::uint32_t step = 1;
  for (auto _ : state) {
    workload->iteration(*machine, nas::IterationContext{}, step++);
  }
}
BENCHMARK(BM_NasIteration)->Unit(benchmark::kMillisecond);

void BM_NasIterationDaemon(benchmark::State& state) {
  // The paper-daemon shape: one full SP rr iteration with the kernel
  // migration daemon on, so every miss also runs the counter increment
  // and the daemon's comparator.
  auto machine = omp::Machine::create(memsys::MachineConfig{});
  machine->set_placement("rr");
  machine->enable_kernel_daemon(os::DaemonConfig{});
  nas::WorkloadParams params;
  auto workload = nas::make_workload("SP", params);
  workload->setup(*machine);
  workload->cold_start(*machine);
  std::uint32_t step = 1;
  for (auto _ : state) {
    workload->iteration(*machine, nas::IterationContext{}, step++);
  }
}
BENCHMARK(BM_NasIterationDaemon)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
