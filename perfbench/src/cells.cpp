#include "cells.hpp"

#include <algorithm>
#include <random>
#include <set>

#include "digest.hpp"

namespace perfbench {

namespace {

const std::vector<std::string> kNas = {"BT", "SP", "CG", "MG", "FT"};
const std::vector<std::string> kPlacements = {"ft", "rr", "rand", "wc"};

/// Recorded placement seeds: for `rand` cells, and for each shape of
/// fresh cell.
constexpr std::size_t kRandSeedPool = 8;
constexpr std::size_t kFreshSeedPool = 16;

/// The figure benches' --fast counts; MG and FT keep their defaults.
std::uint32_t fast_iterations(const std::string& benchmark) {
  if (benchmark == "BT") {
    return 20;
  }
  if (benchmark == "SP" || benchmark == "CG") {
    return 40;
  }
  return 0;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t rand_pool_seed(std::size_t k) { return 12345 + 7919 * k; }

std::uint64_t fresh_pool_seed(std::size_t k) { return 900001 + k; }

/// Uniform draw in [0, n) that does not depend on the standard
/// library's distribution implementation.
std::size_t draw(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

std::vector<RunConfig> paper_daemon_for_rand_seed(std::uint64_t rand_seed) {
  std::vector<RunConfig> cells;
  for (const std::string& bench : kNas) {
    if (bench == "BT" || bench == "SP") {
      RunConfig recrep;
      recrep.benchmark = bench;
      recrep.placement = "ft";
      recrep.upm_mode = repro::nas::UpmMode::kRecordReplay;
      recrep.iterations = fast_iterations(bench);
      cells.push_back(recrep);
    }
    for (const std::string& placement : kPlacements) {
      RunConfig c;
      c.benchmark = bench;
      c.placement = placement;
      c.kernel_migration = true;
      c.iterations = fast_iterations(bench);
      if (placement == "rand") {
        c.seed = rand_seed;
      }
      cells.push_back(c);
    }
  }
  // Longest first (SP, then BT, then the short benchmarks): the two
  // sweep threads then finish within one short cell of each other.
  std::stable_sort(cells.begin(), cells.end(),
                   [](const RunConfig& a, const RunConfig& b) {
                     const auto rank = [](const RunConfig& c) {
                       return c.benchmark == "SP" ? 0
                              : c.benchmark == "BT" ? 1
                                                    : 2;
                     };
                     return rank(a) < rank(b);
                   });
  return cells;
}

std::vector<CellSpec> grid_for_rand_seed(std::uint64_t rand_seed) {
  std::vector<CellSpec> cells;
  for (const std::string& bench : kNas) {
    for (const std::string& placement : kPlacements) {
      for (const std::string upm : {"off", "dist"}) {
        CellSpec s;
        s.benchmark = bench;
        s.placement = placement;
        s.upm = upm;
        if (placement == "rand") {
          s.seed = rand_seed;
        }
        cells.push_back(s);
      }
    }
  }
  return cells;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-daemon", "service-grid", "rtrc-replay", "coherence-mix"};
  return names;
}

std::uint64_t rand_placement_seed(std::uint64_t workload_seed) {
  return rand_pool_seed(splitmix(workload_seed) % kRandSeedPool);
}

std::vector<RunConfig> paper_daemon_cells(std::uint64_t workload_seed) {
  return paper_daemon_for_rand_seed(rand_placement_seed(workload_seed));
}

std::vector<CellSpec> service_grid(std::uint64_t workload_seed) {
  return grid_for_rand_seed(rand_placement_seed(workload_seed));
}

CellSpec fresh_cell(std::size_t shape, std::uint64_t placement_seed) {
  // The grid's rand cells in grid order: benchmark-major, then
  // {off,dist}.
  CellSpec s;
  s.benchmark = kNas.at(shape / 2);
  s.placement = "rand";
  s.upm = shape % 2 == 0 ? "off" : "dist";
  s.seed = placement_seed;
  return s;
}

std::vector<Request> service_loop(std::uint64_t workload_seed,
                                  std::uint32_t pass) {
  std::mt19937_64 rng(splitmix(workload_seed ^ splitmix(pass + 1)));
  std::vector<Request> requests(kLoopRequests);
  const std::size_t grid_size = 5 * kPlacements.size() * 2;
  for (Request& r : requests) {
    r.grid = static_cast<int>(draw(rng, grid_size));
  }
  // Partial Fisher-Yates over the positions, and over each shape's
  // fresh seeds.
  std::vector<std::size_t> positions(kLoopRequests);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = i;
  }
  std::size_t placed = 0;
  for (std::size_t shape = 0; shape < kFreshShapes; ++shape) {
    std::vector<std::uint64_t> pool(kFreshSeedPool);
    for (std::size_t k = 0; k < pool.size(); ++k) {
      pool[k] = fresh_pool_seed(k);
    }
    for (std::size_t j = 0; j < kFreshPerShape; ++j, ++placed) {
      std::swap(pool[j], pool[j + draw(rng, pool.size() - j)]);
      std::swap(positions[placed],
                positions[placed + draw(rng, positions.size() - placed)]);
      requests[positions[placed]] = Request{-1, shape, pool[j]};
    }
  }
  return requests;
}

std::vector<RunConfig> trace_dump_configs() {
  std::vector<RunConfig> dumps;
  for (const std::string& bench : kNas) {
    RunConfig c;
    c.benchmark = bench;
    c.iterations = 60;
    c.workload.size_scale = 0.25;
    dumps.push_back(c);
  }
  return dumps;
}

std::vector<RunConfig> replay_twins() {
  std::vector<RunConfig> twins;
  for (const RunConfig& dump : trace_dump_configs()) {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const bool upmlib : {false, true}) {
        RunConfig c = dump;
        c.placement = placement;
        c.upm_mode = upmlib ? repro::nas::UpmMode::kDistribution
                            : repro::nas::UpmMode::kOff;
        twins.push_back(c);
      }
    }
  }
  return twins;
}

RunConfig replay_config(const RunConfig& twin, const std::string& trace_path) {
  RunConfig c = twin;
  c.replay = trace_path;
  return c;
}

std::string trace_path(const std::string& dir, const std::string& benchmark) {
  return dir + "/" + benchmark + ".rtrc";
}

std::vector<RunConfig> coherence_cells() {
  std::vector<RunConfig> cells;
  for (const std::string bench : {"CG", "FS", "FSP"}) {
    for (const std::string placement : {"ft", "rr"}) {
      for (const std::string policy : {"msi", "mesi"}) {
        for (const bool upmlib : {false, true}) {
          if (bench == "CG" && upmlib) {
            continue;
          }
          RunConfig c;
          c.benchmark = bench;
          c.placement = placement;
          c.coherence = policy;
          // CG pays ~0.2 s of host time per coherent iteration; four
          // keep the read-mostly capacity-miss traffic without letting
          // it drown the write-shared FS/FSP cells.
          c.iterations = bench == "CG" ? 4 : 0;
          c.upm_mode = upmlib ? repro::nas::UpmMode::kDistribution
                              : repro::nas::UpmMode::kOff;
          cells.push_back(c);
        }
      }
    }
  }
  return cells;
}

RunConfig probe_fast_forward_cell() {
  RunConfig c;
  c.benchmark = "CG";
  c.trace = true;
  return c;
}

RunConfig probe_daemon_cell() {
  RunConfig c;
  c.benchmark = "CG";
  c.placement = "rr";
  c.kernel_migration = true;
  c.iterations = 40;
  return c;
}

RunConfig probe_coherence_cell() {
  RunConfig c;
  c.benchmark = "FS";
  c.coherence = "msi";
  return c;
}

std::vector<CellSpec> probe_service_specs() {
  std::vector<CellSpec> specs;
  for (const std::string& placement : kPlacements) {
    for (const std::string upm : {"off", "dist"}) {
      CellSpec s;
      s.benchmark = "CG";
      s.placement = placement;
      s.upm = upm;
      specs.push_back(s);
    }
  }
  return specs;
}

std::vector<RunConfig> recorded_cells() {
  std::vector<RunConfig> all;
  for (std::size_t k = 0; k < kRandSeedPool; ++k) {
    for (const RunConfig& c : paper_daemon_for_rand_seed(rand_pool_seed(k))) {
      all.push_back(c);
    }
    for (const CellSpec& s : grid_for_rand_seed(rand_pool_seed(k))) {
      all.push_back(s.to_config());
    }
  }
  for (std::size_t shape = 0; shape < kFreshShapes; ++shape) {
    for (std::size_t k = 0; k < kFreshSeedPool; ++k) {
      all.push_back(fresh_cell(shape, fresh_pool_seed(k)).to_config());
    }
  }
  for (const RunConfig& c : replay_twins()) {
    all.push_back(c);
  }
  for (const RunConfig& c : coherence_cells()) {
    all.push_back(c);
  }
  all.push_back(probe_fast_forward_cell());
  all.push_back(probe_daemon_cell());
  all.push_back(probe_coherence_cell());
  for (const CellSpec& s : probe_service_specs()) {
    all.push_back(s.to_config());
  }
  std::set<std::string> seen;
  std::vector<RunConfig> unique;
  for (RunConfig& c : all) {
    if (seen.insert(cell_key(c)).second) {
      unique.push_back(std::move(c));
    }
  }
  return unique;
}

}  // namespace perfbench
