// Machine configuration.
//
// Defaults model the paper's experimental platform: a 16-node SGI
// Origin2000 with one R10000 processor considered per node (the paper
// runs on "16 idle processors" and reports the 16-node latency ladder of
// its Table 1), 16 KiB pages, 128-byte cache lines, 4 MiB of unified L2
// per processor, and per-frame 11-bit per-node reference counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "repro/common/units.hpp"

namespace repro::memsys {

struct MachineConfig {
  // --- structure -------------------------------------------------------
  std::size_t num_nodes = 16;
  std::size_t procs_per_node = 1;
  std::string topology = "fat-hypercube";

  // --- memory geometry --------------------------------------------------
  Bytes page_size = 16 * kKiB;
  Bytes cache_line = 128;
  Bytes l2_size = 4 * kMiB;            ///< unified L2 per processor
  std::size_t frames_per_node = 32768;  ///< 512 MiB per node at 16 KiB pages (8 GB machine, as the paper reports)

  // --- latency ladder (paper Table 1, contented latencies in ns) --------
  double l1_latency_ns = 5.5;
  double l2_latency_ns = 56.9;
  /// Memory latency by hop distance: index 0 = local, 1..3 = remote.
  std::vector<double> mem_latency_ns = {329.0, 564.0, 759.0, 862.0};
  /// Extrapolation step for hop counts beyond the ladder (paper: "100 to
  /// 200 ns" per additional hop).
  double extra_hop_latency_ns = 150.0;

  // --- dynamic behaviour -------------------------------------------------
  /// Blended per-line cost of an L1/L2 cache hit, charged by the
  /// page-grain cache model instead of simulating the L1 separately.
  double cache_hit_ns = 16.0;
  /// Memory-module service occupancy per line; determines how quickly a
  /// node's memory saturates under contention (the worst-case-placement
  /// effect). Origin2000 per-node bandwidth ~1 GB/s => ~125 ns / 128 B.
  double mem_occupancy_ns = 100.0;
  /// How much of the *extra* remote latency a streaming access hides per
  /// line (prefetch depth): the per-line rate of a remote stream is
  /// occupancy + (remote - local latency) / this factor. Remote streams
  /// are cheaper than blocking remote loads but still slower than local
  /// streams (network-limited bandwidth).
  double stream_hide_factor = 2.0;
  /// Cost charged to a writer per remote sharer invalidated (page-grain
  /// coherence upgrade).
  double invalidation_ns = 120.0;

  // --- page migration costs ---------------------------------------------
  /// Copying one page between nodes (DMA): 16 KiB at ~700 MB/s.
  double page_copy_ns = 15'000.0;
  /// TLB coherence: fixed remap bookkeeping plus one directed
  /// interprocessor interrupt per processor holding a live mapping.
  /// The paper's Fig. 4 implies relocating thousands of single-owner
  /// pages costs only tens of microseconds each (FT moves ~15k pages
  /// within a 5.5 s run); widely-mapped pages cost proportionally more.
  double tlb_local_flush_ns = 5'000.0;
  double tlb_shootdown_ns = 8'000.0;  ///< per mapping processor

  // --- TLB ------------------------------------------------------------------
  /// Per-processor TLB capacity in entries (pages). 0 disables TLB
  /// modelling (the default: the baseline calibration matches the
  /// paper's Table-1 latencies, which already include address
  /// translation). When enabled, every access consults the TLB and a
  /// miss charges tlb_refill_ns (R10000: software-managed refill).
  std::size_t tlb_entries = 0;
  double tlb_refill_ns = 800.0;

  // --- reference counters -------------------------------------------------
  /// Width of the per-frame per-node hardware counters (Origin2000: 11).
  unsigned counter_bits = 11;

  // --- derived -------------------------------------------------------------
  [[nodiscard]] std::size_t num_procs() const {
    return num_nodes * procs_per_node;
  }
  [[nodiscard]] std::uint32_t lines_per_page() const {
    return static_cast<std::uint32_t>(page_size / cache_line);
  }
  [[nodiscard]] std::size_t cache_capacity_pages() const {
    return static_cast<std::size_t>(l2_size / page_size);
  }
  [[nodiscard]] std::size_t total_frames() const {
    return num_nodes * frames_per_node;
  }
  [[nodiscard]] std::uint32_t counter_max() const {
    return (1u << counter_bits) - 1u;
  }

  /// Validates internal consistency; throws ContractViolation otherwise.
  void validate() const;
};

}  // namespace repro::memsys
