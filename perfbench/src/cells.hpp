// The cells and traffic of each workload, as pure functions of the
// workload seed. The seed picks the placement seed of every `rand`
// cell (from a pool of 8 recorded seeds), and the service-grid request
// order and the placement seeds of its fresh cells; the other inputs are
// fixed so every seed does the same amount of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repro/harness/run.hpp"
#include "repro/service/cellspec.hpp"

namespace perfbench {

using repro::harness::RunConfig;
using repro::service::CellSpec;

/// Sweep threads of the sweep workloads. Two give the steadiest figures
/// on a 4-core host: fig4_upmlib spread over 15.6-19.0 s in three runs
/// at four jobs, 28.5-28.6 s at two.
inline constexpr std::size_t kWorkers = 2;

/// Worker processes of the service-grid daemon. One: with two, a pass
/// ran 17% slower, mostly in the cold grid request, while three other
/// processes kept the host's cores busy; with one it did not slow at
/// all. So with two, service-grid's wall_s followed the neighbours' load
/// on a shared host.
/// With two, an idle worker also re-ran every miss as a straggler
/// duplicate; one worker is never idle while a cell is in flight.
inline constexpr std::size_t kServiceWorkers = 1;

/// Requests per service-grid pass after the cold grid request, and how
/// many of them are fresh cells. The fresh share is an assumption, not
/// a measured traffic mix: no trace of real service traffic exists. It
/// is one fresh cell per grid `rand` shape, few enough that the hit
/// path stays a visible part of the pass's wall time, so a slower hit
/// path shows in wall_s and not only in hit_p50_ms.
inline constexpr std::size_t kLoopRequests = 8000;
inline constexpr std::size_t kFreshPerShape = 1;

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The placement seed of every `rand` cell under `workload_seed`.
[[nodiscard]] std::uint64_t rand_placement_seed(std::uint64_t workload_seed);

/// paper-daemon: 5 NAS x {ft,rr,rand,wc}-IRIXmig plus BT and SP
/// ft-recrep at the figure benches' --fast iteration counts, longest
/// first so two sweep threads finish together.
[[nodiscard]] std::vector<RunConfig> paper_daemon_cells(
    std::uint64_t workload_seed);

/// service-grid's 40 steady-state cells: 5 NAS x {ft,rr,rand,wc} x
/// {base,upmlib} at the paper-default iteration counts.
[[nodiscard]] std::vector<CellSpec> service_grid(std::uint64_t workload_seed);

/// The shapes of a fresh cell: the grid's `rand` cells, one per NAS
/// benchmark and UPMlib mode.
inline constexpr std::size_t kFreshShapes = 10;
inline constexpr std::size_t kFreshRequests = kFreshShapes * kFreshPerShape;

/// A fresh service cell: grid `rand` shape `shape` (< kFreshShapes), at
/// the grid's default size and iteration count, under a placement seed
/// no grid cell uses, so its identity is new to a fresh cache.
[[nodiscard]] CellSpec fresh_cell(std::size_t shape,
                                  std::uint64_t placement_seed);

/// One request of the service-grid loop: a repeat of grid cell `grid`
/// (a cache hit), or, when `grid` < 0, the fresh cell of `fresh_shape`
/// under `fresh_seed`.
struct Request {
  int grid = -1;
  std::size_t fresh_shape = 0;
  std::uint64_t fresh_seed = 0;

  [[nodiscard]] CellSpec fresh() const {
    return fresh_cell(fresh_shape, fresh_seed);
  }
};

/// Pass `pass`'s kLoopRequests requests: kFreshPerShape fresh cells of
/// every shape, each under its own seeded placement seed, at seeded
/// positions; the rest uniform repeats of grid cells.
[[nodiscard]] std::vector<Request> service_loop(std::uint64_t workload_seed,
                                                std::uint32_t pass);

/// rtrc-replay set-up: BT/SP/CG/MG/FT dumped at 60 iterations and a
/// quarter of the default problem size.
[[nodiscard]] std::vector<RunConfig> trace_dump_configs();

/// The direct twins of the rtrc-replay cells: each dumped benchmark
/// under {ft,rr,wc} x {base,upmlib}. replay_config() turns one into
/// its replay cell.
[[nodiscard]] std::vector<RunConfig> replay_twins();

[[nodiscard]] RunConfig replay_config(const RunConfig& twin,
                                      const std::string& trace_path);

/// The file rtrc-replay dumps `benchmark` to inside `dir`.
[[nodiscard]] std::string trace_path(const std::string& dir,
                                     const std::string& benchmark);

/// coherence-mix: CG {ft,rr} x {msi,mesi} base plus FS and FSP
/// {ft,rr} x {msi,mesi} x {base,upmlib}.
[[nodiscard]] std::vector<RunConfig> coherence_cells();

/// Cells the traced run drives for a layer that the traced workload
/// itself never runs (see traced.hpp).
[[nodiscard]] RunConfig probe_fast_forward_cell();
[[nodiscard]] RunConfig probe_daemon_cell();
[[nodiscard]] RunConfig probe_coherence_cell();
[[nodiscard]] std::vector<CellSpec> probe_service_specs();

/// Every direct cell any workload seed or the traced run can ask for:
/// the set --record-digests records.
[[nodiscard]] std::vector<RunConfig> recorded_cells();

}  // namespace perfbench
