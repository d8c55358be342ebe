// Kernel-level competitive page-migration daemon.
//
// Models the IRIX engine, which follows the Stanford FLASH scheme
// (Verghese et al., ASPLOS'96): per-frame hardware counters compare the
// access count of each remote node against the home node's count; when
// the difference crosses a threshold the hardware raises an interrupt
// and the handler runs a migration policy subject to resource
// constraints, dampening and per-page freezing.
//
// Two deliberate weaknesses distinguish it from UPMlib (this is the
// paper's point):
//  * it is not iteration-aware: it evaluates counters over fixed time
//    windows (the kernel periodically resets a page's counters to age
//    its view), so pages whose remote traffic is modest *per window* --
//    however persistent across a long run -- never trip the threshold;
//  * its migrations run mid-computation in the interrupt handler, are
//    rate-limited globally and per page, and pages that keep migrating
//    are frozen.
#pragma once

#include <cstdint>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/memsys/backend.hpp"
#include "repro/trace/sink.hpp"

namespace repro::os {

class Kernel;

struct DaemonConfig {
  /// Counter difference (remote - home) within one window that raises
  /// the interrupt.
  std::uint32_t threshold = 200;
  /// Counter-aging window: a page's counters are reset when first
  /// accessed after this much time has passed since its window opened.
  Ns window_ns = 500 * kNsPerMs;
  /// Minimum simulated time between two migrations of the same page.
  Ns page_cooloff_ns = 5 * kNsPerMs;
  /// A page that migrates more than this many times is frozen for the
  /// rest of the run (IRIX bounce control).
  std::uint32_t max_migrations_per_page = 4;
  /// Global dampening: minimum time between any two daemon migrations.
  Ns global_min_interval_ns = 300 * kNsPerUs;
};

struct DaemonStats {
  std::uint64_t interrupts = 0;
  std::uint64_t migrations = 0;
  std::uint64_t window_resets = 0;
  std::uint64_t suppressed_cooloff = 0;
  std::uint64_t suppressed_frozen = 0;
  std::uint64_t suppressed_global = 0;
  /// Moves deferred because the page was transiently pinned (injected
  /// fault); the next comparator interrupt simply retries.
  std::uint64_t deferred_busy = 0;
  Ns cost = 0;

  /// Field-wise `end - start`: what the span between two reads added.
  [[nodiscard]] static DaemonStats delta(const DaemonStats& start,
                                         const DaemonStats& end);
  /// Adds `times` copies of `delta` (a fast-forward replay of `times`
  /// blocks that each added `delta`).
  void advance(const DaemonStats& delta, std::uint64_t times);
  friend bool operator==(const DaemonStats&, const DaemonStats&) = default;
};

class KernelMigrationDaemon {
 public:
  explicit KernelMigrationDaemon(DaemonConfig config);

  /// Called by the kernel on every miss batch, after the counters were
  /// incremented. `home` is the page's resolved home: the daemon reads
  /// and resets the counters of `home.frame`, without another page-table
  /// probe. Returns the interrupt-handler cost to charge to the
  /// faulting processor (0 when nothing fires). The same as observe()
  /// followed, when it returns true, by the interrupt handler.
  Ns on_miss(Kernel& kernel, ProcId accessor, VPage page,
             const memsys::HomeInfo& home, Ns now);

  /// The hardware half of on_miss, up to the comparator: ages the
  /// page's counter window (resetting the counters when it expired) and
  /// returns true when the comparator raises the threshold interrupt.
  /// Changes nothing else, so a run of misses that raises no interrupt
  /// leaves the daemon and the counters exactly where on_miss would.
  /// The harness fast-forward runs this alone to continue the daemon
  /// over a logged miss stream.
  bool observe(Kernel& kernel, ProcId accessor, VPage page,
               const memsys::HomeInfo& home, Ns now);

  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  [[nodiscard]] const DaemonConfig& config() const { return config_; }

  /// Behavioural state digest at simulated time `now`. Per-page
  /// window/cooloff state holds *absolute* simulated times, but every
  /// one of them only influences behaviour through a single comparison
  /// against `now` with a fixed threshold from the config -- so the
  /// digest mixes the *saturated relative* age min(now - t, threshold)
  /// instead of t. Two states with equal digests therefore behave
  /// identically under any common time shift, which is exactly the
  /// property the harness fast-forward needs: when the daemon's state
  /// repeats with the workload the remaining iterations can be
  /// replayed; while it is actively migrating, per-page migration
  /// counts and fresh window/cooloff ages keep the digest changing.
  /// (A daemon whose windows drift against the iteration is continued
  /// over a logged miss stream instead, see observe().)
  [[nodiscard]] std::uint64_t digest(Ns now) const;

  /// Shifts every stored absolute time forward by `dt`. Called by the
  /// harness fast-forward after synthesizing `dt` worth of iterations,
  /// so a subsequent simulated iteration observes exactly the state a
  /// full simulation would have reached (the replayed span is
  /// time-periodic, so a pure translation is exact).
  void advance_replayed(Ns dt);

  /// Adds `blocks` copies of the per-block statistics delta `delta`
  /// (the harness fast-forward, after synthesizing `blocks` blocks).
  void advance_stats_replayed(const DaemonStats& delta,
                              std::uint64_t blocks) {
    stats_.advance(delta, blocks);
  }

  /// Attaches an event sink (null to detach): every comparator
  /// interrupt's handler decision becomes one kDaemonScan event, and
  /// bounce-control freezes become kPageFreeze.
  void set_trace(trace::TraceSink* sink, std::uint16_t lane) {
    trace_ = sink;
    trace_lane_ = lane;
  }

 private:
  struct PageState {
    Ns window_start = 0;
    Ns last_migration = 0;
    std::uint32_t migrations = 0;
    /// The page has missed at least once; only such pages are digested.
    bool seen = false;
    bool window_open = false;
    bool frozen = false;
  };

  /// The interrupt handler's migration policy, run after observe()
  /// returned true for the same miss.
  Ns handle_interrupt(Kernel& kernel, ProcId accessor, VPage page,
                      const memsys::HomeInfo& home, Ns now);

  DaemonConfig config_;
  DaemonStats stats_;
  /// Indexed by virtual page: pages are dense from 0 (vm::AddressSpace),
  /// so the per-miss lookup is one bounds check and one load.
  std::vector<PageState> pages_;
  Ns last_any_migration_ = 0;
  bool any_migration_yet_ = false;
  trace::TraceSink* trace_ = nullptr;
  std::uint16_t trace_lane_ = 0;
};

}  // namespace repro::os
