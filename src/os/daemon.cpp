#include "repro/os/daemon.hpp"

#include <algorithm>

#include "repro/common/assert.hpp"
#include "repro/os/kernel.hpp"

namespace repro::os {

KernelMigrationDaemon::KernelMigrationDaemon(DaemonConfig config)
    : config_(config) {
  REPRO_REQUIRE(config.threshold >= 1);
  REPRO_REQUIRE(config.window_ns >= 1);
}

Ns KernelMigrationDaemon::on_miss(Kernel& kernel, ProcId accessor,
                                  VPage page, const memsys::HomeInfo& home,
                                  Ns now) {
  if (page.value() >= pages_.size()) {
    pages_.resize(std::max<std::size_t>(page.value() + 1, pages_.size() * 2));
  }
  PageState& st = pages_[page.value()];
  st.seen = true;

  // Counter aging: the kernel evaluates reference counters over fixed
  // windows; a page first touched after its window expired gets a fresh
  // window (counters reset). This is what makes the daemon blind to
  // pages with modest per-window remote traffic. The counters live on
  // the home frame the miss already resolved, so neither the reset nor
  // the read below probes the page table again.
  if (!st.window_open || now - st.window_start > config_.window_ns) {
    kernel.reset_counters(home.frame);
    st.window_start = now;
    st.window_open = true;
    ++stats_.window_resets;
    return 0;
  }

  const NodeId accessor_node = kernel.node_of(accessor);
  if (accessor_node == home.node) {
    return 0;
  }
  const auto counts = kernel.counters().read(home.frame);
  const std::uint32_t remote = counts[accessor_node.value()];
  const std::uint32_t local = counts[home.node.value()];
  if (remote <= local || remote - local <= config_.threshold) {
    return 0;
  }

  // The comparator hardware raises the threshold interrupt; from here on
  // everything is the handler's migration policy.
  ++stats_.interrupts;
  const auto scan = [&](trace::DaemonDecision decision, Ns cost) {
    if (trace_ == nullptr) {
      return;
    }
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kDaemonScan;
    ev.time = now;
    ev.page = page.value();
    ev.node = static_cast<std::int32_t>(accessor_node.value());
    ev.src = static_cast<std::int32_t>(home.node.value());
    ev.a = static_cast<std::uint64_t>(decision);
    ev.cost = cost;
    trace_->emit(trace_lane_, ev);
  };
  if (st.frozen) {
    ++stats_.suppressed_frozen;
    scan(trace::DaemonDecision::kSuppressedFrozen, 0);
    return 0;
  }
  if (st.migrations > 0 &&
      now - st.last_migration < config_.page_cooloff_ns) {
    ++stats_.suppressed_cooloff;
    scan(trace::DaemonDecision::kSuppressedCooloff, 0);
    return 0;
  }
  if (any_migration_yet_ &&
      now - last_any_migration_ < config_.global_min_interval_ns) {
    ++stats_.suppressed_global;
    scan(trace::DaemonDecision::kSuppressedGlobal, 0);
    return 0;
  }

  if (trace_ != nullptr) {
    // The kernel's migration event is stamped at the sink's clock;
    // bring it up to the miss batch time before the handler runs.
    trace_->set_now(now);
  }
  const MigrationResult res = kernel.migrate_page(page, accessor_node);
  if (res.busy) {
    // Transient pin: defer rather than reject -- counters stay hot, so
    // the comparator will re-trigger and the move retries naturally.
    ++stats_.deferred_busy;
    scan(trace::DaemonDecision::kDeferredBusy, 0);
    return 0;
  }
  if (!res.migrated) {
    scan(trace::DaemonDecision::kRejected, 0);
    return 0;
  }
  scan(trace::DaemonDecision::kMigrated, res.cost);
  st.last_migration = now;
  st.window_open = false;  // fresh window on the new frame
  ++st.migrations;
  if (st.migrations >= config_.max_migrations_per_page) {
    st.frozen = true;
    if (trace_ != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kPageFreeze;
      ev.time = now;
      ev.page = page.value();
      ev.node = static_cast<std::int32_t>(res.actual.value());
      trace_->emit(trace_lane_, ev);
    }
  }
  last_any_migration_ = now;
  any_migration_yet_ = true;
  ++stats_.migrations;
  stats_.cost += res.cost;
  return res.cost;
}

std::uint64_t KernelMigrationDaemon::digest(Ns now) const {
  // Saturated relative ages (see the header): each absolute time is
  // digested as min(now - t, limit + 1) where `limit` is the only
  // threshold it is ever compared against. Ages at or beyond the limit
  // are behaviourally indistinguishable -- the comparisons are
  // monotone in `now` -- so saturating them lets a quiescent daemon's
  // digest repeat.
  const auto rel = [now](Ns t, Ns limit) {
    const Ns age = now - t;
    return static_cast<std::uint64_t>(age > limit ? limit + 1 : age);
  };
  // Entries combine by addition, so the value does not depend on the
  // order pages were first missed in; they are walked in page order.
  std::uint64_t seen = 0;
  std::uint64_t combined = 0;
  for (std::size_t page = 0; page < pages_.size(); ++page) {
    const PageState& st = pages_[page];
    if (!st.seen) {
      continue;
    }
    ++seen;
    StateHash entry_hash(avalanche64(page));
    entry_hash.mix(st.window_open ? rel(st.window_start, config_.window_ns)
                                  : ~std::uint64_t{0});
    entry_hash.mix(st.window_open ? 1 : 0);
    // last_migration only gates the cooloff check, and only once the
    // page has migrated at all.
    entry_hash.mix(st.migrations > 0
                       ? rel(st.last_migration, config_.page_cooloff_ns)
                       : ~std::uint64_t{0});
    entry_hash.mix(st.migrations);
    entry_hash.mix(st.frozen ? 1 : 0);
    combined += avalanche64(entry_hash.value());
  }
  StateHash hash;
  hash.mix(seen + combined);
  hash.mix(any_migration_yet_
               ? rel(last_any_migration_, config_.global_min_interval_ns)
               : ~std::uint64_t{0});
  hash.mix(any_migration_yet_ ? 1 : 0);
  return hash.value();
}

void KernelMigrationDaemon::advance_replayed(Ns dt) {
  for (PageState& st : pages_) {
    st.window_start += dt;
    st.last_migration += dt;
  }
  last_any_migration_ += dt;
}

}  // namespace repro::os
