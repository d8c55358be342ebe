#include "repro/os/kernel.hpp"

#include <cmath>
#include <limits>

#include "repro/common/assert.hpp"
#include "repro/common/log.hpp"

namespace repro::os {

namespace {

/// True when `v` fits a MissLog::Miss field of type T.
template <class T>
bool fits(std::uint64_t v) {
  return v <= std::numeric_limits<T>::max();
}

}  // namespace

KernelStats KernelStats::delta(const KernelStats& start,
                               const KernelStats& end) {
  KernelStats d;
  d.page_faults = end.page_faults - start.page_faults;
  d.migrations = end.migrations - start.migrations;
  d.rejected_migrations = end.rejected_migrations - start.rejected_migrations;
  d.busy_migrations = end.busy_migrations - start.busy_migrations;
  d.redirected_migrations =
      end.redirected_migrations - start.redirected_migrations;
  d.migration_cost = end.migration_cost - start.migration_cost;
  d.replications = end.replications - start.replications;
  d.replica_collapses = end.replica_collapses - start.replica_collapses;
  return d;
}

void KernelStats::advance(const KernelStats& delta, std::uint64_t times) {
  page_faults += delta.page_faults * times;
  migrations += delta.migrations * times;
  rejected_migrations += delta.rejected_migrations * times;
  busy_migrations += delta.busy_migrations * times;
  redirected_migrations += delta.redirected_migrations * times;
  migration_cost += delta.migration_cost * times;
  replications += delta.replications * times;
  replica_collapses += delta.replica_collapses * times;
}

Kernel::Kernel(const memsys::MachineConfig& config,
               const topo::Topology& topology)
    : config_(config),
      topology_(&topology),
      phys_(config.num_nodes, config.frames_per_node, topology),
      counters_(config.total_frames(), config.num_nodes,
                config.counter_bits),
      policy_(std::make_unique<vm::FirstTouchPlacement>(
          config.num_nodes, config.procs_per_node)) {
  config_.validate();
}

Kernel::~Kernel() = default;

void Kernel::set_policy(std::unique_ptr<vm::PlacementPolicy> policy) {
  REPRO_REQUIRE(policy != nullptr);
  policy_ = std::move(policy);
}

void Kernel::set_daemon(std::unique_ptr<KernelMigrationDaemon> daemon) {
  daemon_ = std::move(daemon);
}

vm::PlacementPolicy& Kernel::policy() { return *policy_; }

NodeId Kernel::node_of(ProcId proc) const {
  REPRO_REQUIRE(proc.value() < config_.num_procs());
  return NodeId(proc.value() /
                static_cast<std::uint32_t>(config_.procs_per_node));
}

memsys::HomeInfo Kernel::resolve(ProcId accessor, VPage page, bool write) {
  // One page-table probe per access: the mapper set, the dirty bit and
  // the replica list are all updated on the entry it returns.
  vm::PageTable::Entry* entry = table_.find(page);
  if (entry == nullptr) {
    // Page fault: the active placement policy chooses the home node.
    ++stats_.page_faults;
    const NodeId preferred = policy_->place(page, accessor);
    const auto frame = phys_.allocate(preferred);
    REPRO_REQUIRE_MSG(frame.has_value(), "machine out of physical memory");
    entry = &table_.map(page, *frame);
  }
  entry->note_mapper(accessor);
  const FrameId frame = entry->frame;
  const NodeId home = phys_.node_of(frame);
  if (write) {
    entry->dirty = true;
    if (entry->has_replicas()) {
      // Writing a replicated page collapses every replica (the
      // page-grain coherence action); the cost lands on the writer.
      pending_penalty_ += collapse_replicas(page);
    }
    return {home, frame};
  }
  // Reads are served from the closest copy; the reference counters
  // stay aggregated on the primary frame.
  NodeId best = home;
  if (entry->has_replicas()) {
    const NodeId from = node_of(accessor);
    unsigned best_hops = topology_->hops(from, best);
    for (const FrameId replica : entry->replicas()) {
      const NodeId node = phys_.node_of(replica);
      const unsigned h = topology_->hops(from, node);
      if (h < best_hops) {
        best_hops = h;
        best = node;
      }
    }
  }
  return {best, frame};
}

Ns Kernel::on_miss(ProcId accessor, VPage page, const memsys::HomeInfo& home,
                   std::uint32_t lines, Ns now) {
  ++misses_;
  if (miss_log_ != nullptr) {
    log_miss(accessor, page, home, lines, now);
  }
  counters_.increment(home.frame, node_of(accessor), lines);
  Ns penalty = pending_penalty_;
  pending_penalty_ = 0;
  if (daemon_ != nullptr) {
    penalty += daemon_->on_miss(*this, accessor, page, home, now);
  }
  return penalty;
}

Ns Kernel::migration_cost_for(VPage page) const {
  const unsigned mappers = table_.mapper_count(page);
  double cost = config_.page_copy_ns + config_.tlb_local_flush_ns;
  // One directed interprocessor interrupt per processor holding a live
  // mapping of the page.
  cost += static_cast<double>(mappers) * config_.tlb_shootdown_ns;
  return static_cast<Ns>(std::llround(cost));
}

MigrationResult Kernel::migrate_page(VPage page, NodeId target) {
  REPRO_REQUIRE(target.value() < config_.num_nodes);
  REPRO_REQUIRE_MSG(table_.is_mapped(page), "migrating an unmapped page");

  MigrationResult out;
  // Injected transient pin: reject before touching any state so the
  // request is cleanly retryable.
  if (fault_ != nullptr && fault_->migration_busy(page)) {
    ++stats_.busy_migrations;
    out.busy = true;
    out.actual = home_of(page);
    return out;
  }

  // A replicated page must be coherent before it can move.
  out.cost += collapse_replicas(page);
  const FrameId old_frame = *table_.lookup(page);
  const NodeId old_node = phys_.node_of(old_frame);
  if (old_node == target) {
    out.actual = old_node;
    return out;
  }

  // The source node is excluded from best-effort redirection: landing
  // "back home" would be a pointless copy.
  auto new_frame = phys_.allocate(target, old_node);
  if (!new_frame) {
    ++stats_.rejected_migrations;
    out.actual = old_node;
    return out;
  }
  const NodeId actual = phys_.node_of(*new_frame);
  if (actual != target) {
    ++stats_.redirected_migrations;
  }

  out.cost += migration_cost_for(page);
  if (tlb_invalidator_ != nullptr) {
    tlb_invalidator_->invalidate_tlb_entries(page);
  }
  table_.remap(page, *new_frame);
  phys_.free(old_frame);
  // Hardware counters belong to the physical frame; the new frame
  // starts clean (and the old frame's counters are stale garbage for
  // its next tenant, so clear them on free).
  counters_.reset(old_frame);
  counters_.reset(*new_frame);

  out.migrated = true;
  out.actual = actual;
  ++stats_.migrations;
  stats_.migration_cost += out.cost;
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kPageMigration;
    ev.page = page.value();
    ev.src = static_cast<std::int32_t>(old_node.value());
    ev.dst = static_cast<std::int32_t>(actual.value());
    ev.node = ev.dst;
    ev.a = actual != target ? 1 : 0;
    ev.cost = out.cost;
    trace_->emit_now(trace_lane_, ev);
  }
  REPRO_LOG_DEBUG("migrated page ", page.value(), " node ",
                  old_node.value(), " -> ", actual.value(), " cost ",
                  out.cost, "ns");
  return out;
}

Ns Kernel::on_write_hit(ProcId /*accessor*/, VPage page) {
  vm::PageTable::Entry* entry = table_.find(page);
  if (entry == nullptr) {
    return 0;
  }
  entry->dirty = true;
  if (!entry->has_replicas()) {
    return 0;
  }
  return collapse_replicas(page);
}

ReplicationResult Kernel::replicate_page(VPage page, NodeId target) {
  REPRO_REQUIRE(target.value() < config_.num_nodes);
  REPRO_REQUIRE_MSG(table_.is_mapped(page), "replicating an unmapped page");
  ReplicationResult out;
  // Refuse when a copy already lives on the target node.
  if (home_of(page) == target) {
    return out;
  }
  for (const FrameId replica : table_.replicas(page)) {
    if (phys_.node_of(replica) == target) {
      return out;
    }
  }
  const auto frame = phys_.allocate_strict(target);
  if (!frame) {
    return out;  // replication is best-effort: a full node just declines
  }
  table_.add_replica(page, *frame);
  out.replicated = true;
  out.cost = static_cast<Ns>(std::llround(config_.page_copy_ns));
  ++stats_.replications;
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kPageReplication;
    ev.page = page.value();
    ev.src = static_cast<std::int32_t>(home_of(page).value());
    ev.dst = static_cast<std::int32_t>(target.value());
    ev.node = ev.dst;
    ev.cost = out.cost;
    trace_->emit_now(trace_lane_, ev);
  }
  return out;
}

Ns Kernel::collapse_replicas(VPage page) {
  const std::vector<FrameId> replicas = table_.take_replicas(page);
  if (replicas.empty()) {
    return 0;
  }
  for (const FrameId frame : replicas) {
    counters_.reset(frame);
    phys_.free(frame);
  }
  ++stats_.replica_collapses;
  // Every processor that may hold a stale replica translation takes a
  // shootdown, like a migration.
  if (tlb_invalidator_ != nullptr) {
    tlb_invalidator_->invalidate_tlb_entries(page);
  }
  const Ns cost = migration_cost_for(page);
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kReplicaCollapse;
    ev.page = page.value();
    ev.node = static_cast<std::int32_t>(home_of(page).value());
    ev.a = replicas.size();
    ev.cost = cost;
    trace_->emit_now(trace_lane_, ev);
  }
  return cost;
}

std::size_t Kernel::replica_count(VPage page) const {
  return table_.replicas(page).size();
}

bool Kernel::is_dirty(VPage page) const { return table_.is_dirty(page); }

void Kernel::clear_dirty(VPage page) { table_.clear_dirty(page); }

NodeId Kernel::home_of(VPage page) const {
  const auto frame = table_.lookup(page);
  REPRO_REQUIRE_MSG(frame.has_value(), "page not mapped");
  return phys_.node_of(*frame);
}

bool Kernel::is_mapped(VPage page) const { return table_.is_mapped(page); }

std::span<const std::uint32_t> Kernel::read_counters(VPage page) const {
  const auto frame = table_.lookup(page);
  REPRO_REQUIRE_MSG(frame.has_value(), "page not mapped");
  return counters_.read(*frame);
}

void Kernel::reset_counters(VPage page) {
  const auto frame = table_.lookup(page);
  REPRO_REQUIRE_MSG(frame.has_value(), "page not mapped");
  counters_.reset(*frame);
}

void Kernel::reset_counters(FrameId frame) { counters_.reset(frame); }

void Kernel::log_miss(ProcId accessor, VPage page,
                      const memsys::HomeInfo& home, std::uint32_t lines,
                      Ns now) {
  const Ns offset = now - miss_log_->start;
  if (now < miss_log_->start || !fits<std::uint32_t>(offset) ||
      !fits<std::uint32_t>(page.value()) ||
      !fits<std::uint32_t>(home.frame.value()) ||
      !fits<std::uint16_t>(accessor.value()) ||
      !fits<std::uint8_t>(home.node.value()) || !fits<std::uint8_t>(lines)) {
    miss_log_->overflow = true;
    return;
  }
  miss_log_->misses.push_back({static_cast<std::uint32_t>(offset),
                               static_cast<std::uint32_t>(page.value()),
                               static_cast<std::uint32_t>(home.frame.value()),
                               static_cast<std::uint16_t>(accessor.value()),
                               static_cast<std::uint8_t>(home.node.value()),
                               static_cast<std::uint8_t>(lines)});
}

bool Kernel::observe_block(const MissLog& log, Ns shift) {
  REPRO_REQUIRE(daemon_ != nullptr && !log.overflow);
  const Ns start = log.start + shift;
  for (const MissLog::Miss& m : log.misses) {
    const ProcId accessor(m.accessor);
    const memsys::HomeInfo home{NodeId(m.node), FrameId(m.frame)};
    counters_.increment(home.frame, node_of(accessor), m.lines);
    if (daemon_->observe(*this, accessor, VPage(m.page), home,
                         start + m.offset)) {
      return false;
    }
  }
  return true;
}

Kernel::DaemonCopy Kernel::copy_daemon() const {
  REPRO_REQUIRE(daemon_ != nullptr);
  return {*daemon_, counters_};
}

void Kernel::restore_daemon(const DaemonCopy& copy) {
  REPRO_REQUIRE(daemon_ != nullptr);
  *daemon_ = copy.daemon;
  counters_ = copy.counters;
}

std::uint64_t Kernel::digest(Ns now) const {
  StateHash hash;
  hash.mix(machine_digest());
  hash.mix(daemon_digest(now));
  return hash.value();
}

std::uint64_t Kernel::machine_digest() const {
  StateHash hash;
  hash.mix(table_.digest());
  hash.mix(phys_.digest());
  hash.mix(static_cast<std::uint64_t>(pending_penalty_));
  return hash.value();
}

std::uint64_t Kernel::daemon_digest(Ns now) const {
  if (daemon_ == nullptr) {
    return 0;
  }
  // The reference counters feed the daemon's comparator, so they are
  // behavioural state here. Without a daemon nothing on a replayable
  // path reads them and they stay excluded (they grow monotonically
  // and would keep an otherwise periodic state from ever matching).
  StateHash hash;
  hash.mix(daemon_->digest(now));
  hash.mix(counters_.digest());
  return hash.value();
}

}  // namespace repro::os
