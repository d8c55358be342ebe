// Lockstep differential test of the page-grain memory stack.
//
// The real MemorySystem + Kernel (+ kernel migration daemon) are driven
// with random read/write streams beside a test-only reference built
// from std::list and std::map, the shapes the page-indexed tables
// replaced. The reference re-derives, access by access, what each
// structure must hold: per-processor LRU page caches (and TLBs), the
// page-grain directory, the page table with its replica lists, the
// saturating reference counters and the per-node frame free lists. The
// latency ladder, memory queues and topology are shared with the real
// stack: their layouts are not what this test pins.
//
// Streams follow FlexiCAS's RegressionGen: each processor draws from a
// private page pool or from one shared pool, with reads, writes,
// streams, page migrations and replications mixed in. After every step
// the AccessResult, the accessor's ProcStats, KernelStats, DaemonStats
// and the touched frame's counters must match; every few steps the
// whole state (free lists, page table, counters, caches, directory) is
// compared page by page.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "repro/memsys/latency.hpp"
#include "repro/memsys/mem_queue.hpp"
#include "repro/omp/machine.hpp"
#include "repro/os/daemon.hpp"
#include "repro/os/kernel.hpp"

namespace repro {
namespace {

using AccessResult = memsys::MemorySystem::AccessResult;

/// True LRU: front of the list is the most recent page.
class RefLru {
 public:
  explicit RefLru(std::size_t capacity) : capacity_(capacity) {}

  struct Touch {
    bool hit = false;
    std::optional<std::uint64_t> evicted;
  };

  Touch touch(std::uint64_t page) {
    const auto it = where_.find(page);
    if (it != where_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return {true, std::nullopt};
    }
    Touch out;
    if (order_.size() == capacity_) {
      out.evicted = order_.back();
      where_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(page);
    where_[page] = order_.begin();
    return out;
  }

  void invalidate(std::uint64_t page) {
    const auto it = where_.find(page);
    if (it != where_.end()) {
      order_.erase(it->second);
      where_.erase(it);
    }
  }

  [[nodiscard]] bool contains(std::uint64_t page) const {
    return where_.count(page) != 0;
  }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> where_;
};

/// The page-grain stack, re-derived from the model's rules.
class RefMachine {
 public:
  struct DirEntry {
    std::set<std::uint32_t> sharers;
    std::optional<std::uint32_t> owner;
  };
  struct Pte {
    std::uint64_t frame = 0;
    std::set<std::uint32_t> mappers;
    std::list<std::uint64_t> replicas;
    bool dirty = false;
  };

  RefMachine(const memsys::MachineConfig& config,
             const topo::Topology& topology,
             std::optional<os::DaemonConfig> daemon)
      : config_(config),
        topology_(&topology),
        latency_(config, topology),
        daemon_(daemon),
        stats_(config.num_procs()),
        free_(config.num_nodes) {
    for (std::size_t p = 0; p < config.num_procs(); ++p) {
      caches_.emplace_back(config.cache_capacity_pages());
      if (config.tlb_entries > 0) {
        tlbs_.emplace_back(config.tlb_entries);
      }
    }
    for (std::size_t n = 0; n < config.num_nodes; ++n) {
      queues_.emplace_back(config.mem_occupancy_ns);
      // The back of each list is the next frame handed out.
      for (std::size_t f = config.frames_per_node; f-- > 0;) {
        free_[n].push_back(n * config.frames_per_node + f);
      }
    }
  }

  AccessResult access(Ns now, ProcId proc, std::uint64_t page,
                      std::uint32_t lines, bool write, bool stream) {
    AccessResult out;
    memsys::ProcStats& st = stats_[proc.value()];
    double tlb_penalty = 0.0;
    if (!tlbs_.empty() && !tlbs_[proc.value()].touch(page).hit) {
      tlb_penalty = config_.tlb_refill_ns;
      ++st.tlb_misses;
    }
    const RefLru::Touch touch = caches_[proc.value()].touch(page);
    if (touch.evicted) {
      dir_evict(proc.value(), *touch.evicted);
    }
    DirEntry& dir = directory_[page];
    if (write) {
      for (const std::uint32_t q : dir.sharers) {
        if (q != proc.value()) {
          caches_[q].invalidate(page);
          ++out.invalidations;
        }
      }
      dir.sharers = {proc.value()};
      dir.owner = proc.value();
    } else {
      dir.sharers.insert(proc.value());
      if (dir.owner && *dir.owner != proc.value()) {
        dir.owner.reset();
      }
    }
    st.invalidations_sent += out.invalidations;

    double elapsed = tlb_penalty + static_cast<double>(out.invalidations) *
                                       config_.invalidation_ns;
    if (touch.hit) {
      elapsed += static_cast<double>(lines) * config_.cache_hit_ns;
      st.hit_lines += lines;
      if (write) {
        elapsed += static_cast<double>(write_hit(page));
      }
    } else {
      out.misses = lines;
      const memsys::HomeInfo home = resolve(proc, page, write);
      out.home = home.node;
      const NodeId from = node_of(proc);
      out.remote = from != home.node;
      const memsys::MemQueue::Service svc =
          queues_[home.node.value()].serve(now, lines);
      out.queue_wait = svc.wait;
      const double lat = latency_.memory_latency(from, home.node);
      if (stream) {
        elapsed += static_cast<double>(svc.wait) + lat +
                   static_cast<double>(lines - 1) *
                       latency_.stream_line_cost(from, home.node);
      } else {
        elapsed += static_cast<double>(svc.wait) +
                   static_cast<double>(lines) * lat;
      }
      st.queue_wait += svc.wait;
      (out.remote ? st.remote_miss_lines : st.local_miss_lines) += lines;
      elapsed += static_cast<double>(on_miss(proc, page, home, lines, now));
    }
    elapsed += carry_;
    out.elapsed = static_cast<Ns>(elapsed);
    carry_ = elapsed - static_cast<double>(out.elapsed);
    return out;
  }

  os::MigrationResult migrate_page(std::uint64_t page, NodeId target) {
    os::MigrationResult out;
    out.cost += collapse_replicas(page);
    Pte& pte = table_.at(page);
    const NodeId old_node = frame_node(pte.frame);
    out.actual = old_node;
    if (old_node == target) {
      return out;
    }
    const std::optional<std::uint64_t> frame = allocate(target, old_node);
    if (!frame) {
      ++kstats_.rejected_migrations;
      return out;
    }
    out.actual = frame_node(*frame);
    if (out.actual != target) {
      ++kstats_.redirected_migrations;
    }
    out.cost += migration_cost(pte);
    shoot_down(page);
    const std::uint64_t old_frame = pte.frame;
    pte.frame = *frame;
    pte.mappers.clear();
    release(old_frame);
    counters_.erase(old_frame);
    counters_.erase(*frame);
    out.migrated = true;
    ++kstats_.migrations;
    kstats_.migration_cost += out.cost;
    return out;
  }

  os::ReplicationResult replicate_page(std::uint64_t page, NodeId target) {
    os::ReplicationResult out;
    Pte& pte = table_.at(page);
    if (frame_node(pte.frame) == target) {
      return out;
    }
    for (const std::uint64_t replica : pte.replicas) {
      if (frame_node(replica) == target) {
        return out;
      }
    }
    const std::optional<std::uint64_t> frame = allocate_strict(target);
    if (!frame) {
      return out;
    }
    pte.replicas.push_back(*frame);
    out.replicated = true;
    out.cost = static_cast<Ns>(std::llround(config_.page_copy_ns));
    ++kstats_.replications;
    return out;
  }

  [[nodiscard]] std::vector<std::uint32_t> counters(std::uint64_t frame) const {
    const auto it = counters_.find(frame);
    return it == counters_.end()
               ? std::vector<std::uint32_t>(config_.num_nodes, 0)
               : it->second;
  }
  [[nodiscard]] const Pte* pte(std::uint64_t page) const {
    const auto it = table_.find(page);
    return it == table_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const DirEntry* dir_entry(std::uint64_t page) const {
    const auto it = directory_.find(page);
    return it == directory_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t tracked_pages() const { return directory_.size(); }
  [[nodiscard]] bool cached(ProcId proc, std::uint64_t page) const {
    return caches_[proc.value()].contains(page);
  }
  [[nodiscard]] std::size_t free_frames(std::size_t node) const {
    return free_[node].size();
  }
  [[nodiscard]] std::size_t total_free() const {
    std::size_t total = 0;
    for (const auto& list : free_) {
      total += list.size();
    }
    return total;
  }
  [[nodiscard]] const memsys::ProcStats& stats(ProcId proc) const {
    return stats_[proc.value()];
  }
  [[nodiscard]] const os::KernelStats& kernel_stats() const { return kstats_; }
  [[nodiscard]] const os::DaemonStats& daemon_stats() const { return dstats_; }

 private:
  struct DaemonPage {
    Ns window_start = 0;
    Ns last_migration = 0;
    std::uint32_t migrations = 0;
    bool window_open = false;
    bool frozen = false;
  };

  [[nodiscard]] NodeId node_of(ProcId proc) const {
    return NodeId(static_cast<std::uint32_t>(proc.value() /
                                             config_.procs_per_node));
  }
  [[nodiscard]] NodeId frame_node(std::uint64_t frame) const {
    return NodeId(static_cast<std::uint32_t>(frame / config_.frames_per_node));
  }

  void dir_evict(std::uint32_t proc, std::uint64_t page) {
    const auto it = directory_.find(page);
    if (it == directory_.end()) {
      return;
    }
    it->second.sharers.erase(proc);
    if (it->second.owner == proc) {
      it->second.owner.reset();
    }
    if (it->second.sharers.empty()) {
      directory_.erase(it);
    }
  }

  void shoot_down(std::uint64_t page) {
    for (RefLru& tlb : tlbs_) {
      tlb.invalidate(page);
    }
  }

  std::optional<std::uint64_t> allocate_strict(NodeId node) {
    std::list<std::uint64_t>& list = free_[node.value()];
    if (list.empty()) {
      return std::nullopt;
    }
    const std::uint64_t frame = list.back();
    list.pop_back();
    return frame;
  }

  std::optional<std::uint64_t> allocate(NodeId preferred,
                                        std::optional<NodeId> exclude) {
    if (exclude != preferred) {
      if (auto frame = allocate_strict(preferred)) {
        return frame;
      }
    }
    // Nearest node with a free frame, lowest id on equal hops.
    std::optional<NodeId> best;
    for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
      if (free_[n].empty() || exclude == NodeId(n)) {
        continue;
      }
      if (!best || topology_->hops(preferred, NodeId(n)) <
                       topology_->hops(preferred, *best)) {
        best = NodeId(n);
      }
    }
    return best ? allocate_strict(*best) : std::nullopt;
  }

  void release(std::uint64_t frame) {
    free_[frame_node(frame).value()].push_back(frame);
  }

  [[nodiscard]] Ns migration_cost(const Pte& pte) const {
    return static_cast<Ns>(std::llround(
        config_.page_copy_ns + config_.tlb_local_flush_ns +
        static_cast<double>(pte.mappers.size()) * config_.tlb_shootdown_ns));
  }

  Ns collapse_replicas(std::uint64_t page) {
    Pte& pte = table_.at(page);
    if (pte.replicas.empty()) {
      return 0;
    }
    for (const std::uint64_t frame : pte.replicas) {
      counters_.erase(frame);
      release(frame);
    }
    pte.replicas.clear();
    ++kstats_.replica_collapses;
    shoot_down(page);
    return migration_cost(pte);
  }

  memsys::HomeInfo resolve(ProcId accessor, std::uint64_t page, bool write) {
    auto it = table_.find(page);
    if (it == table_.end()) {
      // First touch: the accessor's node, or the nearest with room.
      ++kstats_.page_faults;
      const std::optional<std::uint64_t> frame =
          allocate(node_of(accessor), std::nullopt);
      if (!frame) {
        ADD_FAILURE() << "reference machine out of frames";
        return {};
      }
      it = table_.emplace(page, Pte{*frame, {}, {}, false}).first;
    }
    Pte& pte = it->second;
    pte.mappers.insert(accessor.value());
    const NodeId home = frame_node(pte.frame);
    if (write) {
      pte.dirty = true;
      pending_ += collapse_replicas(page);
      return {home, FrameId(pte.frame)};
    }
    NodeId best = home;
    const NodeId from = node_of(accessor);
    for (const std::uint64_t replica : pte.replicas) {
      if (topology_->hops(from, frame_node(replica)) <
          topology_->hops(from, best)) {
        best = frame_node(replica);
      }
    }
    return {best, FrameId(pte.frame)};
  }

  Ns write_hit(std::uint64_t page) {
    const auto it = table_.find(page);
    if (it == table_.end()) {
      return 0;
    }
    it->second.dirty = true;
    return collapse_replicas(page);
  }

  Ns on_miss(ProcId accessor, std::uint64_t page, const memsys::HomeInfo& home,
             std::uint32_t lines, Ns now) {
    std::vector<std::uint32_t>& row =
        counters_.try_emplace(home.frame.value(), config_.num_nodes, 0u)
            .first->second;
    std::uint32_t& count = row[node_of(accessor).value()];
    count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        config_.counter_max(), std::uint64_t{count} + lines));
    Ns penalty = std::exchange(pending_, 0);
    if (daemon_) {
      penalty += daemon_on_miss(accessor, page, home, now);
    }
    return penalty;
  }

  Ns daemon_on_miss(ProcId accessor, std::uint64_t page,
                    const memsys::HomeInfo& home, Ns now) {
    const os::DaemonConfig& dc = *daemon_;
    DaemonPage& st = daemon_pages_[page];
    if (!st.window_open || now - st.window_start > dc.window_ns) {
      counters_.erase(home.frame.value());
      st.window_start = now;
      st.window_open = true;
      ++dstats_.window_resets;
      return 0;
    }
    const NodeId node = node_of(accessor);
    if (node == home.node) {
      return 0;
    }
    const std::vector<std::uint32_t> counts = counters(home.frame.value());
    const std::uint32_t remote = counts[node.value()];
    const std::uint32_t local = counts[home.node.value()];
    if (remote <= local || remote - local <= dc.threshold) {
      return 0;
    }
    ++dstats_.interrupts;
    if (st.frozen) {
      ++dstats_.suppressed_frozen;
      return 0;
    }
    if (st.migrations > 0 && now - st.last_migration < dc.page_cooloff_ns) {
      ++dstats_.suppressed_cooloff;
      return 0;
    }
    if (any_migration_ && now - last_migration_ < dc.global_min_interval_ns) {
      ++dstats_.suppressed_global;
      return 0;
    }
    const os::MigrationResult res = migrate_page(page, node);
    if (!res.migrated) {
      return 0;
    }
    st.last_migration = now;
    st.window_open = false;
    if (++st.migrations >= dc.max_migrations_per_page) {
      st.frozen = true;
    }
    last_migration_ = now;
    any_migration_ = true;
    ++dstats_.migrations;
    dstats_.cost += res.cost;
    return res.cost;
  }

  memsys::MachineConfig config_;
  const topo::Topology* topology_;
  memsys::LatencyModel latency_;
  std::optional<os::DaemonConfig> daemon_;
  std::vector<RefLru> caches_;
  std::vector<RefLru> tlbs_;
  std::vector<memsys::MemQueue> queues_;
  std::vector<memsys::ProcStats> stats_;
  double carry_ = 0.0;
  std::map<std::uint64_t, DirEntry> directory_;
  std::map<std::uint64_t, Pte> table_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> counters_;
  std::vector<std::list<std::uint64_t>> free_;
  os::KernelStats kstats_;
  Ns pending_ = 0;
  std::map<std::uint64_t, DaemonPage> daemon_pages_;
  os::DaemonStats dstats_;
  Ns last_migration_ = 0;
  bool any_migration_ = false;
};

::testing::AssertionResult same_access(const AccessResult& real,
                                       const AccessResult& ref) {
  if (real.elapsed != ref.elapsed || real.misses != ref.misses ||
      real.queue_wait != ref.queue_wait ||
      real.invalidations != ref.invalidations ||
      real.remote != ref.remote ||
      (ref.misses > 0 && real.home != ref.home)) {
    return ::testing::AssertionFailure()
           << "elapsed " << real.elapsed << "/" << ref.elapsed << " misses "
           << real.misses << "/" << ref.misses << " queue_wait "
           << real.queue_wait << "/" << ref.queue_wait << " invalidations "
           << real.invalidations << "/" << ref.invalidations << " remote "
           << real.remote << "/" << ref.remote << " home "
           << real.home.value() << "/" << ref.home.value();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_stats(const memsys::ProcStats& a,
                                      const memsys::ProcStats& b) {
  if (a.hit_lines != b.hit_lines || a.local_miss_lines != b.local_miss_lines ||
      a.remote_miss_lines != b.remote_miss_lines ||
      a.queue_wait != b.queue_wait ||
      a.invalidations_sent != b.invalidations_sent ||
      a.tlb_misses != b.tlb_misses) {
    return ::testing::AssertionFailure() << "ProcStats differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_counters(const os::Kernel& kernel,
                                         const RefMachine& ref,
                                         std::uint64_t frame) {
  const auto real = kernel.counters().read(FrameId(frame));
  const std::vector<std::uint32_t> want = ref.counters(frame);
  if (!std::equal(real.begin(), real.end(), want.begin(), want.end())) {
    return ::testing::AssertionFailure() << "counters of frame " << frame;
  }
  return ::testing::AssertionSuccess();
}

/// Page-by-page comparison of everything the reference models.
void expect_same_state(omp::Machine& machine, const RefMachine& ref,
                       std::uint64_t pages, std::uint32_t procs) {
  const os::Kernel& kernel = machine.kernel();
  const vm::PhysicalMemory& phys = kernel.physical_memory();
  for (std::uint32_t n = 0; n < phys.num_nodes(); ++n) {
    ASSERT_EQ(phys.free_frames(NodeId(n)), ref.free_frames(n)) << "node " << n;
  }
  ASSERT_EQ(phys.total_free(), ref.total_free());

  const vm::PageTable& table = kernel.page_table();
  const memsys::Directory& dir = machine.memory().directory();
  ASSERT_EQ(dir.tracked_pages(), ref.tracked_pages());
  for (std::uint64_t page = 0; page < pages; ++page) {
    const VPage vp(page);
    const RefMachine::Pte* pte = ref.pte(page);
    ASSERT_EQ(table.is_mapped(vp), pte != nullptr) << "page " << page;
    if (pte != nullptr) {
      ASSERT_EQ(table.lookup(vp)->value(), pte->frame) << "page " << page;
      ASSERT_EQ(table.mapper_count(vp), pte->mappers.size()) << "page " << page;
      ASSERT_EQ(table.is_dirty(vp), pte->dirty) << "page " << page;
      std::vector<std::uint64_t> replicas;
      for (const FrameId f : table.replicas(vp)) {
        replicas.push_back(f.value());
      }
      ASSERT_EQ(replicas, std::vector<std::uint64_t>(pte->replicas.begin(),
                                                     pte->replicas.end()))
          << "page " << page;
      ASSERT_TRUE(same_counters(kernel, ref, pte->frame)) << "page " << page;
      for (const std::uint64_t replica : pte->replicas) {
        ASSERT_TRUE(same_counters(kernel, ref, replica)) << "page " << page;
      }
    }

    const RefMachine::DirEntry* entry = ref.dir_entry(page);
    std::uint64_t low = 0;
    if (entry != nullptr) {
      for (const std::uint32_t p : entry->sharers) {
        if (p < 64) {
          low |= std::uint64_t{1} << p;
        }
        const bool exclusive = entry->owner == p && entry->sharers.size() == 1;
        ASSERT_EQ(dir.is_exclusive(ProcId(p), vp), exclusive)
            << "page " << page << " proc " << p;
      }
    }
    ASSERT_EQ(dir.sharers(vp), low) << "page " << page;
    for (std::uint32_t p = 0; p < procs; ++p) {
      ASSERT_EQ(machine.memory().cache(ProcId(p)).contains(vp),
                ref.cached(ProcId(p), page))
          << "page " << page << " proc " << p;
    }
  }
}

struct LockstepShape {
  std::size_t nodes;
  std::size_t procs_per_node;
  std::uint32_t active_procs;  ///< processors that issue the stream
  std::size_t frames_per_node;
  std::size_t tlb_entries;
  std::uint64_t seed;
};

void run_lockstep(const LockstepShape& shape, bool daemon) {
  SCOPED_TRACE(::testing::Message() << "daemon " << daemon);
  memsys::MachineConfig config;
  config.num_nodes = shape.nodes;
  config.procs_per_node = shape.procs_per_node;
  config.frames_per_node = shape.frames_per_node;
  config.tlb_entries = shape.tlb_entries;
  config.l2_size = 4 * config.page_size;  // four-page caches: evictions
  config.counter_bits = 8;                // saturates at 255 lines
  os::DaemonConfig dc;
  dc.threshold = 24;
  dc.window_ns = 200 * kNsPerUs;
  dc.page_cooloff_ns = 20 * kNsPerUs;
  dc.max_migrations_per_page = 3;
  dc.global_min_interval_ns = 2 * kNsPerUs;

  auto machine = omp::Machine::create(config);
  if (daemon) {
    machine->enable_kernel_daemon(dc);
  }
  RefMachine ref(config, machine->topology(),
                 daemon ? std::optional(dc) : std::nullopt);
  os::Kernel& kernel = machine->kernel();
  memsys::MemorySystem& memory = machine->memory();

  // RegressionGen's address pools: kPrivate pages per processor, then
  // kShared pages every processor may touch.
  constexpr std::uint64_t kPrivate = 6;
  constexpr std::uint64_t kShared = 24;
  const std::uint64_t pages = kPrivate * shape.active_procs + kShared;
  ASSERT_LT(pages, config.total_frames());
  const std::uint32_t lines_per_page = config.lines_per_page();

  std::mt19937_64 rng(shape.seed + (daemon ? 1 : 0));
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  Ns now = 0;
  constexpr int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    now += below(1500);
    if (below(100) == 0) {
      now += dc.window_ns;  // let every open counter window expire
    }
    const std::uint64_t roll = below(100);
    if (roll < 6) {
      // Migrate or replicate a mapped page to a random node.
      const std::uint64_t page = below(pages);
      const NodeId target(static_cast<std::uint32_t>(below(shape.nodes)));
      if (ref.pte(page) == nullptr) {
        continue;
      }
      if (roll < 3) {
        const os::MigrationResult got = kernel.migrate_page(VPage(page), target);
        const os::MigrationResult want = ref.migrate_page(page, target);
        ASSERT_EQ(got.migrated, want.migrated);
        ASSERT_EQ(got.busy, want.busy);
        ASSERT_EQ(got.actual, want.actual);
        ASSERT_EQ(got.cost, want.cost);
      } else if (ref.total_free() >
                 pages - kernel.page_table().mapped_pages() + 4) {
        // Replicas never take the frames a first touch still needs.
        const os::ReplicationResult got =
            kernel.replicate_page(VPage(page), target);
        const os::ReplicationResult want = ref.replicate_page(page, target);
        ASSERT_EQ(got.replicated, want.replicated);
        ASSERT_EQ(got.cost, want.cost);
      }
      ASSERT_EQ(kernel.stats(), ref.kernel_stats());
      continue;
    }

    const ProcId proc(static_cast<std::uint32_t>(below(shape.active_procs)));
    const std::uint64_t page =
        below(4) == 0 ? kPrivate * shape.active_procs + below(kShared)
                      : kPrivate * proc.value() + below(kPrivate);
    const auto lines = static_cast<std::uint32_t>(
        below(10) == 0 ? lines_per_page : 1 + below(32));
    const bool write = below(10) < 3;
    const bool stream = below(4) == 0;

    const AccessResult got =
        memory.access(now, {proc, VPage(page), lines, write, stream});
    const AccessResult want = ref.access(now, proc, page, lines, write, stream);
    ASSERT_TRUE(same_access(got, want));
    ASSERT_TRUE(same_stats(memory.stats(proc), ref.stats(proc)));
    ASSERT_EQ(kernel.stats(), ref.kernel_stats());
    if (daemon) {
      ASSERT_EQ(kernel.daemon()->stats(), ref.daemon_stats());
    }
    ASSERT_TRUE(same_counters(kernel, ref, ref.pte(page)->frame));
    if (step % 100 == 99) {
      expect_same_state(*machine, ref, pages,
                        static_cast<std::uint32_t>(config.num_procs()));
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  expect_same_state(*machine, ref, pages,
                    static_cast<std::uint32_t>(config.num_procs()));

  // The stream must have reached the paths it exists to cover.
  const os::KernelStats& ks = kernel.stats();
  EXPECT_GT(ks.migrations, 0u);
  EXPECT_GT(memory.total_stats().miss_lines(), 0u);
  EXPECT_GT(memory.total_stats().hit_lines, 0u);
  EXPECT_GT(ks.replications, 0u);
  EXPECT_GT(ks.replica_collapses, 0u);
  if (shape.active_procs > 1) {
    EXPECT_GT(memory.total_stats().invalidations_sent, 0u);
  }
  bool saturated = false;
  for (std::uint64_t page = 0; page < pages; ++page) {
    if (const RefMachine::Pte* pte = ref.pte(page)) {
      for (const std::uint32_t count : ref.counters(pte->frame)) {
        saturated |= count == config.counter_max();
      }
    }
  }
  // The daemon's windows reset counters too often to saturate them.
  EXPECT_TRUE(saturated || daemon);
  if (daemon) {
    EXPECT_GT(kernel.daemon()->stats().window_resets, 0u);
    EXPECT_GT(kernel.daemon()->stats().migrations, 0u);
  }
}

// One processor issues the stream (a machine has at least two nodes).
TEST(PageGrainLockstep, OneProcessor) {
  for (const bool daemon : {false, true}) {
    run_lockstep({2, 1, 1, 24, 0, 11}, daemon);
  }
}

// Two processors per node: node_of divides, local misses share a node.
TEST(PageGrainLockstep, FourProcessorsWithTlbs) {
  for (const bool daemon : {false, true}) {
    run_lockstep({2, 2, 4, 32, 3, 22}, daemon);
  }
}

// The paper's 16-node shape on the dense tables.
TEST(PageGrainLockstep, SixteenProcessors) {
  for (const bool daemon : {false, true}) {
    run_lockstep({16, 1, 16, 12, 0, 33}, daemon);
  }
}

// Past 64 processors: multi-word sharer and mapper sets, and 128
// chunked page-cache indexes over one page space.
TEST(PageGrainLockstep, WideSetsAt128Processors) {
  for (const bool daemon : {false, true}) {
    run_lockstep({128, 1, 128, 8, 4, 44}, daemon);
  }
}

}  // namespace
}  // namespace repro
