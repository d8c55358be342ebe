// OS-layer tests: kernel page faults and placement, the migration
// primitive (costs, redirection, counter reset), the FLASH/IRIX-style
// migration daemon's windowed policy, and the user-level MMCI.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>

#include "repro/common/assert.hpp"
#include "repro/memsys/config.hpp"
#include "repro/os/daemon.hpp"
#include "repro/os/kernel.hpp"
#include "repro/os/mmci.hpp"
#include "repro/topology/topology.hpp"
#include "repro/vm/placement.hpp"

namespace repro::os {
namespace {

memsys::MachineConfig small_config() {
  memsys::MachineConfig config;
  config.num_nodes = 4;
  config.procs_per_node = 1;
  config.frames_per_node = 16;
  return config;
}

memsys::HomeInfo touch(Kernel& kernel, ProcId proc, VPage page,
                       std::uint32_t lines = 1, Ns now = 0) {
  const auto home = kernel.resolve(proc, page, false);
  kernel.on_miss(proc, page, home, lines, now);
  return home;
}

TEST(Kernel, FirstTouchFaultPlacesOnTouchersNode) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  const auto home = kernel.resolve(ProcId(2), VPage(7), false);
  EXPECT_EQ(home.node, NodeId(2));
  EXPECT_EQ(kernel.home_of(VPage(7)), NodeId(2));
  EXPECT_EQ(kernel.stats().page_faults, 1u);
  // Second resolve is not a fault.
  kernel.resolve(ProcId(0), VPage(7), false);
  EXPECT_EQ(kernel.stats().page_faults, 1u);
}

TEST(Kernel, PolicySwitchTakesEffect) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  kernel.set_policy(std::make_unique<vm::FixedNodePlacement>(NodeId(3)));
  const auto home = kernel.resolve(ProcId(0), VPage(1), false);
  EXPECT_EQ(home.node, NodeId(3));
}

TEST(Kernel, MissesFeedHardwareCounters) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  touch(kernel, ProcId(1), VPage(0), 40);
  touch(kernel, ProcId(3), VPage(0), 7);
  const auto counts = kernel.read_counters(VPage(0));
  EXPECT_EQ(counts[1], 40u);
  EXPECT_EQ(counts[3], 7u);
  kernel.reset_counters(VPage(0));
  EXPECT_EQ(kernel.read_counters(VPage(0))[1], 0u);
}

TEST(Kernel, MigrationMovesPageAndResetsCounters) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  touch(kernel, ProcId(0), VPage(9), 100);
  const auto result = kernel.migrate_page(VPage(9), NodeId(2));
  EXPECT_TRUE(result.migrated);
  EXPECT_EQ(result.actual, NodeId(2));
  EXPECT_GT(result.cost, 0u);
  EXPECT_EQ(kernel.home_of(VPage(9)), NodeId(2));
  // Counters belong to the physical frame; the new frame starts clean.
  EXPECT_EQ(kernel.read_counters(VPage(9))[0], 0u);
  EXPECT_EQ(kernel.stats().migrations, 1u);
}

TEST(Kernel, MigrationToCurrentHomeIsANoOp) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  touch(kernel, ProcId(1), VPage(4));
  const auto result = kernel.migrate_page(VPage(4), NodeId(1));
  EXPECT_FALSE(result.migrated);
  EXPECT_EQ(result.cost, 0u);
}

TEST(Kernel, MigrationCostGrowsWithMappers) {
  // TLB coherence: every processor with a live mapping takes a
  // shootdown interrupt.
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  touch(kernel, ProcId(0), VPage(1));
  const Ns one_mapper = kernel.migration_cost_for(VPage(1));
  touch(kernel, ProcId(2), VPage(1));
  touch(kernel, ProcId(3), VPage(1));
  const Ns three_mappers = kernel.migration_cost_for(VPage(1));
  EXPECT_EQ(three_mappers - one_mapper,
            static_cast<Ns>(2 * config.tlb_shootdown_ns));
  // A migration resets the mappings (the shootdown happened).
  kernel.migrate_page(VPage(1), NodeId(3));
  EXPECT_LT(kernel.migration_cost_for(VPage(1)), one_mapper + 1);
}

TEST(Kernel, MigrationRedirectsWhenTargetFull) {
  auto config = small_config();
  config.frames_per_node = 2;
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  // Fill node 2 completely.
  kernel.set_policy(std::make_unique<vm::FixedNodePlacement>(NodeId(2)));
  touch(kernel, ProcId(0), VPage(100));
  touch(kernel, ProcId(0), VPage(101));
  // Migrate a node-0 page toward the full node 2: best effort lands on
  // node 3 (2's router partner).
  kernel.set_policy(std::make_unique<vm::FixedNodePlacement>(NodeId(0)));
  touch(kernel, ProcId(0), VPage(0));
  const auto result = kernel.migrate_page(VPage(0), NodeId(2));
  EXPECT_TRUE(result.migrated);
  EXPECT_NE(result.actual, NodeId(2));  // target was full
  EXPECT_NE(result.actual, NodeId(0));  // source is excluded
  EXPECT_EQ(kernel.stats().redirected_migrations, 1u);
}

TEST(Kernel, MigrationRejectedWhenOnlySourceHasSpace) {
  auto config = small_config();
  config.num_nodes = 2;
  config.frames_per_node = 2;
  const topo::FatHypercube topology(2);
  Kernel kernel(config, topology);
  // Fill node 1; node 0 has the page plus a free frame.
  kernel.set_policy(std::make_unique<vm::FixedNodePlacement>(NodeId(1)));
  touch(kernel, ProcId(0), VPage(10));
  touch(kernel, ProcId(0), VPage(11));
  kernel.set_policy(std::make_unique<vm::FixedNodePlacement>(NodeId(0)));
  touch(kernel, ProcId(0), VPage(0));
  const auto result = kernel.migrate_page(VPage(0), NodeId(1));
  EXPECT_FALSE(result.migrated);
  EXPECT_EQ(kernel.stats().rejected_migrations, 1u);
  EXPECT_EQ(kernel.home_of(VPage(0)), NodeId(0));
}

// --- daemon ----------------------------------------------------------------

DaemonConfig fast_daemon() {
  DaemonConfig config;
  config.threshold = 10;
  config.window_ns = 1'000'000'000;  // effectively no aging
  config.page_cooloff_ns = 0;
  config.global_min_interval_ns = 0;
  config.max_migrations_per_page = 100;
  return config;
}

TEST(Daemon, FirstMissOpensWindowWithoutMigrating) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  kernel.set_daemon(std::make_unique<KernelMigrationDaemon>(fast_daemon()));
  touch(kernel, ProcId(1), VPage(0), 100, 0);
  EXPECT_EQ(kernel.daemon()->stats().window_resets, 1u);
  EXPECT_EQ(kernel.daemon()->stats().migrations, 0u);
}

TEST(Daemon, ThresholdCrossingTriggersMigration) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  kernel.set_daemon(std::make_unique<KernelMigrationDaemon>(fast_daemon()));
  // Page homes on node 0; its first touch opens the counting window
  // (and is erased by the reset), then proc 1 hammers.
  touch(kernel, ProcId(0), VPage(0), 1, 0);    // window opens (reset)
  touch(kernel, ProcId(1), VPage(0), 5, 10);   // count 5, below threshold
  EXPECT_EQ(kernel.home_of(VPage(0)), NodeId(0));
  touch(kernel, ProcId(1), VPage(0), 6, 20);   // count 11 > 10: migrate
  EXPECT_EQ(kernel.home_of(VPage(0)), NodeId(1));
  EXPECT_EQ(kernel.daemon()->stats().migrations, 1u);
  EXPECT_GE(kernel.daemon()->stats().interrupts, 1u);
}

TEST(Daemon, WindowExpiryResetsCounters) {
  // A page whose remote traffic is modest *per window* never trips the
  // threshold, however long it keeps coming: this is what makes the
  // kernel engine blind to cold misplaced pages (unlike UPMlib).
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  auto daemon_config = fast_daemon();
  daemon_config.window_ns = 100;
  Kernel kernel(config, topology);
  kernel.set_daemon(
      std::make_unique<KernelMigrationDaemon>(daemon_config));
  touch(kernel, ProcId(0), VPage(0), 1, 0);
  for (Ns t = 200; t < 20'000; t += 200) {
    // 8 remote lines per 200 ns, each arrival past the window: the
    // window resets every time and the count never accumulates.
    touch(kernel, ProcId(1), VPage(0), 8, t);
  }
  EXPECT_EQ(kernel.home_of(VPage(0)), NodeId(0));
  EXPECT_EQ(kernel.daemon()->stats().migrations, 0u);
  EXPECT_GT(kernel.daemon()->stats().window_resets, 10u);
}

TEST(Daemon, LocalAccessesNeverTrigger) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  kernel.set_daemon(std::make_unique<KernelMigrationDaemon>(fast_daemon()));
  for (int i = 0; i < 50; ++i) {
    touch(kernel, ProcId(0), VPage(0), 100, static_cast<Ns>(i));
  }
  EXPECT_EQ(kernel.daemon()->stats().migrations, 0u);
}

TEST(Daemon, FreezeAfterMaxMigrations) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  auto daemon_config = fast_daemon();
  daemon_config.max_migrations_per_page = 1;
  Kernel kernel(config, topology);
  kernel.set_daemon(
      std::make_unique<KernelMigrationDaemon>(daemon_config));
  touch(kernel, ProcId(0), VPage(0), 1, 0);
  touch(kernel, ProcId(1), VPage(0), 5, 1);
  touch(kernel, ProcId(1), VPage(0), 20, 2);
  touch(kernel, ProcId(1), VPage(0), 20, 3);  // migrates, then frozen
  EXPECT_EQ(kernel.home_of(VPage(0)), NodeId(1));
  // Now proc 2 hammers: the frozen page must stay put.
  for (int i = 0; i < 20; ++i) {
    touch(kernel, ProcId(2), VPage(0), 50, static_cast<Ns>(10 + i));
  }
  EXPECT_EQ(kernel.home_of(VPage(0)), NodeId(1));
  EXPECT_GT(kernel.daemon()->stats().suppressed_frozen, 0u);
}

TEST(Daemon, GlobalIntervalThrottles) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  auto daemon_config = fast_daemon();
  daemon_config.global_min_interval_ns = 1'000'000;
  Kernel kernel(config, topology);
  kernel.set_daemon(
      std::make_unique<KernelMigrationDaemon>(daemon_config));
  // Two pages both hammered remotely at nearly the same time: only the
  // first migration goes through.
  touch(kernel, ProcId(0), VPage(0), 1, 0);
  touch(kernel, ProcId(0), VPage(1), 1, 0);
  touch(kernel, ProcId(1), VPage(0), 5, 1);
  touch(kernel, ProcId(1), VPage(1), 5, 1);
  touch(kernel, ProcId(1), VPage(0), 20, 2);
  touch(kernel, ProcId(1), VPage(0), 20, 3);
  touch(kernel, ProcId(1), VPage(1), 20, 4);
  touch(kernel, ProcId(1), VPage(1), 20, 5);
  EXPECT_EQ(kernel.daemon()->stats().migrations, 1u);
  EXPECT_GT(kernel.daemon()->stats().suppressed_global, 0u);
}

// A kernel whose daemon saw its first miss on each of `pages`, in the
// given order, all at time 0. Page p is first touched by processor
// p % 4, so placement does not depend on the order either.
std::unique_ptr<Kernel> daemon_kernel(
    const topo::Topology& topology, const DaemonConfig& daemon_config,
    std::initializer_list<std::uint64_t> pages) {
  auto kernel = std::make_unique<Kernel>(small_config(), topology);
  kernel->set_daemon(std::make_unique<KernelMigrationDaemon>(daemon_config));
  for (const std::uint64_t p : pages) {
    touch(*kernel, ProcId(static_cast<std::uint32_t>(p % 4)), VPage(p), 1, 0);
  }
  return kernel;
}

TEST(Daemon, DigestCoversPageStateNotFirstMissOrder) {
  const topo::FatHypercube topology(4);
  constexpr Ns kNow = 100;
  // Equal per-page state reached in opposite orders (the two daemons
  // also grow their page-state vectors to different sizes on the way).
  const auto forward = daemon_kernel(topology, fast_daemon(), {0, 1, 5, 9});
  const auto backward = daemon_kernel(topology, fast_daemon(), {9, 5, 1, 0});
  const std::uint64_t base = forward->daemon()->digest(kNow);
  EXPECT_EQ(backward->daemon()->digest(kNow), base);

  // Window state: page 5's window opens later.
  const auto late = daemon_kernel(topology, fast_daemon(), {0, 1, 9});
  touch(*late, ProcId(1), VPage(5), 1, 10);
  EXPECT_NE(late->daemon()->digest(kNow), base);

  // Migration count: page 5 migrates once in `once` and twice in
  // `twice`; both leave its window closed, and with zero cooloff and
  // global interval the migration times saturate out of the digest.
  const auto once = daemon_kernel(topology, fast_daemon(), {0, 1, 5, 9});
  touch(*once, ProcId(2), VPage(5), 11, 10);
  ASSERT_EQ(once->daemon()->stats().migrations, 1u);
  const auto twice = daemon_kernel(topology, fast_daemon(), {0, 1, 5, 9});
  touch(*twice, ProcId(2), VPage(5), 11, 10);
  touch(*twice, ProcId(3), VPage(5), 1, 20);   // reopens the window
  touch(*twice, ProcId(3), VPage(5), 11, 30);  // second migration
  ASSERT_EQ(twice->daemon()->stats().migrations, 2u);
  EXPECT_NE(once->daemon()->digest(kNow), base);
  EXPECT_NE(twice->daemon()->digest(kNow), once->daemon()->digest(kNow));

  // Frozen flag: the same single migration, but it freezes the page.
  auto freezing = fast_daemon();
  freezing.max_migrations_per_page = 1;
  const auto frozen = daemon_kernel(topology, freezing, {0, 1, 5, 9});
  touch(*frozen, ProcId(2), VPage(5), 11, 10);
  ASSERT_EQ(frozen->daemon()->stats().migrations, 1u);
  EXPECT_NE(frozen->daemon()->digest(kNow), once->daemon()->digest(kNow));
}

TEST(Kernel, DigestCoversTheFrameAllocator) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  // Pages 1 and 2 get replicas on node 1, which are then collapsed in
  // either order: the page table ends equal, the free list of node 1
  // does not.
  const auto kernel = [&](bool reverse) {
    auto k = std::make_unique<Kernel>(config, topology);
    for (const VPage page : {VPage(1), VPage(2)}) {
      touch(*k, ProcId(0), page);
      EXPECT_TRUE(k->replicate_page(page, NodeId(1)).replicated);
    }
    k->collapse_replicas(reverse ? VPage(2) : VPage(1));
    k->collapse_replicas(reverse ? VPage(1) : VPage(2));
    return k;
  };
  const auto forward = kernel(false);
  const auto backward = kernel(true);
  EXPECT_EQ(forward->page_table().digest(), backward->page_table().digest());
  EXPECT_NE(forward->physical_memory().digest(),
            backward->physical_memory().digest());
  EXPECT_NE(forward->digest(0), backward->digest(0));
  EXPECT_NE(forward->machine_digest(), backward->machine_digest());
  // Equal histories digest equal.
  EXPECT_EQ(kernel(false)->digest(0), forward->digest(0));
  EXPECT_EQ(kernel(true)->digest(0), backward->digest(0));
}

// --- MMCI -------------------------------------------------------------------

TEST(Mmci, MldNamespace) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  MemoryControlInterface mmci(kernel);
  const auto mlds = mmci.create_mld_per_node();
  ASSERT_EQ(mlds.size(), 4u);
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(mmci.mld_node(mlds[n]), NodeId(n));
  }
  EXPECT_THROW(mmci.mld_node(MldHandle(99)), ContractViolation);
}

TEST(Mmci, UserLevelMigrationRoundTrip) {
  const auto config = small_config();
  const topo::FatHypercube topology(4);
  Kernel kernel(config, topology);
  MemoryControlInterface mmci(kernel);
  const auto mlds = mmci.create_mld_per_node();

  touch(kernel, ProcId(0), VPage(3), 64);
  EXPECT_TRUE(mmci.is_mapped(VPage(3)));
  EXPECT_EQ(mmci.home_of(VPage(3)), NodeId(0));
  EXPECT_EQ(mmci.read_counters(VPage(3))[0], 64u);

  const auto outcome = mmci.migrate(VPage(3), mlds[2]);
  EXPECT_TRUE(outcome.migrated);
  EXPECT_EQ(outcome.actual, NodeId(2));
  EXPECT_GT(outcome.cost, 0u);
  EXPECT_EQ(mmci.home_of(VPage(3)), NodeId(2));

  mmci.reset_counters(VPage(3));
  EXPECT_EQ(mmci.read_counters(VPage(3))[0], 0u);
  EXPECT_EQ(mmci.node_of_proc(ProcId(3)), NodeId(3));
  EXPECT_EQ(mmci.num_nodes(), 4u);
}

}  // namespace
}  // namespace repro::os
