// VM tests: reference counters (11-bit saturation), physical frame
// pools with best-effort redirection, page table + mapper tracking,
// placement policies and the address space.
#include <gtest/gtest.h>

#include <map>

#include "repro/common/assert.hpp"
#include "repro/topology/topology.hpp"
#include "repro/vm/address_space.hpp"
#include "repro/vm/counters.hpp"
#include "repro/vm/page_table.hpp"
#include "repro/vm/physical_memory.hpp"
#include "repro/vm/placement.hpp"

namespace repro::vm {
namespace {

TEST(RefCounters, IncrementAndRead) {
  RefCounters counters(8, 4, 11);
  counters.increment(FrameId(3), NodeId(1), 10);
  counters.increment(FrameId(3), NodeId(1), 5);
  EXPECT_EQ(counters.read(FrameId(3), NodeId(1)), 15u);
  EXPECT_EQ(counters.read(FrameId(3), NodeId(0)), 0u);
  EXPECT_EQ(counters.read(FrameId(3)).size(), 4u);
}

TEST(RefCounters, ElevenBitSaturation) {
  // The Origin2000 counters are 11 bits wide; they must clamp at 2047
  // and never wrap (wrapping would invert migration decisions).
  RefCounters counters(2, 2, 11);
  EXPECT_EQ(counters.max_value(), 2047u);
  counters.increment(FrameId(0), NodeId(0), 2000);
  counters.increment(FrameId(0), NodeId(0), 2000);
  EXPECT_EQ(counters.read(FrameId(0), NodeId(0)), 2047u);
  counters.increment(FrameId(0), NodeId(0), 1);
  EXPECT_EQ(counters.read(FrameId(0), NodeId(0)), 2047u);
}

TEST(RefCounters, ArgmaxAndReset) {
  RefCounters counters(4, 4, 11);
  counters.increment(FrameId(1), NodeId(2), 100);
  counters.increment(FrameId(1), NodeId(3), 50);
  EXPECT_EQ(counters.argmax_node(FrameId(1)), NodeId(2));
  counters.reset(FrameId(1));
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(counters.read(FrameId(1), NodeId(n)), 0u);
  }
  // Ties resolve to the lowest node id.
  EXPECT_EQ(counters.argmax_node(FrameId(0)), NodeId(0));
}

TEST(RefCounters, BoundsChecked) {
  RefCounters counters(2, 2, 11);
  EXPECT_THROW(counters.increment(FrameId(2), NodeId(0), 1),
               ContractViolation);
  EXPECT_THROW(counters.read(FrameId(0), NodeId(2)), ContractViolation);
}

TEST(PhysicalMemory, StrictAllocationWithinNode) {
  const topo::FatHypercube topology(4);
  PhysicalMemory phys(4, 2, topology);
  EXPECT_EQ(phys.total_free(), 8u);
  const auto f = phys.allocate_strict(NodeId(1));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(phys.node_of(*f), NodeId(1));
  EXPECT_EQ(phys.free_frames(NodeId(1)), 1u);
}

TEST(PhysicalMemory, StrictFailsWhenFull) {
  const topo::FatHypercube topology(4);
  PhysicalMemory phys(4, 1, topology);
  ASSERT_TRUE(phys.allocate_strict(NodeId(0)).has_value());
  EXPECT_FALSE(phys.allocate_strict(NodeId(0)).has_value());
}

TEST(PhysicalMemory, BestEffortRedirectsToNearestNode) {
  // IRIX's resource constraint: a full target node redirects the
  // allocation to the physically closest node with space.
  const topo::FatHypercube topology(4);
  PhysicalMemory phys(4, 1, topology);
  ASSERT_TRUE(phys.allocate_strict(NodeId(0)).has_value());
  const auto f = phys.allocate(NodeId(0));
  ASSERT_TRUE(f.has_value());
  // Node 1 shares node 0's router: one hop, the closest alternative.
  EXPECT_EQ(phys.node_of(*f), NodeId(1));
}

TEST(PhysicalMemory, ExhaustionReturnsNullopt) {
  const topo::FatHypercube topology(2);
  PhysicalMemory phys(2, 1, topology);
  ASSERT_TRUE(phys.allocate(NodeId(0)).has_value());
  ASSERT_TRUE(phys.allocate(NodeId(0)).has_value());
  EXPECT_FALSE(phys.allocate(NodeId(0)).has_value());
}

TEST(PhysicalMemory, FreeAndReuse) {
  const topo::FatHypercube topology(2);
  PhysicalMemory phys(2, 1, topology);
  const auto f = phys.allocate_strict(NodeId(0));
  phys.free(*f);
  EXPECT_EQ(phys.free_frames(NodeId(0)), 1u);
  EXPECT_THROW(phys.free(*f), ContractViolation);  // double free
  const auto again = phys.allocate_strict(NodeId(0));
  EXPECT_EQ(*again, *f);
}

TEST(PageTable, MapRemapUnmap) {
  PageTable table;
  table.map(VPage(5), FrameId(9));
  EXPECT_TRUE(table.is_mapped(VPage(5)));
  EXPECT_EQ(table.lookup(VPage(5)), FrameId(9));
  EXPECT_THROW(table.map(VPage(5), FrameId(1)), ContractViolation);

  const FrameId old = table.remap(VPage(5), FrameId(2));
  EXPECT_EQ(old, FrameId(9));
  EXPECT_EQ(table.entry(VPage(5)).migrations, 1u);

  EXPECT_EQ(table.unmap(VPage(5)), FrameId(2));
  EXPECT_FALSE(table.is_mapped(VPage(5)));
  EXPECT_THROW(table.unmap(VPage(5)), ContractViolation);
}

TEST(PageTable, MapperTrackingAndShootdownReset) {
  PageTable table;
  PageTable::Entry& entry = table.map(VPage(1), FrameId(1));
  EXPECT_EQ(table.find(VPage(1)), &entry);
  EXPECT_EQ(table.find(VPage(2)), nullptr);
  entry.note_mapper(ProcId(0));
  entry.note_mapper(ProcId(3));
  entry.note_mapper(ProcId(3));  // idempotent
  EXPECT_EQ(table.mapper_count(VPage(1)), 2u);
  // Migration (remap) clears the mappings: that is the TLB shootdown.
  table.remap(VPage(1), FrameId(2));
  EXPECT_EQ(table.mapper_count(VPage(1)), 0u);
}

TEST(Placement, FirstTouchUsesTouchersNode) {
  FirstTouchPlacement ft(4, 2);  // 2 procs per node
  EXPECT_EQ(ft.place(VPage(0), ProcId(0)), NodeId(0));
  EXPECT_EQ(ft.place(VPage(1), ProcId(1)), NodeId(0));
  EXPECT_EQ(ft.place(VPage(2), ProcId(7)), NodeId(3));
  EXPECT_EQ(ft.name(), "ft");
}

TEST(Placement, RoundRobinIsPageCyclic) {
  RoundRobinPlacement rr(4);
  for (std::uint64_t p = 0; p < 16; ++p) {
    EXPECT_EQ(rr.place(VPage(p), ProcId(0)).value(), p % 4);
  }
}

class RandomPlacementBalance : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomPlacementBalance, BalancedAndDeterministic) {
  // The paper: "a simple random generator is sufficient to produce a
  // fairly balanced distribution of pages" for resident sets of a few
  // thousand pages.
  const std::uint64_t seed = GetParam();
  RandomPlacement rand(16, seed);
  std::map<std::uint32_t, int> counts;
  constexpr int kPages = 4096;
  for (int p = 0; p < kPages; ++p) {
    counts[rand.place(VPage(static_cast<std::uint64_t>(p)), ProcId(0))
               .value()]++;
  }
  EXPECT_EQ(counts.size(), 16u);
  for (const auto& [node, count] : counts) {
    EXPECT_NEAR(count, kPages / 16, kPages / 16 * 0.35);
  }
  // reset() restores the exact sequence.
  RandomPlacement rand2(16, seed);
  rand.reset();
  for (int p = 0; p < 64; ++p) {
    EXPECT_EQ(rand.place(VPage(0), ProcId(0)),
              rand2.place(VPage(0), ProcId(0)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlacementBalance,
                         ::testing::Values(1, 42, 12345, 99999));

TEST(Placement, WorstCasePinsEverythingToOneNode) {
  FixedNodePlacement wc(NodeId(0));
  for (std::uint64_t p = 0; p < 100; ++p) {
    EXPECT_EQ(wc.place(VPage(p), ProcId(static_cast<std::uint32_t>(p % 16))),
              NodeId(0));
  }
}

TEST(Placement, FactoryMatchesPaperNames) {
  for (const char* name : {"ft", "rr", "rand", "wc"}) {
    EXPECT_EQ(make_placement(name, 16, 1, 0)->name(), name);
  }
  EXPECT_THROW(make_placement("optimal", 16, 1, 0), ContractViolation);
}

TEST(AddressSpace, AllocatesWithGuardPages) {
  AddressSpace space(16 * kKiB);
  const PageRange a = space.allocate_pages("a", 10);
  const PageRange b = space.allocate_pages("b", 5);
  // A guard page precedes every allocation (page 0 is the null guard).
  EXPECT_EQ(a.first.value(), 1u);
  EXPECT_EQ(b.first.value(), a.end().value() + 1);
  EXPECT_EQ(space.total_pages(), 1 + 10 + 1 + 5u);
}

TEST(AddressSpace, ByteAllocationRoundsUp) {
  AddressSpace space(16 * kKiB);
  const PageRange r = space.allocate("x", 16 * kKiB + 1);
  EXPECT_EQ(r.count, 2u);
}

TEST(AddressSpace, LookupAndDuplicates) {
  AddressSpace space(4096);
  space.allocate_pages("arr", 3);
  EXPECT_TRUE(space.has("arr"));
  EXPECT_EQ(space.range("arr").count, 3u);
  EXPECT_THROW(space.allocate_pages("arr", 1), ContractViolation);
  EXPECT_THROW(space.range("missing"), ContractViolation);
}

TEST(PageRange, ContainsAndIndex) {
  const PageRange r{VPage(10), 5};
  EXPECT_TRUE(r.contains(VPage(10)));
  EXPECT_TRUE(r.contains(VPage(14)));
  EXPECT_FALSE(r.contains(VPage(15)));
  EXPECT_EQ(r.page(2), VPage(12));
  EXPECT_THROW(r.page(5), ContractViolation);
}

}  // namespace
}  // namespace repro::vm
