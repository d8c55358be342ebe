// VM tests: reference counters (11-bit saturation), physical frame
// pools with best-effort redirection, page table + mapper tracking,
// placement policies and the address space.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"
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

TEST(PhysicalMemory, DigestCoversFreeListOrder) {
  const topo::FatHypercube topology(2);
  // Two frames allocated and freed on node 0: the allocated set is
  // empty either way, but the LIFO order decides which frame the next
  // allocation returns, so it must reach the digest.
  const auto churn = [&](bool reverse) {
    PhysicalMemory phys(2, 8, topology);
    const auto a = phys.allocate_strict(NodeId(0));
    const auto b = phys.allocate_strict(NodeId(0));
    phys.free(reverse ? *b : *a);
    phys.free(reverse ? *a : *b);
    return phys;
  };
  const PhysicalMemory forward = churn(false);
  const PhysicalMemory backward = churn(true);
  EXPECT_EQ(forward.free_frames(NodeId(0)), backward.free_frames(NodeId(0)));
  EXPECT_NE(forward.digest(), backward.digest());
  // Equal histories digest equal.
  EXPECT_EQ(churn(false).digest(), forward.digest());
  EXPECT_EQ(churn(true).digest(), backward.digest());
  // So does an untouched pool, which differs from a churned one only
  // in its low-water mark.
  EXPECT_EQ(PhysicalMemory(2, 8, topology).digest(),
            PhysicalMemory(2, 8, topology).digest());
  EXPECT_NE(PhysicalMemory(2, 8, topology).digest(), forward.digest());
}

/// The eager free lists PhysicalMemory kept before they became lazy:
/// every free frame listed, LIFO, the lowest frame id on top at
/// construction. The oracle for the lazy lists' order and digest.
class EagerFreeLists {
 public:
  EagerFreeLists(std::size_t nodes, std::size_t frames_per_node,
                 const topo::Topology& topology)
      : fpn_(frames_per_node),
        topology_(&topology),
        lists_(nodes),
        low_water_(nodes, frames_per_node) {
    for (std::size_t n = 0; n < nodes; ++n) {
      for (std::size_t f = fpn_; f-- > 0;) {
        lists_[n].push_back(n * fpn_ + f);
      }
    }
  }

  std::optional<std::uint64_t> allocate_strict(NodeId node) {
    std::vector<std::uint64_t>& list = lists_[node.value()];
    if (list.empty()) {
      return std::nullopt;
    }
    const std::uint64_t frame = list.back();
    list.pop_back();
    low_water_[node.value()] =
        std::min(low_water_[node.value()], list.size());
    return frame;
  }

  std::optional<std::uint64_t> allocate(NodeId preferred,
                                        std::optional<NodeId> exclude) {
    if (exclude != preferred) {
      if (auto frame = allocate_strict(preferred)) {
        return frame;
      }
    }
    std::optional<NodeId> best;
    for (std::uint32_t n = 0; n < lists_.size(); ++n) {
      if (lists_[n].empty() || exclude == NodeId(n)) {
        continue;
      }
      if (!best || topology_->hops(preferred, NodeId(n)) <
                       topology_->hops(preferred, *best)) {
        best = NodeId(n);
      }
    }
    return best ? allocate_strict(*best) : std::nullopt;
  }

  void free(std::uint64_t frame) { lists_[frame / fpn_].push_back(frame); }

  [[nodiscard]] std::size_t free_frames(std::size_t node) const {
    return lists_[node].size();
  }

  [[nodiscard]] std::uint64_t digest() const {
    StateHash hash;
    for (std::size_t n = 0; n < lists_.size(); ++n) {
      hash.mix(low_water_[n]);
      hash.mix(lists_[n].size());
      for (std::size_t i = low_water_[n]; i < lists_[n].size(); ++i) {
        hash.mix(lists_[n][i]);
      }
    }
    return hash.value();
  }

 private:
  std::size_t fpn_;
  const topo::Topology* topology_;
  std::vector<std::vector<std::uint64_t>> lists_;
  std::vector<std::size_t> low_water_;
};

TEST(PhysicalMemory, LazyFreeListsMatchEagerLists) {
  const topo::FatHypercube topology(4);
  // 8 frames per node takes node_of's shift, 6 its divide.
  for (const std::size_t fpn : {std::size_t{8}, std::size_t{6}}) {
    SCOPED_TRACE(::testing::Message() << fpn << " frames per node");
    PhysicalMemory lazy(4, fpn, topology);
    EagerFreeLists eager(4, fpn, topology);
    std::vector<std::uint64_t> held;
    std::mt19937_64 rng(fpn);
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const auto node = NodeId(static_cast<std::uint32_t>(rng() % 4));
      const std::uint64_t op = rng() % 8;
      if (op < 3 && !held.empty()) {
        const std::size_t i = rng() % held.size();
        lazy.free(FrameId(held[i]));
        eager.free(held[i]);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        std::optional<FrameId> got;
        std::optional<std::uint64_t> want;
        if (op < 5) {
          got = lazy.allocate_strict(node);
          want = eager.allocate_strict(node);
        } else {
          std::optional<NodeId> exclude;
          if (op == 7) {
            exclude = NodeId(static_cast<std::uint32_t>(rng() % 4));
          }
          got = lazy.allocate(node, exclude);
          want = eager.allocate(node, exclude);
        }
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          ASSERT_EQ(got->value(), *want);
          ASSERT_EQ(lazy.node_of(*got).value(), *want / fpn);
          held.push_back(*want);
        }
      }
      std::size_t total = 0;
      for (std::uint32_t n = 0; n < 4; ++n) {
        ASSERT_EQ(lazy.free_frames(NodeId(n)), eager.free_frames(n));
        total += eager.free_frames(n);
      }
      ASSERT_EQ(lazy.total_free(), total);
      ASSERT_EQ(lazy.digest(), eager.digest());
    }
  }
}

TEST(RefCounters, CopyIsDeepAndDigestsEqual) {
  RefCounters counters(256, 4, 11);
  counters.increment(FrameId(3), NodeId(1), 10);
  counters.increment(FrameId(200), NodeId(2), 7);
  const RefCounters copy = counters;
  EXPECT_EQ(copy.digest(), counters.digest());
  counters.increment(FrameId(3), NodeId(1), 1);
  counters.reset(FrameId(200));
  EXPECT_EQ(copy.read(FrameId(3), NodeId(1)), 10u);
  EXPECT_EQ(copy.read(FrameId(200), NodeId(2)), 7u);
  EXPECT_NE(copy.digest(), counters.digest());
  counters = copy;
  EXPECT_EQ(counters.digest(), copy.digest());
  EXPECT_EQ(counters.read(FrameId(200), NodeId(2)), 7u);
}

/// The counter digest's definition: a scan of the whole frames x nodes
/// array mixing every nonzero counter at its frame-major flat index.
/// RefCounters walks only touched frames and must match it exactly.
std::uint64_t full_scan_digest(const RefCounters& counters) {
  StateHash hash;
  hash.mix(counters.num_frames() * counters.num_nodes());
  for (std::uint64_t f = 0; f < counters.num_frames(); ++f) {
    const auto row = counters.read(FrameId(f));
    for (std::size_t n = 0; n < row.size(); ++n) {
      if (row[n] != 0) {
        hash.mix(f * counters.num_nodes() + n);
        hash.mix(row[n]);
      }
    }
  }
  return hash.value();
}

TEST(RefCounters, ChunksHoldAtMost32KibOfCounters) {
  EXPECT_EQ(RefCounters(256, 1, 11).chunk_frames(), 64u);
  EXPECT_EQ(RefCounters(256, 16, 11).chunk_frames(), 64u);
  EXPECT_EQ(RefCounters(256, 128, 11).chunk_frames(), 64u);
  EXPECT_EQ(RefCounters(256, 200, 11).chunk_frames(), 32u);
  EXPECT_EQ(RefCounters(256, 512, 11).chunk_frames(), 16u);
  EXPECT_EQ(RefCounters(256, 16384, 11).chunk_frames(), 1u);
}

TEST(RefCounters, DigestEqualsAFullScanUnderRandomTraffic) {
  // Not a multiple of either chunk size: the last chunk is partial.
  constexpr std::size_t kFrames = 2001;
  for (const std::size_t nodes : {std::size_t{16}, std::size_t{512}}) {
    SCOPED_TRACE(nodes);
    RefCounters counters(kFrames, nodes, /*counter_bits=*/11);
    ASSERT_NE(kFrames % counters.chunk_frames(), 0u);
    // Saturating 11-bit counters, frame-major.
    std::vector<std::uint32_t> reference(kFrames * nodes, 0);
    // A full scan costs frames x nodes reads: scan the wide machine
    // less often.
    const std::size_t scan_every = nodes / 16;
    std::mt19937_64 rng(99);
    for (std::uint32_t step = 0; step < 4000; ++step) {
      if (step == 2500) {
        // Mid-sequence: everything back to zero, then more increments
        // land on the same (still allocated) chunks.
        counters.reset_all();
        std::fill(reference.begin(), reference.end(), 0u);
      }
      const std::uint64_t roll = rng();
      const FrameId frame(step % 64 == 0 ? kFrames - 1 : roll % kFrames);
      const auto node = static_cast<std::uint32_t>((roll >> 16) % nodes);
      std::uint32_t* row = &reference[frame.value() * nodes];
      if ((roll >> 40) % 16 == 0) {
        counters.reset(frame);
        std::fill(row, row + nodes, 0u);
      } else {
        const auto n = static_cast<std::uint32_t>((roll >> 24) % 600);
        counters.increment(frame, NodeId(node), n);
        row[node] = std::min(row[node] + n, counters.max_value());
      }
      if (step % scan_every == 0) {
        ASSERT_EQ(counters.digest(), full_scan_digest(counters)) << step;
      }
    }
    for (std::uint64_t f = 0; f < kFrames; ++f) {
      const auto row = counters.read(FrameId(f));
      ASSERT_TRUE(std::equal(row.begin(), row.end(), &reference[f * nodes]))
          << "frame " << f;
    }
    EXPECT_EQ(counters.digest(), full_scan_digest(counters));
    // Untouched frames read as zeros again.
    counters.reset_all();
    EXPECT_EQ(counters.digest(), full_scan_digest(counters));
    EXPECT_EQ(counters.digest(), RefCounters(kFrames, nodes, 11).digest());
  }
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

TEST(PageTable, WideMapperSetsCountPastSixtyFourProcs) {
  PageTable table;
  PageTable::Entry& entry = table.map(VPage(9), FrameId(1));
  for (std::uint32_t proc = 0; proc < 200; proc += 2) {
    entry.note_mapper(ProcId(proc));
  }
  EXPECT_EQ(table.mapper_count(VPage(9)), 100u);
  // A remap (migration) must clear the whole wide set.
  static_cast<void>(table.remap(VPage(9), FrameId(2)));
  EXPECT_EQ(table.mapper_count(VPage(9)), 0u);
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
