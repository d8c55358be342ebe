// Memory-system tests: latency ladder, page-grain cache, coherence
// directory, memory queues and the combined access engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <random>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"
#include "repro/memsys/backend.hpp"
#include "repro/memsys/config.hpp"
#include "repro/memsys/directory.hpp"
#include "repro/memsys/latency.hpp"
#include "repro/memsys/mem_queue.hpp"
#include "repro/memsys/memory_system.hpp"
#include "repro/memsys/page_cache.hpp"
#include "repro/topology/topology.hpp"

namespace repro::memsys {
namespace {

MachineConfig small_config() {
  MachineConfig config;
  config.num_nodes = 4;
  config.procs_per_node = 1;
  config.frames_per_node = 64;
  config.l2_size = 4 * config.page_size;  // 4-page caches
  return config;
}

/// Backend that homes page p on node (p % nodes) and counts misses.
class FixedBackend final : public MemoryBackend {
 public:
  explicit FixedBackend(std::size_t nodes) : nodes_(nodes) {}

  HomeInfo resolve(ProcId, VPage page, bool) override {
    return {NodeId(static_cast<std::uint32_t>(page.value() % nodes_)),
            FrameId(page.value())};
  }
  Ns on_miss(ProcId, VPage page, const HomeInfo&, std::uint32_t lines,
             Ns) override {
    miss_lines += lines;
    last_page = page;
    return penalty;
  }

  std::size_t nodes_;
  std::uint64_t miss_lines = 0;
  VPage last_page;
  Ns penalty = 0;
};

TEST(Config, DefaultsAreThePapersMachine) {
  const MachineConfig config;
  EXPECT_EQ(config.num_nodes, 16u);
  EXPECT_EQ(config.page_size, 16 * kKiB);
  EXPECT_EQ(config.lines_per_page(), 128u);
  EXPECT_EQ(config.cache_capacity_pages(), 256u);
  EXPECT_EQ(config.counter_max(), 2047u);  // 11-bit counters
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, ValidationCatchesNonsense) {
  MachineConfig config;
  config.num_nodes = 1;
  EXPECT_THROW(config.validate(), ContractViolation);
  config = MachineConfig{};
  config.page_size = 3000;  // not a power of two
  EXPECT_THROW(config.validate(), ContractViolation);
  config = MachineConfig{};
  config.mem_latency_ns = {100.0, 50.0};  // decreasing ladder
  EXPECT_THROW(config.validate(), ContractViolation);
  config = MachineConfig{};
  config.num_nodes = 128;  // > 64 procs: legal now (multi-word masks),
  EXPECT_NO_THROW(config.validate());
  config.num_nodes = 131072;  // but the sanity ceiling still exists
  EXPECT_THROW(config.validate(), ContractViolation);
}

TEST(Latency, ReproducesTable1) {
  const MachineConfig config;
  const topo::FatHypercube topology(16);
  const LatencyModel model(config, topology);
  EXPECT_DOUBLE_EQ(model.latency_for_hops(0), 329.0);
  EXPECT_DOUBLE_EQ(model.latency_for_hops(1), 564.0);
  EXPECT_DOUBLE_EQ(model.latency_for_hops(2), 759.0);
  EXPECT_DOUBLE_EQ(model.latency_for_hops(3), 862.0);
  // Extrapolation beyond the measured ladder.
  EXPECT_DOUBLE_EQ(model.latency_for_hops(5), 862.0 + 2 * 150.0);
  // The paper's headline architectural ratio: between 2:1 and 3:1.
  EXPECT_GT(model.worst_remote_to_local_ratio(), 2.0);
  EXPECT_LT(model.worst_remote_to_local_ratio(), 3.0);
}

TEST(Latency, MemoryLatencyUsesHops) {
  const MachineConfig config;
  const topo::FatHypercube topology(16);
  const LatencyModel model(config, topology);
  EXPECT_DOUBLE_EQ(model.memory_latency(NodeId(0), NodeId(0)), 329.0);
  EXPECT_DOUBLE_EQ(model.memory_latency(NodeId(0), NodeId(1)), 564.0);
}

TEST(PageCache, HitAndMiss) {
  PageCache cache(2);
  EXPECT_FALSE(cache.touch(VPage(1)).hit);
  EXPECT_TRUE(cache.touch(VPage(1)).hit);
  EXPECT_TRUE(cache.contains(VPage(1)));
  EXPECT_FALSE(cache.contains(VPage(2)));
}

TEST(PageCache, LruEviction) {
  PageCache cache(2);
  cache.touch(VPage(1));
  cache.touch(VPage(2));
  cache.touch(VPage(1));  // 2 is now LRU
  EXPECT_EQ(cache.lru_page(), VPage(2));
  const auto r = cache.touch(VPage(3));
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, VPage(2));
  EXPECT_TRUE(cache.contains(VPage(1)));
}

TEST(PageCache, InvalidateAndClear) {
  PageCache cache(4);
  cache.touch(VPage(1));
  EXPECT_TRUE(cache.invalidate(VPage(1)));
  EXPECT_FALSE(cache.invalidate(VPage(1)));
  cache.touch(VPage(2));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

class PageCacheSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PageCacheSweep, CyclicSweepLargerThanCapacityAlwaysMisses) {
  // The workload models rely on this LRU property: a cyclic sweep over
  // capacity+1 pages misses on every access after warmup.
  const std::size_t capacity = GetParam();
  PageCache cache(capacity);
  const std::size_t footprint = capacity + 1;
  for (std::size_t i = 0; i < footprint; ++i) {
    cache.touch(VPage(i));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < footprint; ++i) {
      EXPECT_FALSE(cache.touch(VPage(i)).hit);
    }
  }
}

TEST_P(PageCacheSweep, SweepWithinCapacityAlwaysHits) {
  const std::size_t capacity = GetParam();
  PageCache cache(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    cache.touch(VPage(i));
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    EXPECT_TRUE(cache.touch(VPage(i)).hit);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, PageCacheSweep,
                         ::testing::Values(1, 2, 16, 256));

// Random touch / invalidate / clear traffic against a std::list LRU
// (front = most recent). The pages come from three windows that each
// straddle a boundary of the cache's chunked page index, one of them
// at page 2^20, so a wrong chunk mask, an unfilled fresh chunk or a
// stale entry left behind by clear() shows up as a wrong hit flag,
// victim, residency or digest.
TEST(PageCache, MatchesAReferenceLruAcrossChunks) {
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    SCOPED_TRACE(capacity);
    const std::uint64_t window = 2 * capacity + 4;
    const std::uint64_t bases[] = {256 - window / 2, 768 - window / 2,
                                   (1ULL << 20) - window / 2};
    std::mt19937_64 rng(capacity);
    const auto random_page = [&] {
      return bases[rng() % 3] + rng() % window;
    };
    PageCache cache(capacity);
    std::list<std::uint64_t> reference;
    const auto expect_same_digest = [&] {
      StateHash expected;
      expected.mix(reference.size());
      for (const std::uint64_t page : reference) {
        expected.mix(page);
      }
      StateHash actual;
      cache.digest(actual);
      ASSERT_EQ(actual.value(), expected.value());
    };
    for (std::uint32_t step = 0; step < 20000; ++step) {
      SCOPED_TRACE(step);
      const std::uint64_t page = random_page();
      const auto it = std::find(reference.begin(), reference.end(), page);
      const std::uint64_t op = rng() % 64;
      if (op == 0) {
        cache.clear();
        for (const std::uint64_t dropped : reference) {
          ASSERT_FALSE(cache.contains(VPage(dropped))) << dropped;
        }
        reference.clear();
      } else if (op < 8) {
        ASSERT_EQ(cache.invalidate(VPage(page)), it != reference.end());
        if (it != reference.end()) {
          reference.erase(it);
        }
      } else {
        const PageCache::TouchResult result = cache.touch(VPage(page));
        ASSERT_EQ(result.hit, it != reference.end());
        std::optional<VPage> victim;
        if (it != reference.end()) {
          reference.erase(it);
        } else if (reference.size() == capacity) {
          victim = VPage(reference.back());
          reference.pop_back();
        }
        reference.push_front(page);
        ASSERT_EQ(result.evicted, victim);
      }
      ASSERT_EQ(cache.size(), reference.size());
      if (!reference.empty()) {
        ASSERT_EQ(cache.lru_page(), VPage(reference.back()));
      }
      const std::uint64_t probe = random_page();
      ASSERT_EQ(cache.contains(VPage(probe)),
                std::find(reference.begin(), reference.end(), probe) !=
                    reference.end())
          << probe;
      if (step % 97 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_same_digest());
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_digest());
  }
}

TEST(Directory, WriteInvalidatesSharers) {
  Directory dir(4);
  dir.on_read(ProcId(0), VPage(9));
  dir.on_read(ProcId(1), VPage(9));
  const auto out = dir.on_write(ProcId(2), VPage(9));
  EXPECT_EQ(out.invalidate_mask, 0b011u);
  EXPECT_EQ(out.invalidations(), 2u);
  EXPECT_TRUE(dir.is_exclusive(ProcId(2), VPage(9)));
}

TEST(Directory, ReadDowngradesExclusive) {
  Directory dir(4);
  dir.on_write(ProcId(0), VPage(1));
  EXPECT_TRUE(dir.is_exclusive(ProcId(0), VPage(1)));
  dir.on_read(ProcId(1), VPage(1));
  EXPECT_FALSE(dir.is_exclusive(ProcId(0), VPage(1)));
  EXPECT_EQ(dir.sharers(VPage(1)), 0b011u);
}

TEST(Directory, SelfWriteDoesNotInvalidateSelf) {
  Directory dir(4);
  dir.on_read(ProcId(3), VPage(5));
  const auto out = dir.on_write(ProcId(3), VPage(5));
  EXPECT_EQ(out.invalidate_mask, 0u);
}

TEST(Directory, EvictRemovesSharerAndGarbageCollects) {
  Directory dir(4);
  dir.on_read(ProcId(0), VPage(2));
  dir.on_read(ProcId(1), VPage(2));
  EXPECT_EQ(dir.tracked_pages(), 1u);
  dir.on_evict(ProcId(0), VPage(2));
  EXPECT_EQ(dir.sharers(VPage(2)), 0b010u);
  dir.on_evict(ProcId(1), VPage(2));
  EXPECT_EQ(dir.tracked_pages(), 0u);
  // Evicting an untracked page is a no-op.
  EXPECT_NO_THROW(dir.on_evict(ProcId(1), VPage(2)));
}

TEST(Directory, WriteInvalidatesSharersBeyondWordZero) {
  constexpr std::size_t kProcs = 130;
  Directory directory(kProcs);
  for (std::uint32_t proc = 0; proc < kProcs; proc += 13) {
    static_cast<void>(directory.on_read(ProcId(proc), VPage(3)));
  }
  // Readers at procs 0, 13, ..., 117 (ten of them); the writer (65)
  // is one of them, so nine other copies must be invalidated.
  const auto outcome = directory.on_write(ProcId(65), VPage(3));
  EXPECT_EQ(outcome.invalidations(), 9u);
  EXPECT_FALSE(outcome.invalidate_high.empty());
  EXPECT_TRUE(directory.is_exclusive(ProcId(65), VPage(3)));
}

TEST(MemQueue, NoWaitWhenIdle) {
  MemQueue queue(100.0);
  const auto s = queue.serve(1000, 10);
  EXPECT_EQ(s.wait, 0u);
  EXPECT_EQ(queue.busy_until(), 2000u);
  EXPECT_EQ(queue.lines_served(), 10u);
}

TEST(MemQueue, BackToBackArrivalsWait) {
  MemQueue queue(100.0);
  queue.serve(0, 10);  // busy until 1000
  const auto s = queue.serve(400, 10);
  EXPECT_EQ(s.wait, 600u);
  EXPECT_EQ(queue.busy_until(), 2000u);
  EXPECT_EQ(queue.total_wait(), 600u);
}

TEST(MemQueue, FractionalOccupancyAccumulates) {
  MemQueue queue(0.5);  // half a nanosecond per line
  queue.serve(0, 1);
  queue.serve(0, 1);
  // Two half-ns services must amount to one whole nanosecond.
  EXPECT_EQ(queue.busy_until(), 1u);
}

TEST(MemQueue, ResetClearsState) {
  MemQueue queue(100.0);
  queue.serve(0, 10);
  queue.reset();
  EXPECT_EQ(queue.busy_until(), 0u);
  EXPECT_EQ(queue.lines_served(), 0u);
}

TEST(MemorySystem, MissThenHitAccounting) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  const auto miss =
      memory.access(0, {ProcId(0), VPage(0), 8, false});
  EXPECT_EQ(miss.misses, 8u);
  EXPECT_FALSE(miss.remote);  // page 0 homes on node 0
  const auto hit = memory.access(miss.elapsed,
                                 {ProcId(0), VPage(0), 8, false});
  EXPECT_EQ(hit.misses, 0u);
  EXPECT_LT(hit.elapsed, miss.elapsed);
  EXPECT_EQ(memory.stats(ProcId(0)).hit_lines, 8u);
  EXPECT_EQ(memory.stats(ProcId(0)).local_miss_lines, 8u);
  EXPECT_EQ(backend.miss_lines, 8u);
}

TEST(MemorySystem, RemoteCostsMoreThanLocal) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  const auto local = memory.access(0, {ProcId(0), VPage(0), 16, false});
  const auto remote = memory.access(0, {ProcId(0), VPage(2), 16, false});
  EXPECT_TRUE(remote.remote);
  EXPECT_GT(remote.elapsed, local.elapsed);
  EXPECT_GT(memory.stats(ProcId(0)).remote_fraction(), 0.4);
}

TEST(MemorySystem, StreamHidesMostRemoteLatency) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  const auto blocking =
      memory.access(0, {ProcId(0), VPage(2), 64, false, false});
  memory.flush_all();
  const auto streamed =
      memory.access(0, {ProcId(0), VPage(2), 64, false, true});
  EXPECT_EQ(streamed.misses, 64u);
  EXPECT_LT(streamed.elapsed, blocking.elapsed);
  // But a remote stream is still slower than a local one.
  memory.flush_all();
  const auto local_stream =
      memory.access(0, {ProcId(0), VPage(0), 64, false, true});
  EXPECT_GT(streamed.elapsed, local_stream.elapsed);
}

TEST(MemorySystem, WriteSharingInvalidatesAndReMisses) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  memory.access(0, {ProcId(0), VPage(7), 4, false});
  memory.access(0, {ProcId(1), VPage(7), 4, false});
  // Proc 2 writes: both cached copies die; writers pay invalidations.
  const auto w = memory.access(0, {ProcId(2), VPage(7), 4, true});
  EXPECT_EQ(w.invalidations, 2u);
  // Proc 0 must miss again.
  const auto again = memory.access(0, {ProcId(0), VPage(7), 4, false});
  EXPECT_EQ(again.misses, 4u);
}

TEST(MemorySystem, BackendPenaltyIsCharged) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  const auto base = memory.access(0, {ProcId(0), VPage(0), 1, false});
  memory.flush_all();
  memory.reset_stats();  // also drains the memory-module queues
  backend.penalty = 1'000'000;
  const auto with_penalty =
      memory.access(0, {ProcId(0), VPage(0), 1, false});
  EXPECT_EQ(with_penalty.elapsed, base.elapsed + 1'000'000);
}

TEST(MemorySystem, QueueContentionSerializes) {
  // Many processors hammering one node must see growing waits; the
  // paper's worst-case placement effect.
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(1);  // everything homes on node 0
  MemorySystem memory(config, topology, backend);

  Ns total_wait = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    // All arrive at time 0 with big batches.
    const auto r = memory.access(
        0, {ProcId(p), VPage(100 + p), 128, false});
    total_wait += r.queue_wait;
  }
  EXPECT_GT(total_wait, 0u);
  EXPECT_EQ(memory.queue(NodeId(0)).lines_served(), 4u * 128u);
}

TEST(MemorySystem, FlushPageForcesColdMiss) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  memory.access(0, {ProcId(0), VPage(3), 4, false});
  memory.flush_page(VPage(3));
  const auto r = memory.access(0, {ProcId(0), VPage(3), 4, false});
  EXPECT_EQ(r.misses, 4u);
}

TEST(MemorySystem, RejectsOutOfRangeRequests) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);
  EXPECT_THROW(memory.access(0, {ProcId(99), VPage(0), 1, false}),
               ContractViolation);
  EXPECT_THROW(memory.access(0, {ProcId(0), VPage(0), 0, false}),
               ContractViolation);
  EXPECT_THROW(
      memory.access(0, {ProcId(0), VPage(0),
                        config.lines_per_page() + 1, false}),
      ContractViolation);
}

TEST(MemorySystem, FlushTlbsDropsTranslationsButKeepsCacheData) {
  MachineConfig config = small_config();
  config.tlb_entries = 8;
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  memory.access(0, {ProcId(0), VPage(0), 4, false});
  const std::uint64_t warm_tlb_misses = memory.stats(ProcId(0)).tlb_misses;
  EXPECT_EQ(warm_tlb_misses, 1u);

  // Warm re-access: no refill, no cache miss.
  const auto warm = memory.access(0, {ProcId(0), VPage(0), 4, false});
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(memory.stats(ProcId(0)).tlb_misses, warm_tlb_misses);

  // flush_tlbs drops translations only: the next access pays a refill
  // but still hits in the (physical, untouched) cache.
  memory.flush_tlbs();
  const auto refilled = memory.access(0, {ProcId(0), VPage(0), 4, false});
  EXPECT_EQ(refilled.misses, 0u);
  EXPECT_EQ(memory.stats(ProcId(0)).tlb_misses, warm_tlb_misses + 1);
  EXPECT_GT(refilled.elapsed, warm.elapsed);
}

TEST(MemorySystem, FlushAllLeavesMachineFullyColdIncludingTlbs) {
  MachineConfig config = small_config();
  config.tlb_entries = 8;
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);

  memory.access(0, {ProcId(0), VPage(0), 4, false});
  memory.flush_all();
  // Both the cache line fill AND the TLB refill must be repaid.
  const auto cold = memory.access(0, {ProcId(0), VPage(0), 4, false});
  EXPECT_EQ(cold.misses, 4u);
  EXPECT_EQ(memory.stats(ProcId(0)).tlb_misses, 2u);
}

TEST(MemorySystem, TotalStatsAggregate) {
  const MachineConfig config = small_config();
  const topo::FatHypercube topology(4);
  FixedBackend backend(4);
  MemorySystem memory(config, topology, backend);
  memory.access(0, {ProcId(0), VPage(0), 4, false});
  memory.access(0, {ProcId(1), VPage(2), 4, false});
  const ProcStats total = memory.total_stats();
  EXPECT_EQ(total.miss_lines(), 8u);
  memory.reset_stats();
  EXPECT_EQ(memory.total_stats().miss_lines(), 0u);
}

}  // namespace
}  // namespace repro::memsys
