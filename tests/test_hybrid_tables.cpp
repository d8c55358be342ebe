// Sparse/dense hybrid page-structure equivalence.
//
// Every page-grain bookkeeping structure has two backends (see
// memsys::TableBackend): the dense arrays the paper-scale machine uses
// and the open-addressed sparse indexes the 128/512-node sweeps use.
// The contract is behavioural equivalence -- identical operation
// sequences must produce identical digests, iteration orders and
// observable outcomes regardless of backend. The suite drives each
// structure pair directly, then replays the whole 30-cell golden grid
// under both backends and compares trace digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "repro/common/flat_map.hpp"
#include "repro/common/hash.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/memsys/directory.hpp"
#include "repro/memsys/page_cache.hpp"
#include "repro/vm/counters.hpp"
#include "repro/vm/page_table.hpp"

namespace repro {
namespace {

/// Deterministic pseudo-random stream (splitmix-style) for op fuzzing.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    return avalanche64(state);
  }
};

TEST(FlatMap, InsertFindEraseAndIterationOverManyKeys) {
  FlatMap<std::uint64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);

  // Enough keys to force several growth rehashes (starts at 16 slots).
  constexpr std::uint64_t kKeys = 4096;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map[k * 3] = k;
  }
  EXPECT_EQ(map.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t* v = map.find(k * 3);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
    EXPECT_EQ(map.find(k * 3 + 1), nullptr);
  }

  // Erase every other key; backward-shift deletion must keep the rest
  // reachable.
  for (std::uint64_t k = 0; k < kKeys; k += 2) {
    EXPECT_TRUE(map.erase(k * 3));
    EXPECT_FALSE(map.erase(k * 3));
  }
  EXPECT_EQ(map.size(), kKeys / 2);
  std::set<std::uint64_t> visited;
  map.for_each([&](std::uint64_t key, const std::uint64_t& value) {
    EXPECT_EQ(key, value * 3);
    visited.insert(key);
  });
  EXPECT_EQ(visited.size(), kKeys / 2);
  for (std::uint64_t k = 1; k < kKeys; k += 2) {
    ASSERT_NE(map.find(k * 3), nullptr) << k;
  }

  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(3), nullptr);
}

TEST(FlatMap, CollidingKeysSurviveBackwardShiftErase) {
  // Keys chosen to land in a small table; erasing the home slot of a
  // displaced key must shift it back rather than orphan it.
  FlatMap<int> map;
  for (std::uint64_t k = 0; k < 64; ++k) {
    map[k << 32] = static_cast<int>(k);
  }
  for (std::uint64_t k = 0; k < 64; k += 3) {
    ASSERT_TRUE(map.erase(k << 32));
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    const int* v = map.find(k << 32);
    if (k % 3 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr) << k;
      EXPECT_EQ(*v, static_cast<int>(k));
    }
  }
}

TEST(HybridPageTable, BackendsAgreeOnDigestEntriesAndCounts) {
  vm::PageTable dense(/*sparse=*/false);
  vm::PageTable sparse(/*sparse=*/true);
  ASSERT_FALSE(dense.sparse());
  ASSERT_TRUE(sparse.sparse());

  Rng rng{12345};
  std::vector<std::uint64_t> mapped;
  for (std::uint32_t step = 0; step < 2000; ++step) {
    const std::uint64_t roll = rng.next();
    for (vm::PageTable* table : {&dense, &sparse}) {
      if (mapped.size() < 64 || (roll % 5) < 3) {
        const std::uint64_t page = roll % 4096;
        if (!table->is_mapped(VPage(page))) {
          table->map(VPage(page), FrameId(roll % 997));
          if (table == &dense) {
            mapped.push_back(page);
          }
        } else {
          vm::PageTable::Entry* entry = table->find(VPage(page));
          entry->note_mapper(ProcId(static_cast<std::uint32_t>(roll % 96)));
          if ((roll % 7) == 0) {
            entry->dirty = true;
          }
        }
      } else {
        const std::uint64_t page = mapped[roll % mapped.size()];
        if (table->is_mapped(VPage(page))) {
          if ((roll % 3) == 0) {
            // Migrations require the replica set collapsed first.
            static_cast<void>(table->take_replicas(VPage(page)));
            static_cast<void>(table->remap(VPage(page), FrameId(roll % 991)));
          } else if ((roll % 3) == 1) {
            table->add_replica(VPage(page), FrameId(roll % 983));
          } else {
            static_cast<void>(table->take_replicas(VPage(page)));
            static_cast<void>(table->unmap(VPage(page)));
          }
        }
      }
    }
    if ((step % 251) == 0) {
      ASSERT_EQ(dense.digest(), sparse.digest()) << "step " << step;
    }
  }
  EXPECT_EQ(dense.digest(), sparse.digest());
  EXPECT_EQ(dense.mapped_pages(), sparse.mapped_pages());

  const auto dense_entries = dense.entries();
  const auto sparse_entries = sparse.entries();
  ASSERT_EQ(dense_entries.size(), sparse_entries.size());
  for (std::size_t i = 0; i < dense_entries.size(); ++i) {
    EXPECT_EQ(dense_entries[i].first, sparse_entries[i].first);
    EXPECT_EQ(dense_entries[i].second.frame, sparse_entries[i].second.frame);
    EXPECT_EQ(dense.mapper_count(dense_entries[i].first),
              sparse.mapper_count(sparse_entries[i].first));
  }
}

TEST(HybridPageTable, WideMapperSetsCountPastSixtyFourProcs) {
  vm::PageTable table(/*sparse=*/true);
  vm::PageTable::Entry& entry = table.map(VPage(9), FrameId(1));
  for (std::uint32_t proc = 0; proc < 200; proc += 2) {
    entry.note_mapper(ProcId(proc));
  }
  EXPECT_EQ(table.mapper_count(VPage(9)), 100u);
  // A remap (migration) must clear the whole wide set.
  static_cast<void>(table.remap(VPage(9), FrameId(2)));
  EXPECT_EQ(table.mapper_count(VPage(9)), 0u);
}

TEST(HybridDirectory, BackendsAgreeUnderRandomCoherenceTraffic) {
  constexpr std::size_t kProcs = 96;  // two sharer words per entry
  memsys::Directory dense(kProcs, /*sparse=*/false);
  memsys::Directory sparse(kProcs, /*sparse=*/true);

  Rng rng{777};
  for (std::uint32_t step = 0; step < 5000; ++step) {
    const std::uint64_t roll = rng.next();
    const ProcId proc(static_cast<std::uint32_t>(roll % kProcs));
    const VPage page((roll >> 8) % 512);
    const std::uint64_t op = (roll >> 32) % 4;
    unsigned dense_inv = 0;
    unsigned sparse_inv = 0;
    if (op == 0) {
      dense_inv = dense.on_write(proc, page).invalidations();
      sparse_inv = sparse.on_write(proc, page).invalidations();
    } else if (op == 3) {
      dense.on_evict(proc, page);
      sparse.on_evict(proc, page);
    } else {
      dense_inv = dense.on_read(proc, page).invalidations();
      sparse_inv = sparse.on_read(proc, page).invalidations();
    }
    ASSERT_EQ(dense_inv, sparse_inv) << "step " << step;
    if ((step % 509) == 0) {
      ASSERT_EQ(dense.digest(), sparse.digest()) << "step " << step;
      ASSERT_EQ(dense.tracked_pages(), sparse.tracked_pages());
    }
  }
  EXPECT_EQ(dense.digest(), sparse.digest());
  EXPECT_EQ(dense.tracked_pages(), sparse.tracked_pages());
}

TEST(HybridDirectory, WriteInvalidatesSharersBeyondWordZero) {
  constexpr std::size_t kProcs = 130;
  for (const bool sparse : {false, true}) {
    memsys::Directory directory(kProcs, sparse);
    for (std::uint32_t proc = 0; proc < kProcs; proc += 13) {
      static_cast<void>(directory.on_read(ProcId(proc), VPage(3)));
    }
    // Readers at procs 0, 13, ..., 117 (ten of them); the writer (65)
    // is one of them, so nine other copies must be invalidated.
    const auto outcome = directory.on_write(ProcId(65), VPage(3));
    EXPECT_EQ(outcome.invalidations(), 9u) << "sparse=" << sparse;
    EXPECT_FALSE(outcome.invalidate_high.empty());
    EXPECT_TRUE(directory.is_exclusive(ProcId(65), VPage(3)));
  }
}

TEST(HybridPageCache, BackendsAgreeOnLruBehaviourAndDigest) {
  memsys::PageCache dense(64, /*sparse=*/false);
  memsys::PageCache sparse(64, /*sparse=*/true);

  Rng rng{4242};
  for (std::uint32_t step = 0; step < 5000; ++step) {
    const std::uint64_t roll = rng.next();
    const VPage page(roll % 300);
    if ((roll >> 16) % 8 == 0) {
      EXPECT_EQ(dense.invalidate(page), sparse.invalidate(page));
    } else {
      const auto a = dense.touch(page);
      const auto b = sparse.touch(page);
      ASSERT_EQ(a.hit, b.hit) << "step " << step;
      ASSERT_EQ(a.evicted.has_value(), b.evicted.has_value());
      if (a.evicted.has_value()) {
        ASSERT_EQ(*a.evicted, *b.evicted);
      }
    }
    ASSERT_EQ(dense.size(), sparse.size());
    if (dense.size() > 0) {
      ASSERT_EQ(dense.lru_page(), sparse.lru_page());
    }
  }
  StateHash dense_hash;
  StateHash sparse_hash;
  dense.digest(dense_hash);
  sparse.digest(sparse_hash);
  EXPECT_EQ(dense_hash.value(), sparse_hash.value());

  dense.clear();
  sparse.clear();
  EXPECT_EQ(dense.size(), 0u);
  EXPECT_EQ(sparse.size(), 0u);
  EXPECT_FALSE(sparse.contains(VPage(1)));
}

/// The counter digest's definition: a scan of the whole frames x nodes
/// array mixing every nonzero counter at its frame-major flat index.
/// Both backends walk only touched frames and must match it exactly.
std::uint64_t full_scan_digest(const vm::RefCounters& counters) {
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

TEST(HybridRefCounters, BackendsAgreeOnReadsArgmaxAndDigest) {
  // Not a multiple of the dense chunk size: the last chunk is partial.
  constexpr std::size_t kFrames = 2000;
  constexpr std::size_t kNodes = 32;
  static_assert(kFrames % vm::RefCounters::kChunkFrames != 0);
  vm::RefCounters dense(kFrames, kNodes, /*counter_bits=*/11,
                        /*sparse=*/false);
  vm::RefCounters sparse(kFrames, kNodes, /*counter_bits=*/11,
                         /*sparse=*/true);
  const auto expect_same_state = [&](std::uint32_t step) {
    const std::uint64_t reference = full_scan_digest(dense);
    ASSERT_EQ(dense.digest(), reference) << "step " << step;
    ASSERT_EQ(sparse.digest(), reference) << "step " << step;
    ASSERT_EQ(full_scan_digest(sparse), reference) << "step " << step;
  };

  Rng rng{99};
  for (std::uint32_t step = 0; step < 4000; ++step) {
    if (step == 2500) {
      // Mid-sequence: everything back to zero, then more increments
      // land on the same (still allocated) storage.
      dense.reset_all();
      sparse.reset_all();
      ASSERT_NO_FATAL_FAILURE(expect_same_state(step));
    }
    const std::uint64_t roll = rng.next();
    const FrameId frame(step % 64 == 0 ? kFrames - 1 : roll % kFrames);
    const NodeId node(static_cast<std::uint32_t>((roll >> 16) % kNodes));
    if ((roll >> 40) % 16 == 0) {
      dense.reset(frame);
      sparse.reset(frame);
    } else {
      const auto n = static_cast<std::uint32_t>((roll >> 24) % 600);
      dense.increment(frame, node, n);
      sparse.increment(frame, node, n);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_state(step));
  }
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    EXPECT_EQ(dense.argmax_node(FrameId(f)), sparse.argmax_node(FrameId(f)));
    EXPECT_EQ(dense.read(FrameId(f), NodeId(3)),
              sparse.read(FrameId(f), NodeId(3)));
  }
  // An untouched frame reads as zeros in both backends.
  dense.reset_all();
  sparse.reset_all();
  ASSERT_NO_FATAL_FAILURE(expect_same_state(4000));
}

// The satellite acceptance gate: the full 30-cell golden grid (every
// benchmark x {ft, rr, wc} x {base, upmlib}) produces byte-identical
// trace digests with the dense and the sparse backends.
TEST(HybridTables, GoldenGridTraceDigestsAreBackendIndependent) {
  std::vector<harness::RunConfig> dense_configs;
  for (const std::string& benchmark : nas::workload_names()) {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const bool upmlib : {false, true}) {
        harness::RunConfig config;
        config.benchmark = benchmark;
        config.placement = placement;
        config.iterations = 3;
        config.workload.size_scale = 0.25;
        config.trace = true;
        config.machine.table_backend = memsys::TableBackend::kDense;
        if (upmlib) {
          config.upm_mode = nas::UpmMode::kDistribution;
        }
        dense_configs.push_back(std::move(config));
      }
    }
  }
  std::vector<harness::RunConfig> sparse_configs = dense_configs;
  for (harness::RunConfig& config : sparse_configs) {
    config.machine.table_backend = memsys::TableBackend::kSparse;
  }
  const std::vector<harness::RunResult> dense =
      harness::run_experiments(dense_configs, 4);
  const std::vector<harness::RunResult> sparse =
      harness::run_experiments(sparse_configs, 4);
  ASSERT_EQ(dense.size(), sparse.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i].trace_digest.size(), 16u);
    EXPECT_EQ(dense[i].trace_digest, sparse[i].trace_digest)
        << dense[i].benchmark << " " << dense[i].label
        << ": sparse backend diverged from dense";
  }
}

}  // namespace
}  // namespace repro
