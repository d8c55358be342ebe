// Page-grain processor cache model.
//
// The simulator models caching at the granularity of whole pages rather
// than individual lines: a page is either resident in a processor's L2
// or not, and residency is managed with true LRU. This is the standard
// coarsening for page-placement studies -- what the experiments need is
// the *rate of L2 misses per page per node*, which drives both the
// latency charged to threads and the per-frame reference counters. The
// line-level structure inside a page only scales the number of misses
// (lines touched), which callers pass explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"

namespace repro::memsys {

class PageCache {
 public:
  /// `capacity_pages` == L2 size / page size; must be >= 1.
  explicit PageCache(std::size_t capacity_pages);

  struct TouchResult {
    bool hit = false;
    /// Set when inserting required evicting the LRU page; the caller
    /// must notify the coherence directory.
    std::optional<VPage> evicted;
  };

  /// True if the page is currently resident (does not touch LRU order).
  [[nodiscard]] bool contains(VPage page) const {
    return slot_of(page) >= 0;
  }

  /// Makes the page most-recently-used, inserting it if absent.
  TouchResult touch(VPage page);

  /// Drops a page (coherence invalidation). Returns true if it was
  /// resident.
  bool invalidate(VPage page);

  /// Drops everything (used when a simulated thread is migrated).
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Identity of the page that would be evicted next (LRU); only valid
  /// when size() > 0. Exposed for tests.
  [[nodiscard]] VPage lru_page() const;

  /// Mixes the cache's full content *in recency order* into `hash`.
  /// Residency alone is not enough for a behavioural digest: the LRU
  /// order decides every future eviction, so two caches with the same
  /// page set but different stack orders must hash differently.
  void digest(StateHash& hash) const;

 private:
  /// Touched on every simulated access, so the LRU is an intrusive
  /// doubly-linked list over a fixed node pool (indices, no
  /// allocation) with a chunked page -> node index: one shift, one
  /// mask and two indexed loads per lookup instead of a hash probe and
  /// list-node churn. Chunks of kChunkPages entries are allocated on
  /// the first insert of a page in their range, so a cache's index
  /// costs the few chunks its pages fall in, not O(max page id) -- a
  /// 512-node machine holds 512 of these indexes over one page space.
  struct Node {
    std::uint64_t page = 0;
    std::int32_t prev = -1;
    std::int32_t next = -1;
  };

  void unlink(std::int32_t n);
  void push_front(std::int32_t n);

  static constexpr unsigned kChunkShift = 8;
  static constexpr std::size_t kChunkPages = std::size_t{1} << kChunkShift;
  static constexpr std::uint64_t kChunkMask = kChunkPages - 1;

  /// Node index holding `page`, -1 when absent.
  [[nodiscard]] std::int32_t slot_of(VPage page) const {
    const std::uint64_t chunk = page.value() >> kChunkShift;
    if (chunk >= where_.size() || where_[chunk] == nullptr) {
      return -1;
    }
    return where_[chunk][page.value() & kChunkMask];
  }
  void set_slot(VPage page, std::int32_t n);
  void drop_slot(VPage page) {
    where_[page.value() >> kChunkShift][page.value() & kChunkMask] = -1;
  }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;  // fixed pool, one per cache slot
  /// Page id -> node, -1 absent; chunk c covers pages c*kChunkPages
  /// onward and is null until one of them is inserted.
  std::vector<std::unique_ptr<std::int32_t[]>> where_;
  std::int32_t head_ = -1;            // most recent
  std::int32_t tail_ = -1;            // next eviction victim
  std::int32_t free_ = -1;            // free-slot chain through `next`
};

}  // namespace repro::memsys
