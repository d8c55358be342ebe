// Page-grain coherence directory.
//
// Tracks, for every virtual page with at least one cached copy, the set
// of processors caching it and whether one of them holds it exclusively
// (has written it). The memory system consults the directory on every
// access to decide which remote copies a write must invalidate; this is
// what makes page-level false sharing (the paper's FT observation)
// emerge from access patterns instead of being hard-coded.
//
// Sharer sets are multi-word bitmaps (ceil(num_procs / 64) words per
// entry), so machines beyond 64 processors are representable. Entries
// live in one dense array over the virtual page space (an indexed load
// per access). The machine has one directory, so its footprint is
// O(pages x words), about 72 bytes per page at 512 processors. Digests
// enumerate live entries in page order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"

namespace repro::memsys {

class Directory {
 public:
  explicit Directory(std::size_t num_procs);

  struct AccessOutcome {
    /// Processors 0..63 whose cached copy must be invalidated (excludes
    /// the accessor).
    std::uint64_t invalidate_mask = 0;
    /// Invalidation words for processors >= 64 (word w covers
    /// processors 64*(w+1)..). Empty on <= 64-proc machines. Points
    /// into directory-owned scratch: valid until the next on_write.
    std::span<const std::uint64_t> invalidate_high;
    [[nodiscard]] unsigned invalidations() const;
  };

  /// Registers a read by `proc`; never invalidates, but a previous
  /// exclusive holder is downgraded to sharer.
  AccessOutcome on_read(ProcId proc, VPage page);

  /// Registers a write by `proc`; all other sharers must invalidate.
  AccessOutcome on_write(ProcId proc, VPage page);

  /// Removes `proc` from the sharer set (its cache evicted the page).
  void on_evict(ProcId proc, VPage page);

  /// Sharers among processors 0..63 (bitmask by processor id); the
  /// word-0 view is exact on <= 64-proc machines.
  [[nodiscard]] std::uint64_t sharers(VPage page) const;

  /// True if `proc` holds the page exclusively (last writer, no other
  /// sharers since).
  [[nodiscard]] bool is_exclusive(ProcId proc, VPage page) const;

  [[nodiscard]] std::size_t tracked_pages() const { return tracked_; }

  /// Digest of every live entry (page, sharer set, exclusive owner),
  /// in page order.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Slot `slot`'s entry: its sharer words, then its owner word.
  [[nodiscard]] std::uint64_t* entry(std::uint32_t slot) {
    return &entries_[static_cast<std::size_t>(slot) * stride_];
  }
  [[nodiscard]] const std::uint64_t* entry(std::uint32_t slot) const {
    return &entries_[static_cast<std::size_t>(slot) * stride_];
  }
  /// True while any sharer bit is set. A dead slot's owner word is 0
  /// too (has_owner implies the owner is a sharer).
  [[nodiscard]] bool live(const std::uint64_t* e) const;

  /// Slot of `page`, or kNoSlot when the page has no live entry.
  [[nodiscard]] std::uint32_t find_slot(VPage page) const;
  /// Slot of `page`, allocating an empty entry when absent.
  std::uint32_t ensure_slot(VPage page);

  std::size_t num_procs_;
  std::size_t words_per_entry_;
  /// Words per slot: the sharer words plus one owner word.
  std::size_t stride_;

  /// One array of slots, `stride_` words each: sharer bitmap words
  /// (ceil(num_procs / 64)), then the owner word -- 0 for none, else
  /// the exclusive writer's id + 1. A miss touches one slot, one cache
  /// line at the paper's 16 processors (two words).
  std::vector<std::uint64_t> entries_;
  /// Scratch backing AccessOutcome::invalidate_high (reused per write).
  std::vector<std::uint64_t> scratch_high_;

  std::size_t tracked_ = 0;
};

}  // namespace repro::memsys
