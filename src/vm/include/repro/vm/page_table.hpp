// Virtual-to-physical page table plus per-page metadata needed by the
// migration machinery: which processors hold a live TLB mapping (so a
// migration can charge the right shootdown cost) and how often the page
// has migrated.
//
// The table is one dense array over the compact virtual page space (see
// vm::AddressSpace), 32 bytes per page at every machine size: the
// machine has one page table, so its footprint is O(pages), not
// O(pages x processors). Digests and entries() enumerate mapped pages
// in ascending page order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"

namespace repro::vm {

class PageTable {
 public:
  /// One mapping. 32 bytes: the members a miss reads sit inline, and
  /// the two that are empty in every paper cell -- replicas, and mapper
  /// words for processors >= 64 -- live out of line behind one pointer
  /// that is null while both are empty.
  struct Entry {
    FrameId frame;
    /// Bitmask of processors 0..63 that have faulted the page into
    /// their TLB since the last shootdown.
    std::uint64_t mapper_mask = 0;
    std::uint32_t migrations = 0;
    /// Written since the last clear_dirty() (drives the replication
    /// policy: only clean pages may replicate).
    bool dirty = false;
    /// The table is an array over the virtual page space, so unmapped
    /// pages occupy empty slots.
    bool mapped = false;

    Entry() = default;
    Entry(const Entry& other);
    Entry& operator=(const Entry& other);
    Entry(Entry&&) noexcept = default;
    Entry& operator=(Entry&&) noexcept = default;
    ~Entry() = default;

    /// Records that `proc` established a TLB mapping for the page.
    void note_mapper(ProcId proc) {
      if (proc.value() < 64) {
        mapper_mask |= 1ULL << proc.value();
        return;
      }
      note_high_mapper(proc);
    }

    /// Mapper words for processors >= 64 (word w covers processors
    /// 64*(w+1)..64*(w+2)-1). Empty on machines with <= 64 processors,
    /// which keeps their digests byte-identical to the single-word
    /// representation.
    [[nodiscard]] std::span<const std::uint64_t> mapper_high() const {
      return rare_ == nullptr ? std::span<const std::uint64_t>{}
                              : std::span<const std::uint64_t>(
                                    rare_->mapper_high);
    }
    /// Read-only replicas of the page on other nodes (frames holding
    /// copies; the primary stays authoritative), in creation order.
    /// Collapsed on write.
    [[nodiscard]] std::span<const FrameId> replicas() const {
      return rare_ == nullptr ? std::span<const FrameId>{}
                              : std::span<const FrameId>(rare_->replicas);
    }
    [[nodiscard]] bool has_replicas() const {
      return rare_ != nullptr && !rare_->replicas.empty();
    }

   private:
    friend class PageTable;
    struct Rare {
      std::vector<std::uint64_t> mapper_high;
      std::vector<FrameId> replicas;
    };
    void note_high_mapper(ProcId proc);
    /// Frees the out-of-line part once both of its vectors are empty.
    void trim();
    std::unique_ptr<Rare> rare_;
  };

  /// Maps a page and returns its fresh entry; the page must be
  /// unmapped.
  Entry& map(VPage page, FrameId frame);

  /// Unmaps; returns the old frame. The page must be mapped.
  FrameId unmap(VPage page);

  /// Remaps to a new frame (migration), clearing the mapper set and
  /// incrementing the migration count. Returns the old frame.
  FrameId remap(VPage page, FrameId frame);

  /// The translation hot path: the page's entry, or null when it is
  /// unmapped. One bounds check and one indexed load (virtual pages
  /// are dense, see vm::AddressSpace). Callers that go on to update
  /// the mapping (mapper set, dirty bit, replicas) do it on this entry
  /// instead of probing the table again per field.
  [[nodiscard]] const Entry* find(VPage page) const {
    if (page.value() >= table_.size() || !table_[page.value()].mapped) {
      return nullptr;
    }
    return &table_[page.value()];
  }
  [[nodiscard]] Entry* find(VPage page) {
    return const_cast<Entry*>(std::as_const(*this).find(page));
  }

  [[nodiscard]] bool is_mapped(VPage page) const {
    return find(page) != nullptr;
  }
  [[nodiscard]] std::optional<FrameId> lookup(VPage page) const {
    const Entry* e = find(page);
    if (e == nullptr) {
      return std::nullopt;
    }
    return e->frame;
  }

  /// Entry accessor; the page must be mapped.
  [[nodiscard]] const Entry& entry(VPage page) const;

  /// Clears the written mark that writers set on the entry.
  void clear_dirty(VPage page);
  [[nodiscard]] bool is_dirty(VPage page) const;

  /// Replica management (page must be mapped).
  void add_replica(VPage page, FrameId frame);
  /// Removes and returns all replica frames (write collapse).
  [[nodiscard]] std::vector<FrameId> take_replicas(VPage page);
  [[nodiscard]] std::span<const FrameId> replicas(VPage page) const;

  /// Number of processors with a live mapping.
  [[nodiscard]] unsigned mapper_count(VPage page) const;

  [[nodiscard]] std::size_t mapped_pages() const { return mapped_count_; }

  /// Digest (in page order) of the placement-relevant state of every
  /// mapping: frame, mapper set, dirty bit and the replica list (in
  /// order -- resolve() scans replicas front to back, so replica order
  /// breaks hop-distance ties). The monotone `migrations` counter is a
  /// statistic and is excluded.
  [[nodiscard]] std::uint64_t digest() const;

  /// Materialized snapshot of the mapped entries, in page order (for
  /// whole-address-space scans in tests/tools; not a hot path).
  [[nodiscard]] std::vector<std::pair<VPage, Entry>> entries() const;

 private:
  // Indexed by page id.
  std::vector<Entry> table_;

  std::size_t mapped_count_ = 0;

  Entry& mutable_entry(VPage page);
};

}  // namespace repro::vm
