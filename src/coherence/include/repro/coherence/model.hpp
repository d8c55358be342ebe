// Line-granularity MSI/MESI coherence model.
//
// Implements memsys::LineModel: per-processor set-associative LRU line
// caches over a line-grain sharer directory, replacing the page-grain
// hit/miss classification when attached (Machine::enable_coherence).
// The division of labour is in memsys/line_model.hpp -- this model
// decides *which* lines hit, fill, upgrade or write back; the memory
// system keeps charging the Table-1 ladder and the per-node queues.
//
// Everything here is a pure function of the access stream: no host
// state, no addresses, no wall-clock reads. That is what lets traced
// runs with coherence enabled stay byte-identical across --jobs counts
// and reruns (each simulated machine is single-threaded; the scheduler
// parallelism is across machines).
//
// Value/ordering oracle: every write stamps the line with a fresh
// version from a monotone counter; a read observes its cached copy's
// version, or memory's after a fill. The protocol invariant that makes
// the oracle work -- a write invalidates every other copy before the
// writer proceeds (SWMR) -- means no stale version can ever be
// observed; tests/test_coherence.cpp checks exactly that against an
// independent flat-memory oracle, plus the structural audit() below.
//
// Directory layout: the first access to a virtual page allocates one
// contiguous block of lines_per_page() directory slots (and their
// sharer words); `page_base_[page]` holds the block's first slot, so a
// line's slot is base + index and an access resolves its page once.
// Each cached way also carries its line's slot, which lets evictions
// and upgrades reach the directory entry without any lookup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "repro/coherence/config.hpp"
#include "repro/common/hash.hpp"
#include "repro/common/strong_id.hpp"
#include "repro/common/units.hpp"
#include "repro/memsys/config.hpp"
#include "repro/memsys/line_model.hpp"
#include "repro/trace/sink.hpp"

namespace repro::coherence {

/// Per-processor cumulative protocol statistics. "Lines" are coherence
/// lines (identical to machine cache lines at the default line_size).
struct CoherenceStats {
  std::uint64_t hit_lines = 0;
  std::uint64_t cold_miss_lines = 0;
  std::uint64_t capacity_miss_lines = 0;
  std::uint64_t coherence_miss_lines = 0;
  std::uint64_t upgrades = 0;             ///< S->M directory round trips
  std::uint64_t invalidations_sent = 0;   ///< remote copies this proc killed
  std::uint64_t invalidations_received = 0;
  std::uint64_t writebacks = 0;           ///< dirty lines evicted
  std::uint64_t dirty_fetches = 0;        ///< fills served by a dirty copy

  [[nodiscard]] std::uint64_t miss_lines() const {
    return cold_miss_lines + capacity_miss_lines + coherence_miss_lines;
  }
  /// Coherence misses as a fraction of all line touches; 0 when idle.
  [[nodiscard]] double coherence_miss_rate() const;
};

class CoherenceModel final : public memsys::LineModel {
 public:
  /// Copy of a cached line's protocol state (introspection for tests;
  /// kInvalid means "not cached").
  enum class LineState : std::uint8_t {
    kInvalid = 0,
    kShared,
    kExclusive,  // MESI only: clean, sole copy
    kModified,
  };

  CoherenceModel(const memsys::MachineConfig& machine,
                 const CoherenceConfig& config);

  // --- memsys::LineModel ----------------------------------------------
  memsys::LineOutcome on_access(Ns now,
                                const memsys::LineAccess& access) override;
  void flush_page(VPage page) override;
  void clear() override;
  void reset_stats() override;
  void digest(StateHash& hash) const override;

  /// Routes coherence events into `lane` (null sink to detach).
  void set_trace(trace::TraceSink* sink, std::uint16_t lane);

  [[nodiscard]] const CoherenceConfig& config() const { return config_; }
  [[nodiscard]] const CoherenceStats& stats(ProcId proc) const;
  [[nodiscard]] CoherenceStats total_stats() const;

  /// Coherence lines per page (page_size / line_size).
  [[nodiscard]] std::uint32_t lines_per_page() const { return clpp_; }

  // --- introspection (tests) ------------------------------------------
  /// Global coherence line id of line `index` within `page`.
  [[nodiscard]] std::uint64_t line_id(VPage page, std::uint32_t index) const {
    return page.value() * clpp_ + index;
  }
  [[nodiscard]] LineState state_of(ProcId proc, std::uint64_t line) const;
  /// Procs currently holding a cached copy of `line`, ascending.
  [[nodiscard]] std::vector<std::uint32_t> sharers_of(
      std::uint64_t line) const;
  /// The version `proc` would observe reading `line` right now: its
  /// cached copy's version, else memory's (0 = never written).
  [[nodiscard]] std::uint64_t probe_version(ProcId proc,
                                            std::uint64_t line) const;

  /// Structural invariant audit; throws ContractViolation on any
  /// violation. Checks SWMR (an M or E copy is the only copy), cache /
  /// directory sharer-set agreement, owner consistency, and that E
  /// states never appear under MSI.
  void audit() const;

 private:
  struct Way {
    std::uint64_t line = 0;
    std::uint64_t version = 0;
    std::uint64_t lru = 0;  ///< last-touch stamp (per-proc counter)
    LineState state = LineState::kInvalid;
    std::uint32_t slot = 0;  ///< directory slot of `line` (valid ways)
  };
  // `slot` sits in the padding after `state`. Ways are allocated up
  // front for every proc (16 x 64 sets x 8 ways = 256 KiB by default),
  // so their size is the model's fixed cost per cell.
  static_assert(sizeof(Way) == 32);

  /// Directory entry. A page's slots exist from its first access, but a
  /// line's entry counts as created only from its first miss; entries
  /// persist once created so the "ever filled" and "invalidated"
  /// bitmaps survive eviction (miss classification).
  struct Entry {
    std::uint64_t memory_version = 0;
    std::uint32_t owner = kNoOwner;  ///< proc holding E or M, if any
    bool dirty = false;              ///< owner's copy is M
    bool created = false;            ///< the line has missed at least once
  };
  static constexpr std::uint32_t kNoOwner = ~0u;
  /// No block (page_base_) or no created entry (slot_of).
  static constexpr std::uint32_t kNoSlot = ~0u;

  [[nodiscard]] Way* find_way(std::uint32_t proc, std::uint64_t line);
  [[nodiscard]] const Way* find_way(std::uint32_t proc,
                                    std::uint64_t line) const;
  /// First slot of `page`'s directory block, allocating it (and growing
  /// page_base_) on the page's first access.
  [[nodiscard]] std::uint32_t page_block(VPage page);
  /// First slot of `page`'s block, or kNoSlot if it was never accessed.
  [[nodiscard]] std::uint32_t block_of(std::uint64_t page) const;
  /// Slot of `line`'s created entry, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t line) const;
  /// Calls fn(line, slot) for every created entry in ascending global
  /// line order (pages ascending, then lines within the page).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const;
  /// Touches one coherence line for `proc`; classifies, mutates cache +
  /// directory state, accumulates into `out` and the stats, and emits
  /// per-line events. `page` and `index` locate the line for events;
  /// `slot` is its directory slot.
  void touch_line(Ns now, std::uint32_t proc, VPage page,
                  std::uint32_t index, std::uint32_t slot, bool write,
                  memsys::LineOutcome& out);
  /// Invalidates every cached copy of `line` except `keeper`; marks the
  /// victims' inv-pending bits (their next miss is a coherence miss).
  /// Returns the victim count.
  [[nodiscard]] std::uint32_t invalidate_others(std::uint32_t slot,
                                                std::uint64_t line,
                                                std::uint32_t keeper);
  /// Inserts `line` (directory slot `slot`) for `proc`, choosing an
  /// invalid or LRU way and evicting the victim: dirty victims write
  /// back (memory version update + posted occupancy at their home).
  /// Returns the way.
  Way& fill_line(std::uint32_t proc, std::uint64_t line, std::uint32_t slot,
                 LineState state, std::uint64_t version);

  // Sharer-word helpers (words-per-entry scales past 64 procs).
  [[nodiscard]] bool test_bit(const std::uint64_t* words,
                              std::uint32_t proc) const;
  void set_bit(std::uint64_t* words, std::uint32_t proc);
  void clear_bit(std::uint64_t* words, std::uint32_t proc);

  [[nodiscard]] std::uint64_t* sharer_words(std::uint32_t slot) {
    return words_.data() + static_cast<std::size_t>(slot) * 3 * wpe_;
  }
  [[nodiscard]] const std::uint64_t* sharer_words(std::uint32_t slot) const {
    return words_.data() + static_cast<std::size_t>(slot) * 3 * wpe_;
  }
  [[nodiscard]] std::uint64_t* ever_words(std::uint32_t slot) {
    return sharer_words(slot) + wpe_;
  }
  [[nodiscard]] std::uint64_t* inv_words(std::uint32_t slot) {
    return sharer_words(slot) + 2 * wpe_;
  }

  CoherenceConfig config_;
  std::uint32_t num_procs_ = 0;
  std::uint32_t lpp_ = 0;     ///< machine (cache_line) lines per page
  std::uint32_t clpp_ = 0;    ///< coherence lines per page
  std::uint32_t fine_ = 1;    ///< coherence lines per machine line (>=1)
  std::uint32_t coarse_ = 1;  ///< machine lines per coherence line (>=1)
  std::uint32_t wpe_ = 1;     ///< sharer words per directory entry

  std::vector<Way> ways_;          // [proc][set][way], flat
  std::vector<std::uint64_t> lru_clock_;  // per proc
  std::vector<std::uint32_t> page_base_;  // by VPage: block's first slot
  std::vector<Entry> entries_;     // by slot, clpp_ per accessed page
  std::vector<std::uint64_t> words_;  // 3 * wpe_ per slot
  std::vector<CoherenceStats> stats_;
  std::uint64_t next_version_ = 0;
  std::vector<std::uint64_t> writeback_scratch_;

  trace::TraceSink* sink_ = nullptr;
  std::uint16_t lane_ = 0;
};

}  // namespace repro::coherence
