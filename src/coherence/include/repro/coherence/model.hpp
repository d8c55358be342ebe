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
// Directory layout: the first access to a virtual page takes the next
// lines_per_page() directory slots as its block; `page_base_[page]`
// holds the block's first slot, so a line's slot is base + index and
// an access resolves its page once. Each slot is one record (entry
// words, then the sharer, ever-filled and inv-pending bitmaps) in a
// fixed-size chunk allocated on first use, so records never move.
// Each cached way also carries its line's slot, which lets evictions
// and upgrades reach the directory entry without any lookup.
//
// The way walk is compiled once per way count (CoherenceConfig allows
// 1, 2, 4, 8 or 16 ways); each access picks its instantiation once and
// each line makes one pass over its set, finding the hit or the victim.
#pragma once

#include <cstdint>
#include <memory>
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

  /// Field-wise `end - start`: what the span between two reads added.
  [[nodiscard]] static CoherenceStats delta(const CoherenceStats& start,
                                            const CoherenceStats& end);
  /// Adds `times` copies of `delta` (a fast-forward replay of `times`
  /// blocks that each added `delta`).
  void advance(const CoherenceStats& delta, std::uint64_t times);
  friend bool operator==(const CoherenceStats&,
                         const CoherenceStats&) = default;
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
  /// Behavioural digest, the fast-forward's: everything the protocol's
  /// future reads and nothing it does not. Per processor and set, in
  /// way order, each valid way's line, state and LRU rank (how many
  /// valid ways of the set hold an older stamp) and one marker word per
  /// invalid way -- the victim choice reads nothing else; the directory
  /// allocation (next_slot_: blocks are only ever added, so equal
  /// values within a run mean the same page-to-block map); and the
  /// running hash of the ever-filled and inv-pending bits. Versions and
  /// absolute LRU stamps are left out (the protocol compares stamps
  /// only with each other and never reads a version), and so are the
  /// sharer, owner and dirty words, which follow from the ways (audit()
  /// checks that they do). Hashed a word per step, then mixed into
  /// `hash` once.
  void digest(StateHash& hash) const override;
  /// Exact-state digest: every way's version and stamp, the LRU
  /// clocks, the version counter and every directory record. It never
  /// repeats within a run; the pinned fuzz digests use it.
  void exact_state_digest(StateHash& hash) const;
  /// Adds `blocks` copies of each processor's per-block statistics
  /// delta (`delta` has one entry per processor): a fast-forward replay
  /// of `blocks` steady-state blocks.
  void advance_stats_replayed(std::span<const CoherenceStats> delta,
                              std::uint64_t blocks);

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
  /// directory sharer-set agreement, owner consistency, that E states
  /// never appear under MSI, and that the running hash of the
  /// ever-filled and inv-pending bits matches the records.
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

  /// One pass over a set: the way holding the line (null on a miss),
  /// and on a miss the way a fill takes -- the first invalid way, else
  /// the first with the smallest LRU stamp.
  struct Probe {
    Way* hit = nullptr;
    Way* victim = nullptr;
  };

  static constexpr std::uint32_t kNoOwner = ~0u;
  /// No block (page_base_) or no created entry (slot_of).
  static constexpr std::uint32_t kNoSlot = ~0u;
  /// Directory records per chunk (2^12: 160 KiB of records at 16 procs).
  static constexpr unsigned kChunkShift = 12;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  /// Calls fn(std::integral_constant<std::size_t, W>{}) with W the
  /// configured way count, and returns what it returns.
  template <typename Fn>
  decltype(auto) with_ways(Fn&& fn) const;
  /// Way 0 of the set `line` maps to in `proc`'s cache.
  template <std::size_t W>
  [[nodiscard]] Way* set_of(std::uint32_t proc, std::uint64_t line) {
    return ways_.data() +
           (static_cast<std::size_t>(proc) * config_.sets +
            (line & set_mask_)) *
               W;
  }
  template <std::size_t W>
  [[nodiscard]] static Probe walk(Way* set, std::uint64_t line);
  template <std::size_t W>
  [[nodiscard]] Way* find_way(std::uint32_t proc, std::uint64_t line) {
    return walk<W>(set_of<W>(proc, line), line).hit;
  }
  /// find_way<W> at the configured way count, for the paths outside an
  /// access's line loop.
  [[nodiscard]] Way* find_way(std::uint32_t proc, std::uint64_t line);
  [[nodiscard]] const Way* find_way(std::uint32_t proc,
                                    std::uint64_t line) const {
    // A lookup writes nothing.
    return const_cast<CoherenceModel*>(this)->find_way(proc, line);
  }
  /// First slot of `page`'s directory block, allocating it (and the
  /// chunks its records reach) on the page's first access.
  [[nodiscard]] std::uint32_t page_block(VPage page);
  /// First slot of `page`'s block, or kNoSlot if it was never accessed.
  [[nodiscard]] std::uint32_t block_of(std::uint64_t page) const;
  /// Slot of `line`'s created entry, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t line) const;
  /// Calls fn(line, slot) for every created entry in ascending global
  /// line order (pages ascending, then lines within the page).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const;
  /// Touches the access's lines for `proc`, whose page block starts at
  /// `base`.
  template <std::size_t W>
  void touch_lines(Ns now, const memsys::LineAccess& access,
                   std::uint32_t base, memsys::LineOutcome& out);
  /// Touches one coherence line for `proc`; classifies, mutates cache +
  /// directory state, accumulates into `out` and the stats, and emits
  /// per-line events. `page` and `index` locate the line for events;
  /// `slot` is its directory slot.
  template <std::size_t W>
  void touch_line(Ns now, std::uint32_t proc, VPage page,
                  std::uint32_t index, std::uint32_t slot, bool write,
                  memsys::LineOutcome& out);
  /// Invalidates every cached copy of `line` except `keeper`; marks the
  /// victims' inv-pending bits (their next miss is a coherence miss).
  /// Returns the victim count.
  template <std::size_t W>
  [[nodiscard]] std::uint32_t invalidate_others(std::uint64_t* rec,
                                                std::uint32_t slot,
                                                std::uint64_t line,
                                                std::uint32_t keeper);
  /// Puts `line` (directory slot `slot`) into `proc`'s way `victim`,
  /// evicting its line first: dirty victims write back (memory version
  /// update + posted occupancy at their home).
  void fill_line(std::uint32_t proc, Way& victim, std::uint64_t line,
                 std::uint32_t slot, LineState state, std::uint64_t version);

  // Directory records, record_words_ per slot:
  //   [0] memory version;
  //   [1] owner + 1 (the proc holding E or M; 0: none) | dirty << 32
  //       (the owner's copy is M) | created << 33;
  //   then the sharer, ever-filled and inv-pending bitmaps, wpe_ words
  //   each (more than one past 64 procs).
  // A page's slots exist from its first access, but a line's entry
  // counts as created only from its first miss; entries persist once
  // created so the ever-filled and inv-pending bitmaps survive eviction
  // (miss classification).
  [[nodiscard]] std::uint64_t* record(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift].get() +
           static_cast<std::size_t>(slot & kChunkMask) * record_words_;
  }
  [[nodiscard]] const std::uint64_t* record(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift].get() +
           static_cast<std::size_t>(slot & kChunkMask) * record_words_;
  }
  template <typename Word>
  [[nodiscard]] Word* ever_words(Word* rec) const {
    return rec + 2 + wpe_;
  }
  template <typename Word>
  [[nodiscard]] Word* inv_words(Word* rec) const {
    return rec + 2 + 2 * static_cast<std::size_t>(wpe_);
  }
  /// XOR of the bit-hash terms of every bit set in `slot`'s ever-filled
  /// and inv-pending bitmaps (what the record adds to bit_hash_).
  [[nodiscard]] std::uint64_t record_bit_terms(std::uint32_t slot) const;

  CoherenceConfig config_;
  std::uint32_t num_procs_ = 0;
  std::uint32_t lpp_ = 0;     ///< machine (cache_line) lines per page
  std::uint32_t clpp_ = 0;    ///< coherence lines per page
  std::uint32_t fine_ = 1;    ///< coherence lines per machine line (>=1)
  /// log2 of the machine lines per coherence line (0 unless coarser).
  unsigned coarse_shift_ = 0;
  std::uint32_t wpe_ = 1;     ///< sharer words per bitmap
  std::size_t record_words_ = 0;  ///< 2 + 3 * wpe_
  std::uint64_t set_mask_ = 0;    ///< sets - 1

  std::vector<Way> ways_;          // [proc][set][way], flat
  std::vector<std::uint64_t> lru_clock_;  // per proc
  std::vector<std::uint32_t> page_base_;  // by VPage: block's first slot
  std::uint32_t next_slot_ = 0;    // first slot of the next page block
  /// 2^kChunkShift records each, allocated zeroed as blocks reach them.
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  std::vector<CoherenceStats> stats_;
  std::uint64_t next_version_ = 0;
  /// XOR of bit_term() over every set ever-filled and inv-pending bit,
  /// kept as the bits change (the behavioural digest's directory part).
  std::uint64_t bit_hash_ = 0;
  std::vector<std::uint64_t> writeback_scratch_;

  trace::TraceSink* sink_ = nullptr;
  std::uint16_t lane_ = 0;
};

}  // namespace repro::coherence
