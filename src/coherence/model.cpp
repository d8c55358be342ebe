#include "repro/coherence/model.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "repro/common/assert.hpp"

namespace repro::coherence {

namespace {

// Record word 1 (CoherenceModel::record): owner + 1 in the low half, so
// a zeroed record has no owner, then the dirty and created bits.
constexpr std::uint64_t kDirtyBit = std::uint64_t{1} << 32;
constexpr std::uint64_t kCreatedBit = std::uint64_t{1} << 33;

std::uint32_t owner_of(const std::uint64_t* rec) {
  return static_cast<std::uint32_t>(rec[1]) - 1;  // ~0u: no owner
}

bool is_dirty(const std::uint64_t* rec) { return (rec[1] & kDirtyBit) != 0; }

bool is_created(const std::uint64_t* rec) {
  return (rec[1] & kCreatedBit) != 0;
}

/// Sets the owner (~0u for none) and its dirty bit; keeps `created`.
void set_owner(std::uint64_t* rec, std::uint32_t owner, bool dirty) {
  rec[1] = (rec[1] & kCreatedBit) | (owner + 1u) | (dirty ? kDirtyBit : 0);
}

std::uint64_t* sharer_words(std::uint64_t* rec) { return rec + 2; }
const std::uint64_t* sharer_words(const std::uint64_t* rec) { return rec + 2; }

bool test_bit(const std::uint64_t* words, std::uint32_t proc) {
  return ((words[proc / 64] >> (proc % 64)) & 1u) != 0;
}

void set_bit(std::uint64_t* words, std::uint32_t proc) {
  words[proc / 64] |= std::uint64_t{1} << (proc % 64);
}

void clear_bit(std::uint64_t* words, std::uint32_t proc) {
  words[proc / 64] &= ~(std::uint64_t{1} << (proc % 64));
}

// The two history bitmaps a bit-hash term names.
constexpr std::uint64_t kEverBitmap = 0;
constexpr std::uint64_t kInvBitmap = 1;

/// The bit hash's term for `proc`'s bit in `slot`'s `bitmap`.
std::uint64_t bit_term(std::uint32_t slot, std::uint32_t proc,
                       std::uint64_t bitmap) {
  return avalanche64(std::uint64_t{slot} << 32 | std::uint64_t{proc} << 1 |
                     bitmap);
}

/// XOR of bit_term over the set bits of word `w` of `slot`'s `bitmap`.
std::uint64_t word_terms(std::uint32_t slot, std::uint32_t w,
                         std::uint64_t word, std::uint64_t bitmap) {
  std::uint64_t terms = 0;
  while (word != 0) {
    const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(word));
    word &= word - 1;
    terms ^= bit_term(slot, 64 * w + bit, bitmap);
  }
  return terms;
}

}  // namespace

double CoherenceStats::coherence_miss_rate() const {
  const std::uint64_t total = hit_lines + miss_lines();
  return total == 0 ? 0.0
                    : static_cast<double>(coherence_miss_lines) /
                          static_cast<double>(total);
}

CoherenceStats CoherenceStats::delta(const CoherenceStats& start,
                                     const CoherenceStats& end) {
  CoherenceStats d;
  d.hit_lines = end.hit_lines - start.hit_lines;
  d.cold_miss_lines = end.cold_miss_lines - start.cold_miss_lines;
  d.capacity_miss_lines = end.capacity_miss_lines - start.capacity_miss_lines;
  d.coherence_miss_lines =
      end.coherence_miss_lines - start.coherence_miss_lines;
  d.upgrades = end.upgrades - start.upgrades;
  d.invalidations_sent = end.invalidations_sent - start.invalidations_sent;
  d.invalidations_received =
      end.invalidations_received - start.invalidations_received;
  d.writebacks = end.writebacks - start.writebacks;
  d.dirty_fetches = end.dirty_fetches - start.dirty_fetches;
  return d;
}

void CoherenceStats::advance(const CoherenceStats& delta,
                             std::uint64_t times) {
  hit_lines += delta.hit_lines * times;
  cold_miss_lines += delta.cold_miss_lines * times;
  capacity_miss_lines += delta.capacity_miss_lines * times;
  coherence_miss_lines += delta.coherence_miss_lines * times;
  upgrades += delta.upgrades * times;
  invalidations_sent += delta.invalidations_sent * times;
  invalidations_received += delta.invalidations_received * times;
  writebacks += delta.writebacks * times;
  dirty_fetches += delta.dirty_fetches * times;
}

CoherenceModel::CoherenceModel(const memsys::MachineConfig& machine,
                               const CoherenceConfig& config)
    : config_(config) {
  config_.validate();
  if (config_.line_size == 0) {
    config_.line_size = machine.cache_line;
  }
  REPRO_REQUIRE_MSG(config_.line_size > 0, "zero coherence line size");
  REPRO_REQUIRE_MSG(config_.line_size % machine.cache_line == 0 ||
                        machine.cache_line % config_.line_size == 0,
                    "coherence line size must divide or be a multiple of "
                    "the machine cache line");
  REPRO_REQUIRE_MSG(machine.page_size % config_.line_size == 0,
                    "coherence line size must divide the page size");
  num_procs_ = static_cast<std::uint32_t>(machine.num_procs());
  lpp_ = machine.lines_per_page();
  clpp_ = static_cast<std::uint32_t>(machine.page_size / config_.line_size);
  if (config_.line_size < machine.cache_line) {
    fine_ = static_cast<std::uint32_t>(machine.cache_line / config_.line_size);
  } else {
    // Both sizes are powers of two (MachineConfig::validate, and the
    // line size divides the page), so the ratio is one too.
    coarse_shift_ = static_cast<unsigned>(
        std::countr_zero(config_.line_size / machine.cache_line));
  }
  wpe_ = (num_procs_ + 63) / 64;
  record_words_ = 2 + 3 * static_cast<std::size_t>(wpe_);
  set_mask_ = config_.sets - 1;
  ways_.resize(static_cast<std::size_t>(num_procs_) * config_.sets *
               config_.ways);
  lru_clock_.resize(num_procs_, 0);
  stats_.resize(num_procs_);
}

void CoherenceModel::set_trace(trace::TraceSink* sink, std::uint16_t lane) {
  sink_ = sink;
  lane_ = lane;
}

const CoherenceStats& CoherenceModel::stats(ProcId proc) const {
  REPRO_REQUIRE(proc.value() < num_procs_);
  return stats_[proc.value()];
}

CoherenceStats CoherenceModel::total_stats() const {
  CoherenceStats total;
  for (const CoherenceStats& st : stats_) {
    total.advance(st, 1);
  }
  return total;
}

void CoherenceModel::advance_stats_replayed(
    std::span<const CoherenceStats> delta, std::uint64_t blocks) {
  REPRO_REQUIRE(delta.size() == stats_.size());
  for (std::size_t p = 0; p < stats_.size(); ++p) {
    stats_[p].advance(delta[p], blocks);
  }
}

template <typename Fn>
decltype(auto) CoherenceModel::with_ways(Fn&& fn) const {
  switch (config_.ways) {
    case 1:
      return fn(std::integral_constant<std::size_t, 1>{});
    case 2:
      return fn(std::integral_constant<std::size_t, 2>{});
    case 4:
      return fn(std::integral_constant<std::size_t, 4>{});
    case 8:
      return fn(std::integral_constant<std::size_t, 8>{});
    case 16:
      return fn(std::integral_constant<std::size_t, 16>{});
    default:
      REPRO_UNREACHABLE("way count outside CoherenceConfig::validate's set");
  }
}

template <std::size_t W>
CoherenceModel::Probe CoherenceModel::walk(Way* set, std::uint64_t line) {
  Way* invalid = nullptr;
  Way* oldest = set;  // read only when every way is valid
  for (std::size_t w = 0; w < W; ++w) {
    Way& way = set[w];
    if (way.state == LineState::kInvalid) {
      if (invalid == nullptr) {
        invalid = &way;
      }
    } else if (way.line == line) {
      return {&way, nullptr};
    } else if (way.lru < oldest->lru) {
      oldest = &way;
    }
  }
  return {nullptr, invalid != nullptr ? invalid : oldest};
}

CoherenceModel::Way* CoherenceModel::find_way(std::uint32_t proc,
                                              std::uint64_t line) {
  return with_ways(
      [&](auto ways) { return find_way<decltype(ways)::value>(proc, line); });
}

std::uint32_t CoherenceModel::page_block(VPage page) {
  if (page.value() >= page_base_.size()) {
    page_base_.resize(page.value() + 1, kNoSlot);
  }
  std::uint32_t& base = page_base_[page.value()];
  if (base == kNoSlot) {
    REPRO_REQUIRE_MSG(std::uint64_t{next_slot_} + clpp_ < kNoSlot,
                      "coherence directory exceeds 2^32 line slots");
    base = next_slot_;
    next_slot_ += clpp_;
    while ((chunks_.size() << kChunkShift) < next_slot_) {
      chunks_.push_back(std::make_unique<std::uint64_t[]>(
          (std::size_t{1} << kChunkShift) * record_words_));
    }
  }
  return base;
}

std::uint32_t CoherenceModel::block_of(std::uint64_t page) const {
  return page < page_base_.size() ? page_base_[page] : kNoSlot;
}

std::uint32_t CoherenceModel::slot_of(std::uint64_t line) const {
  const std::uint32_t base = block_of(line / clpp_);
  if (base == kNoSlot) {
    return kNoSlot;
  }
  const std::uint32_t slot = base + static_cast<std::uint32_t>(line % clpp_);
  return is_created(record(slot)) ? slot : kNoSlot;
}

template <typename Fn>
void CoherenceModel::for_each_entry(Fn&& fn) const {
  for (std::uint64_t page = 0; page < page_base_.size(); ++page) {
    const std::uint32_t base = page_base_[page];
    if (base == kNoSlot) {
      continue;
    }
    for (std::uint32_t index = 0; index < clpp_; ++index) {
      if (is_created(record(base + index))) {
        fn(line_id(VPage(page), index), base + index);
      }
    }
  }
}

std::uint64_t CoherenceModel::record_bit_terms(std::uint32_t slot) const {
  const std::uint64_t* rec = record(slot);
  std::uint64_t terms = 0;
  for (std::uint32_t w = 0; w < wpe_; ++w) {
    terms ^= word_terms(slot, w, ever_words(rec)[w], kEverBitmap) ^
             word_terms(slot, w, inv_words(rec)[w], kInvBitmap);
  }
  return terms;
}

template <std::size_t W>
std::uint32_t CoherenceModel::invalidate_others(std::uint64_t* rec,
                                                std::uint32_t slot,
                                                std::uint64_t line,
                                                std::uint32_t keeper) {
  std::uint64_t* sharers = sharer_words(rec);
  std::uint64_t* inv = inv_words(rec);
  std::uint32_t victims = 0;
  for (std::uint32_t w = 0; w < wpe_; ++w) {
    std::uint64_t word = sharers[w];
    while (word != 0) {
      const auto bit =
          static_cast<std::uint32_t>(__builtin_ctzll(word));
      word &= word - 1;
      const std::uint32_t q = 64 * w + bit;
      if (q == keeper) {
        continue;
      }
      Way* way = find_way<W>(q, line);
      REPRO_ASSERT(way != nullptr);
      way->state = LineState::kInvalid;
      clear_bit(sharers, q);
      if (!test_bit(inv, q)) {
        set_bit(inv, q);
        bit_hash_ ^= bit_term(slot, q, kInvBitmap);
      }
      ++stats_[q].invalidations_received;
      ++victims;
    }
  }
  const std::uint32_t owner = owner_of(rec);
  if (owner != kNoOwner && owner != keeper) {
    set_owner(rec, kNoOwner, false);
  }
  return victims;
}

void CoherenceModel::fill_line(std::uint32_t proc, Way& victim,
                               std::uint64_t line, std::uint32_t slot,
                               LineState state, std::uint64_t version) {
  if (victim.state != LineState::kInvalid) {
    // Capacity/conflict eviction: silent for clean copies, an
    // asynchronous writeback for dirty ones. The victim's inv-pending
    // bit stays clear -- refetching it later is a capacity miss, not a
    // coherence miss.
    std::uint64_t* ve = record(victim.slot);
    clear_bit(sharer_words(ve), proc);
    if (victim.state == LineState::kModified) {
      ve[0] = victim.version;
      set_owner(ve, kNoOwner, false);
      writeback_scratch_.push_back(victim.line / clpp_);
      ++stats_[proc].writebacks;
    } else if (owner_of(ve) == proc) {
      set_owner(ve, kNoOwner, false);
    }
  }
  victim.line = line;
  victim.version = version;
  victim.state = state;
  victim.slot = slot;
  victim.lru = ++lru_clock_[proc];
}

template <std::size_t W>
void CoherenceModel::touch_line(Ns now, std::uint32_t proc, VPage page,
                                std::uint32_t index, std::uint32_t slot,
                                bool write, memsys::LineOutcome& out) {
  const std::uint64_t line = line_id(page, index);
  CoherenceStats& st = stats_[proc];
  std::uint64_t* rec = record(slot);
  const Probe probe = walk<W>(set_of<W>(proc, line), line);
  if (Way* way = probe.hit; way != nullptr) {
    way->lru = ++lru_clock_[proc];
    if (write && way->state != LineState::kModified) {
      if (way->state == LineState::kExclusive) {
        // MESI's reason to exist: the sole clean copy upgrades without
        // a directory round trip (this transition is what makes MSI
        // and MESI digests differ while results stay identical).
        way->state = LineState::kModified;
        way->version = ++next_version_;
        rec[1] |= kDirtyBit;
      } else {
        // S -> M upgrade: a directory round trip that invalidates
        // every other copy before the write proceeds (SWMR).
        const std::uint32_t victims =
            invalidate_others<W>(rec, slot, line, proc);
        out.invalidation_copies += victims;
        st.invalidations_sent += victims;
        ++st.upgrades;
        out.extra_ns += config_.upgrade_ns;
        if (sink_ != nullptr && victims != 0) {
          trace::TraceEvent ev;
          ev.kind = trace::EventKind::kLineInvalidate;
          ev.time = now;
          ev.page = page.value();
          ev.a = index;
          ev.b = victims;
          ev.node = static_cast<std::int32_t>(proc);
          sink_->emit(lane_, ev);
        }
        way->state = LineState::kModified;
        way->version = ++next_version_;
        set_owner(rec, proc, true);
      }
    } else if (write) {
      way->version = ++next_version_;  // write hit on M
    }
    ++out.hit_lines;
    ++st.hit_lines;
    return;
  }

  // Miss: classify against the line's history with this processor.
  rec[1] |= kCreatedBit;
  if (test_bit(inv_words(rec), proc)) {
    clear_bit(inv_words(rec), proc);
    bit_hash_ ^= bit_term(slot, proc, kInvBitmap);
    ++st.coherence_miss_lines;
  } else if (test_bit(ever_words(rec), proc)) {
    ++st.capacity_miss_lines;
  } else {
    set_bit(ever_words(rec), proc);
    bit_hash_ ^= bit_term(slot, proc, kEverBitmap);
    ++st.cold_miss_lines;
  }
  ++out.miss_lines;

  // Nothing below touches this processor's set (every other copy and
  // the owner's belong to other processors), so the victim stands.
  if (write) {
    // Read-for-ownership: a dirty copy is fetched by intervention (and
    // implicitly written back), then every other copy is invalidated.
    const std::uint32_t owner = owner_of(rec);
    if (owner != kNoOwner && is_dirty(rec)) {
      const Way* owner_way = find_way<W>(owner, line);
      REPRO_ASSERT(owner_way != nullptr);
      rec[0] = owner_way->version;
      ++st.dirty_fetches;
      out.extra_ns += config_.intervention_ns;
    }
    const std::uint32_t victims =
        invalidate_others<W>(rec, slot, line, proc);
    out.invalidation_copies += victims;
    st.invalidations_sent += victims;
    if (sink_ != nullptr && victims != 0) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kLineInvalidate;
      ev.time = now;
      ev.page = page.value();
      ev.a = index;
      ev.b = victims;
      ev.node = static_cast<std::int32_t>(proc);
      sink_->emit(lane_, ev);
    }
    const std::uint64_t version = ++next_version_;
    fill_line(proc, *probe.victim, line, slot, LineState::kModified, version);
    set_owner(rec, proc, true);
    set_bit(sharer_words(rec), proc);
    return;
  }

  // Read miss: downgrade any exclusive owner (a dirty one writes back
  // by intervention), then fill Shared -- or Exclusive under MESI when
  // no other copy remains.
  const std::uint32_t owner = owner_of(rec);
  if (owner != kNoOwner) {
    Way* owner_way = find_way<W>(owner, line);
    REPRO_ASSERT(owner_way != nullptr);
    if (is_dirty(rec)) {
      rec[0] = owner_way->version;
      ++st.dirty_fetches;
      out.extra_ns += config_.intervention_ns;
    }
    owner_way->state = LineState::kShared;
    set_owner(rec, kNoOwner, false);
  }
  std::uint32_t copies = 0;
  for (std::uint32_t w = 0; w < wpe_; ++w) {
    copies += static_cast<std::uint32_t>(
        __builtin_popcountll(sharer_words(rec)[w]));
  }
  const LineState fill_state =
      config_.policy == Policy::kMesi && copies == 0 ? LineState::kExclusive
                                                     : LineState::kShared;
  fill_line(proc, *probe.victim, line, slot, fill_state, rec[0]);
  if (fill_state == LineState::kExclusive) {
    set_owner(rec, proc, false);
  }
  set_bit(sharer_words(rec), proc);
}

template <std::size_t W>
void CoherenceModel::touch_lines(Ns now, const memsys::LineAccess& access,
                                 std::uint32_t base,
                                 memsys::LineOutcome& out) {
  const std::uint32_t proc = access.proc.value();
  // Coalesced read runs wrap: touches past the first lap of the page
  // are repeats of already-filled lines and classify as hits, which
  // keeps cost linear in the line count exactly like the page model.
  std::uint32_t m = access.line_begin;
  for (std::uint32_t i = 0; i < access.lines; ++i) {
    if (fine_ > 1) {
      for (std::uint32_t f = 0; f < fine_; ++f) {
        const std::uint32_t index = m * fine_ + f;
        touch_line<W>(now, proc, access.page, index, base + index,
                      access.write, out);
      }
    } else {
      const std::uint32_t index = m >> coarse_shift_;
      touch_line<W>(now, proc, access.page, index, base + index,
                    access.write, out);
    }
    if (++m == lpp_) {
      m = 0;
    }
  }
}

memsys::LineOutcome CoherenceModel::on_access(
    Ns now, const memsys::LineAccess& access) {
  const std::uint32_t proc = access.proc.value();
  REPRO_REQUIRE(proc < num_procs_);
  REPRO_REQUIRE(access.lines >= 1);
  REPRO_REQUIRE(access.line_begin < lpp_);
  writeback_scratch_.clear();
  memsys::LineOutcome out;
  const CoherenceStats before = stats_[proc];
  const std::uint32_t base = page_block(access.page);
  with_ways([&](auto ways) {
    touch_lines<decltype(ways)::value>(now, access, base, out);
  });
  if (sink_ != nullptr) {
    const CoherenceStats& after = stats_[proc];
    if (out.miss_lines != 0) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kLineFill;
      ev.time = now;
      ev.page = access.page.value();
      ev.node = static_cast<std::int32_t>(proc);
      ev.a = out.miss_lines;
      ev.b = (after.cold_miss_lines - before.cold_miss_lines) |
             (after.capacity_miss_lines - before.capacity_miss_lines) << 16 |
             (after.coherence_miss_lines - before.coherence_miss_lines)
                 << 32 |
             (after.dirty_fetches - before.dirty_fetches) << 48;
      sink_->emit(lane_, ev);
    }
    if (after.upgrades != before.upgrades) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kLineUpgrade;
      ev.time = now;
      ev.page = access.page.value();
      ev.node = static_cast<std::int32_t>(proc);
      ev.a = after.upgrades - before.upgrades;
      sink_->emit(lane_, ev);
    }
    if (after.writebacks != before.writebacks) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kLineWriteback;
      ev.time = now;
      ev.page = access.page.value();
      ev.node = static_cast<std::int32_t>(proc);
      ev.a = after.writebacks - before.writebacks;
      sink_->emit(lane_, ev);
    }
  }
  out.writeback_pages = writeback_scratch_;
  return out;
}

void CoherenceModel::flush_page(VPage page) {
  const std::uint32_t base = block_of(page.value());
  if (base == kNoSlot) {
    return;
  }
  for (std::uint32_t idx = 0; idx < clpp_; ++idx) {
    std::uint64_t* rec = record(base + idx);
    if (!is_created(rec)) {
      continue;
    }
    const std::uint64_t line = line_id(page, idx);
    std::uint64_t* sharers = sharer_words(rec);
    for (std::uint32_t w = 0; w < wpe_; ++w) {
      std::uint64_t word = sharers[w];
      while (word != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(word));
        word &= word - 1;
        const std::uint32_t q = 64 * w + bit;
        Way* way = find_way(q, line);
        REPRO_ASSERT(way != nullptr);
        if (way->state == LineState::kModified) {
          rec[0] = way->version;  // preserve the value
        }
        way->state = LineState::kInvalid;
      }
      sharers[w] = 0;
    }
    set_owner(rec, kNoOwner, false);
    // Forget the access history too: a flushed page's next touch is a
    // cold miss, matching the page-grain flush semantics tests rely on.
    bit_hash_ ^= record_bit_terms(base + idx);
    std::fill_n(ever_words(rec), 2 * static_cast<std::size_t>(wpe_), 0);
  }
}

void CoherenceModel::clear() {
  std::fill(ways_.begin(), ways_.end(), Way{});
  std::fill(lru_clock_.begin(), lru_clock_.end(), 0);
  page_base_.clear();
  next_slot_ = 0;
  chunks_.clear();
  next_version_ = 0;
  bit_hash_ = 0;
  writeback_scratch_.clear();
}

void CoherenceModel::reset_stats() {
  for (CoherenceStats& st : stats_) {
    st = CoherenceStats{};
  }
}

void CoherenceModel::digest(StateHash& hash) const {
  WordHash words;
  words.add(static_cast<std::uint64_t>(config_.policy));
  with_ways([&](auto ways) {
    constexpr std::size_t W = decltype(ways)::value;
    for (const Way* set = ways_.data(); set != ways_.data() + ways_.size();
         set += W) {
      // A valid way's rank: the valid ways of its set with an older
      // stamp. An invalid way's stamp reads as the largest, so it never
      // counts; each pair of ways is compared once.
      std::uint64_t stamps[W];
      std::uint64_t ranks[W] = {};
      for (std::size_t w = 0; w < W; ++w) {
        stamps[w] = set[w].state == LineState::kInvalid ? ~std::uint64_t{0}
                                                        : set[w].lru;
      }
      for (std::size_t w = 1; w < W; ++w) {
        for (std::size_t v = 0; v < w; ++v) {
          const bool older = stamps[v] < stamps[w];
          ranks[w] += static_cast<std::uint64_t>(older);
          ranks[v] += static_cast<std::uint64_t>(!older);
        }
      }
      for (std::size_t w = 0; w < W; ++w) {
        // The line above the rank (< 16) and the state (2 bits, 0 only
        // for an invalid way, whose word is 0). page_base_ is indexed
        // by page, so line ids stay far below 2^56.
        const auto state = static_cast<std::uint64_t>(set[w].state);
        words.add(state == 0 ? 0 : set[w].line << 8 | ranks[w] << 2 | state);
      }
    }
  });
  words.add(next_slot_);
  words.add(bit_hash_);
  hash.mix(words.finish());
}

void CoherenceModel::exact_state_digest(StateHash& hash) const {
  hash.mix(static_cast<std::uint64_t>(config_.policy));
  hash.mix(next_version_);
  for (std::uint32_t p = 0; p < num_procs_; ++p) {
    hash.mix(lru_clock_[p]);
    const Way* base = ways_.data() +
                      static_cast<std::size_t>(p) * config_.sets *
                          config_.ways;
    for (std::size_t i = 0; i < config_.sets * config_.ways; ++i) {
      if (base[i].state == LineState::kInvalid) {
        continue;
      }
      hash.mix(i);
      hash.mix(base[i].line);
      hash.mix(base[i].version);
      hash.mix(base[i].lru);
      hash.mix(static_cast<std::uint64_t>(base[i].state));
    }
  }
  for_each_entry([this, &hash](std::uint64_t line, std::uint32_t slot) {
    const std::uint64_t* rec = record(slot);
    hash.mix(line);
    hash.mix(rec[0]);
    hash.mix(owner_of(rec));
    hash.mix(static_cast<std::uint64_t>(is_dirty(rec)));
    const std::uint64_t* words = sharer_words(rec);
    for (std::uint32_t w = 0; w < 3 * wpe_; ++w) {
      hash.mix(words[w]);
    }
  });
}

CoherenceModel::LineState CoherenceModel::state_of(ProcId proc,
                                                   std::uint64_t line) const {
  REPRO_REQUIRE(proc.value() < num_procs_);
  const Way* way = find_way(proc.value(), line);
  return way == nullptr ? LineState::kInvalid : way->state;
}

std::vector<std::uint32_t> CoherenceModel::sharers_of(
    std::uint64_t line) const {
  std::vector<std::uint32_t> procs;
  const std::uint32_t slot = slot_of(line);
  if (slot == kNoSlot) {
    return procs;
  }
  const std::uint64_t* words = sharer_words(record(slot));
  for (std::uint32_t w = 0; w < wpe_; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(word));
      word &= word - 1;
      procs.push_back(64 * w + bit);
    }
  }
  return procs;
}

std::uint64_t CoherenceModel::probe_version(ProcId proc,
                                            std::uint64_t line) const {
  REPRO_REQUIRE(proc.value() < num_procs_);
  if (const Way* way = find_way(proc.value(), line)) {
    return way->version;
  }
  const std::uint32_t slot = slot_of(line);
  return slot == kNoSlot ? 0 : record(slot)[0];
}

void CoherenceModel::audit() const {
  // Cache side: every valid way is registered in the directory (at the
  // slot it carries), and exclusive states are consistent with the
  // entry.
  for (std::uint32_t p = 0; p < num_procs_; ++p) {
    const Way* base = ways_.data() +
                      static_cast<std::size_t>(p) * config_.sets *
                          config_.ways;
    for (std::size_t i = 0; i < config_.sets * config_.ways; ++i) {
      const Way& way = base[i];
      if (way.state == LineState::kInvalid) {
        continue;
      }
      REPRO_REQUIRE_MSG((way.line & set_mask_) == i / config_.ways,
                        "cached line in the wrong set");
      const std::uint32_t slot = slot_of(way.line);
      REPRO_REQUIRE_MSG(slot != kNoSlot, "cached line unknown to directory");
      REPRO_REQUIRE_MSG(way.slot == slot,
                        "cached way carries another line's directory slot");
      const std::uint64_t* rec = record(slot);
      REPRO_REQUIRE_MSG(test_bit(sharer_words(rec), p),
                        "cached line missing its sharer bit");
      if (way.state == LineState::kModified) {
        REPRO_REQUIRE_MSG(owner_of(rec) == p && is_dirty(rec),
                          "modified copy without directory ownership");
      }
      if (way.state == LineState::kExclusive) {
        REPRO_REQUIRE_MSG(config_.policy == Policy::kMesi,
                          "exclusive state under MSI");
        REPRO_REQUIRE_MSG(owner_of(rec) == p && !is_dirty(rec),
                          "exclusive copy without clean ownership");
      }
    }
  }
  // Directory side: sharer bits point at real copies, and any M or E
  // copy is the line's only copy (single-writer, multiple-reader).
  for_each_entry([this](std::uint64_t line, std::uint32_t slot) {
    const std::uint64_t* rec = record(slot);
    const std::uint64_t* words = sharer_words(rec);
    std::uint32_t copies = 0;
    bool exclusive_copy = false;
    for (std::uint32_t w = 0; w < wpe_; ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(word));
        word &= word - 1;
        const std::uint32_t q = 64 * w + bit;
        const Way* way = find_way(q, line);
        REPRO_REQUIRE_MSG(way != nullptr,
                          "directory sharer bit without a cached copy");
        if (way->state != LineState::kShared) {
          exclusive_copy = true;
        }
        ++copies;
      }
    }
    if (exclusive_copy) {
      REPRO_REQUIRE_MSG(copies == 1,
                        "SWMR violated: exclusive copy is not the only copy");
    }
    const std::uint32_t owner = owner_of(rec);
    if (owner != kNoOwner) {
      REPRO_REQUIRE_MSG(test_bit(words, owner),
                        "directory owner without a sharer bit");
      const Way* way = find_way(owner, line);
      REPRO_REQUIRE_MSG(
          way != nullptr &&
              way->state == (is_dirty(rec) ? LineState::kModified
                                           : LineState::kExclusive),
          "directory owner state disagrees with the cached copy");
    } else {
      REPRO_REQUIRE_MSG(!is_dirty(rec), "dirty line without an owner");
    }
  });
  // The running bit hash is the XOR of every set history bit's term.
  std::uint64_t bits = 0;
  for_each_entry([this, &bits](std::uint64_t, std::uint32_t slot) {
    bits ^= record_bit_terms(slot);
  });
  REPRO_REQUIRE_MSG(bits == bit_hash_,
                    "ever-filled / inv-pending bit hash disagrees with the "
                    "directory records");
}

}  // namespace repro::coherence
