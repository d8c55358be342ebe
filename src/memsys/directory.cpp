#include "repro/memsys/directory.hpp"

#include <algorithm>
#include <bit>

#include "repro/common/assert.hpp"

namespace repro::memsys {

Directory::Directory(std::size_t num_procs)
    : num_procs_(num_procs),
      words_per_entry_((num_procs + 63) / 64),
      stride_(words_per_entry_ + 1) {
  REPRO_REQUIRE(num_procs >= 1 && num_procs <= 65536);
  if (words_per_entry_ > 1) {
    scratch_high_.resize(words_per_entry_ - 1);
  }
}

unsigned Directory::AccessOutcome::invalidations() const {
  auto count = static_cast<unsigned>(std::popcount(invalidate_mask));
  for (const std::uint64_t word : invalidate_high) {
    count += static_cast<unsigned>(std::popcount(word));
  }
  return count;
}

bool Directory::live(const std::uint64_t* e) const {
  for (std::size_t i = 0; i < words_per_entry_; ++i) {
    if (e[i] != 0) {
      return true;
    }
  }
  return false;
}

std::uint32_t Directory::find_slot(VPage page) const {
  return page.value() * stride_ < entries_.size()
             ? static_cast<std::uint32_t>(page.value())
             : kNoSlot;
}

std::uint32_t Directory::ensure_slot(VPage page) {
  if (page.value() * stride_ >= entries_.size()) {
    entries_.resize(std::max<std::size_t>((page.value() + 1) * stride_,
                                          entries_.size() * 2),
                    0);
  }
  return static_cast<std::uint32_t>(page.value());
}

Directory::AccessOutcome Directory::on_read(ProcId proc, VPage page) {
  REPRO_REQUIRE(proc.value() < num_procs_);
  std::uint64_t* e = entry(ensure_slot(page));
  if (!live(e)) {
    ++tracked_;
  }
  e[proc.value() / 64] |= 1ULL << (proc.value() % 64);
  std::uint64_t& owner = e[words_per_entry_];
  if (owner != 0 && owner != proc.value() + 1ULL) {
    // A reader joins: the writer loses exclusivity but keeps its copy.
    owner = 0;
  }
  return {};
}

Directory::AccessOutcome Directory::on_write(ProcId proc, VPage page) {
  REPRO_REQUIRE(proc.value() < num_procs_);
  std::uint64_t* e = entry(ensure_slot(page));
  if (!live(e)) {
    ++tracked_;
  }
  const std::size_t self_word = proc.value() / 64;
  const std::uint64_t self_bit = 1ULL << (proc.value() % 64);
  AccessOutcome out;
  out.invalidate_mask = e[0] & (self_word == 0 ? ~self_bit : ~0ULL);
  if (words_per_entry_ > 1) {
    for (std::size_t i = 1; i < words_per_entry_; ++i) {
      scratch_high_[i - 1] = e[i] & (self_word == i ? ~self_bit : ~0ULL);
    }
    out.invalidate_high = scratch_high_;
  }
  std::fill(e, e + words_per_entry_, 0);
  e[self_word] = self_bit;
  e[words_per_entry_] = proc.value() + 1ULL;
  return out;
}

void Directory::on_evict(ProcId proc, VPage page) {
  REPRO_REQUIRE(proc.value() < num_procs_);
  const std::uint32_t slot = find_slot(page);
  if (slot == kNoSlot) {
    return;
  }
  std::uint64_t* e = entry(slot);
  if (!live(e)) {
    return;
  }
  e[proc.value() / 64] &= ~(1ULL << (proc.value() % 64));
  std::uint64_t& owner = e[words_per_entry_];
  if (!live(e)) {
    // The last sharer left, so no owner either.
    owner = 0;
    --tracked_;
  } else if (owner == proc.value() + 1ULL) {
    owner = 0;
  }
}

std::uint64_t Directory::digest() const {
  // Slots whose sharer set emptied are reset, so live entries are
  // exactly the behaviourally relevant ones; page order is
  // deterministic. High words are mixed only on > 64-proc machines,
  // keeping 16-node digests byte-identical to the single-word layout.
  // The owner word holds the digest's owner value (id + 1, 0 = none).
  StateHash hash;
  hash.mix(tracked_);
  const std::size_t slots = entries_.size() / stride_;
  for (std::size_t p = 0; p < slots; ++p) {
    const std::uint64_t* e = entry(static_cast<std::uint32_t>(p));
    if (live(e)) {
      hash.mix(p);
      for (std::size_t i = 0; i < stride_; ++i) {
        hash.mix(e[i]);
      }
    }
  }
  return hash.value();
}

std::uint64_t Directory::sharers(VPage page) const {
  const std::uint32_t slot = find_slot(page);
  return slot == kNoSlot ? 0 : entry(slot)[0];
}

bool Directory::is_exclusive(ProcId proc, VPage page) const {
  const std::uint32_t slot = find_slot(page);
  if (slot == kNoSlot) {
    return false;
  }
  const std::uint64_t* e = entry(slot);
  if (e[words_per_entry_] != proc.value() + 1ULL) {
    return false;
  }
  for (std::size_t i = 0; i < words_per_entry_; ++i) {
    const std::uint64_t expected =
        i == proc.value() / 64 ? 1ULL << (proc.value() % 64) : 0;
    if (e[i] != expected) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::memsys
