#include "repro/vm/page_table.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "repro/common/assert.hpp"

namespace repro::vm {

// Two entries per 64-byte cache line on the dense table.
static_assert(sizeof(PageTable::Entry) == 32);

PageTable::Entry::Entry(const Entry& other)
    : frame(other.frame),
      mapper_mask(other.mapper_mask),
      migrations(other.migrations),
      dirty(other.dirty),
      mapped(other.mapped),
      rare_(other.rare_ == nullptr ? nullptr
                                   : std::make_unique<Rare>(*other.rare_)) {}

PageTable::Entry& PageTable::Entry::operator=(const Entry& other) {
  if (this != &other) {
    *this = Entry(other);
  }
  return *this;
}

void PageTable::Entry::note_high_mapper(ProcId proc) {
  if (rare_ == nullptr) {
    rare_ = std::make_unique<Rare>();
  }
  std::vector<std::uint64_t>& high = rare_->mapper_high;
  const std::size_t word = proc.value() / 64 - 1;
  if (word >= high.size()) {
    high.resize(word + 1, 0);
  }
  high[word] |= 1ULL << (proc.value() % 64);
}

void PageTable::Entry::trim() {
  if (rare_ != nullptr && rare_->mapper_high.empty() &&
      rare_->replicas.empty()) {
    rare_.reset();
  }
}

PageTable::Entry& PageTable::mutable_entry(VPage page) {
  Entry* e = find(page);
  REPRO_REQUIRE_MSG(e != nullptr, "page not mapped");
  return *e;
}

PageTable::Entry& PageTable::map(VPage page, FrameId frame) {
  REPRO_REQUIRE_MSG(!is_mapped(page), "page already mapped");
  if (page.value() >= table_.size()) {
    table_.resize(std::max<std::size_t>(page.value() + 1,
                                        table_.size() * 2));
  }
  Entry& entry = table_[page.value()];
  entry = Entry{};
  entry.frame = frame;
  entry.mapped = true;
  ++mapped_count_;
  return entry;
}

FrameId PageTable::unmap(VPage page) {
  Entry& e = mutable_entry(page);
  const FrameId old = e.frame;
  e = Entry{};
  --mapped_count_;
  return old;
}

FrameId PageTable::remap(VPage page, FrameId frame) {
  Entry& e = mutable_entry(page);
  REPRO_REQUIRE_MSG(!e.has_replicas(),
                    "collapse replicas before migrating a page");
  const FrameId old = e.frame;
  e.frame = frame;
  e.mapper_mask = 0;
  e.rare_.reset();  // no replicas, and the high mapper words clear
  ++e.migrations;
  return old;
}

const PageTable::Entry& PageTable::entry(VPage page) const {
  const Entry* e = find(page);
  REPRO_REQUIRE_MSG(e != nullptr, "page not mapped");
  return *e;
}

void PageTable::clear_dirty(VPage page) {
  mutable_entry(page).dirty = false;
}

bool PageTable::is_dirty(VPage page) const { return entry(page).dirty; }

void PageTable::add_replica(VPage page, FrameId frame) {
  Entry& e = mutable_entry(page);
  REPRO_REQUIRE_MSG(frame != e.frame, "replica must differ from primary");
  for (const FrameId existing : e.replicas()) {
    REPRO_REQUIRE_MSG(existing != frame, "duplicate replica frame");
  }
  if (e.rare_ == nullptr) {
    e.rare_ = std::make_unique<Entry::Rare>();
  }
  e.rare_->replicas.push_back(frame);
}

std::vector<FrameId> PageTable::take_replicas(VPage page) {
  Entry& e = mutable_entry(page);
  if (e.rare_ == nullptr) {
    return {};
  }
  std::vector<FrameId> out = std::exchange(e.rare_->replicas, {});
  e.trim();
  return out;
}

std::uint64_t PageTable::digest() const {
  StateHash hash;
  hash.mix(mapped_count_);
  for (std::size_t page = 0; page < table_.size(); ++page) {
    const Entry& e = table_[page];
    if (!e.mapped) {
      continue;
    }
    hash.mix(page);
    hash.mix(e.frame.value());
    hash.mix(e.mapper_mask);
    // High mapper words exist only on > 64-proc machines; skipping them
    // when empty keeps <= 64-proc digests byte-identical to the
    // historical single-word layout (the 16-node golden traces).
    const std::span<const std::uint64_t> high = e.mapper_high();
    if (!high.empty()) {
      hash.mix(high.size());
      for (const std::uint64_t word : high) {
        hash.mix(word);
      }
    }
    hash.mix(e.dirty ? 1 : 0);
    const std::span<const FrameId> replicas = e.replicas();
    hash.mix(replicas.size());
    for (const FrameId replica : replicas) {
      hash.mix(replica.value());
    }
  }
  return hash.value();
}

std::vector<std::pair<VPage, PageTable::Entry>> PageTable::entries() const {
  std::vector<std::pair<VPage, Entry>> out;
  out.reserve(mapped_count_);
  for (std::size_t p = 0; p < table_.size(); ++p) {
    if (table_[p].mapped) {
      out.emplace_back(VPage(p), table_[p]);
    }
  }
  return out;
}

std::span<const FrameId> PageTable::replicas(VPage page) const {
  return entry(page).replicas();
}

unsigned PageTable::mapper_count(VPage page) const {
  const Entry& e = entry(page);
  auto count = static_cast<unsigned>(std::popcount(e.mapper_mask));
  for (const std::uint64_t word : e.mapper_high()) {
    count += static_cast<unsigned>(std::popcount(word));
  }
  return count;
}

}  // namespace repro::vm
