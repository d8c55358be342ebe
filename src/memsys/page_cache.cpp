#include "repro/memsys/page_cache.hpp"

#include <algorithm>

#include "repro/common/assert.hpp"

namespace repro::memsys {

PageCache::PageCache(std::size_t capacity_pages)
    : capacity_(capacity_pages) {
  REPRO_REQUIRE(capacity_pages >= 1);
  REPRO_REQUIRE(capacity_pages <= static_cast<std::size_t>(INT32_MAX));
  nodes_.resize(capacity_pages);
  for (std::size_t i = 0; i + 1 < capacity_pages; ++i) {
    nodes_[i].next = static_cast<std::int32_t>(i + 1);
  }
  free_ = 0;
}

void PageCache::set_slot(VPage page, std::int32_t n) {
  const std::uint64_t chunk = page.value() >> kChunkShift;
  if (chunk >= where_.size()) {
    where_.resize(chunk + 1);
  }
  std::unique_ptr<std::int32_t[]>& entries = where_[chunk];
  if (entries == nullptr) {
    entries = std::make_unique_for_overwrite<std::int32_t[]>(kChunkPages);
    std::fill_n(entries.get(), kChunkPages, -1);
  }
  entries[page.value() & kChunkMask] = n;
}

void PageCache::unlink(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (node.prev >= 0) {
    nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next >= 0) {
    nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void PageCache::push_front(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  node.prev = -1;
  node.next = head_;
  if (head_ >= 0) {
    nodes_[static_cast<std::size_t>(head_)].prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

PageCache::TouchResult PageCache::touch(VPage page) {
  TouchResult out;
  const std::int32_t n = slot_of(page);
  if (n >= 0) {
    out.hit = true;
    if (n != head_) {
      unlink(n);
      push_front(n);
    }
    return out;
  }
  std::int32_t slot;
  if (size_ == capacity_) {
    slot = tail_;
    const VPage victim = VPage(nodes_[static_cast<std::size_t>(slot)].page);
    unlink(slot);
    drop_slot(victim);
    out.evicted = victim;
  } else {
    slot = free_;
    free_ = nodes_[static_cast<std::size_t>(slot)].next;
    ++size_;
  }
  nodes_[static_cast<std::size_t>(slot)].page = page.value();
  push_front(slot);
  set_slot(page, slot);
  return out;
}

bool PageCache::invalidate(VPage page) {
  const std::int32_t n = slot_of(page);
  if (n < 0) {
    return false;
  }
  unlink(n);
  drop_slot(page);
  nodes_[static_cast<std::size_t>(n)].next = free_;
  free_ = n;
  --size_;
  return true;
}

void PageCache::clear() {
  for (std::int32_t n = head_; n >= 0;) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    drop_slot(VPage(node.page));
    const std::int32_t next = node.next;
    node.next = free_;
    free_ = n;
    n = next;
  }
  head_ = -1;
  tail_ = -1;
  size_ = 0;
}

VPage PageCache::lru_page() const {
  REPRO_REQUIRE(size_ > 0);
  return VPage(nodes_[static_cast<std::size_t>(tail_)].page);
}

void PageCache::digest(StateHash& hash) const {
  hash.mix(size_);
  for (std::int32_t n = head_; n >= 0;
       n = nodes_[static_cast<std::size_t>(n)].next) {
    hash.mix(nodes_[static_cast<std::size_t>(n)].page);
  }
}

}  // namespace repro::memsys
