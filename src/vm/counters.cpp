#include "repro/vm/counters.hpp"

#include <algorithm>
#include <bit>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"

namespace repro::vm {

RefCounters::RefCounters(std::size_t num_frames, std::size_t num_nodes,
                         unsigned counter_bits, bool sparse)
    : num_frames_(num_frames),
      num_nodes_(num_nodes),
      max_((1u << counter_bits) - 1u),
      sparse_(sparse) {
  REPRO_REQUIRE(num_frames >= 1);
  REPRO_REQUIRE(num_nodes >= 1);
  REPRO_REQUIRE(counter_bits >= 1 && counter_bits <= 31);
  zero_row_.assign(num_nodes_, 0);
  if (!sparse_) {
    const std::size_t chunks = (num_frames + kChunkFrames - 1) / kChunkFrames;
    chunks_.resize(chunks);
    touched_.assign(chunks, 0);
  }
}

const std::uint32_t* RefCounters::find_row(FrameId frame) const {
  REPRO_REQUIRE(frame.value() < num_frames_);
  const std::uint64_t f = frame.value();
  if (!sparse_) {
    const std::uint32_t* chunk = chunks_[f / kChunkFrames].get();
    return chunk == nullptr ? nullptr
                            : chunk + (f % kChunkFrames) * num_nodes_;
  }
  const std::uint32_t* row = row_of_.find(f);
  return row == nullptr ? nullptr : rows_.data() + *row * num_nodes_;
}

std::uint32_t* RefCounters::ensure_row(FrameId frame) {
  REPRO_REQUIRE(frame.value() < num_frames_);
  const std::uint64_t f = frame.value();
  if (!sparse_ && chunks_[f / kChunkFrames] != nullptr) {
    touched_[f / kChunkFrames] |= std::uint64_t{1} << (f % kChunkFrames);
    return chunks_[f / kChunkFrames].get() + (f % kChunkFrames) * num_nodes_;
  }
  return add_row(f);
}

std::uint32_t* RefCounters::add_row(std::uint64_t frame) {
  if (!sparse_) {
    // make_unique<T[]> value-initializes: the chunk is zeroed here,
    // once, not by whatever the allocator happens to hand back.
    chunks_[frame / kChunkFrames] =
        std::make_unique<std::uint32_t[]>(kChunkFrames * num_nodes_);
    return ensure_row(FrameId(frame));
  }
  if (const std::uint32_t* row = row_of_.find(frame)) {
    return rows_.data() + *row * num_nodes_;
  }
  const auto row = static_cast<std::uint32_t>(rows_.size() / num_nodes_);
  rows_.resize(rows_.size() + num_nodes_, 0);
  row_of_[frame] = row;
  return rows_.data() + static_cast<std::size_t>(row) * num_nodes_;
}

void RefCounters::increment(FrameId frame, NodeId node, std::uint32_t n) {
  REPRO_REQUIRE(node.value() < num_nodes_);
  std::uint32_t& v = ensure_row(frame)[node.value()];
  v = (max_ - v < n) ? max_ : v + n;
}

std::span<const std::uint32_t> RefCounters::read(FrameId frame) const {
  const std::uint32_t* row = find_row(frame);
  return {row == nullptr ? zero_row_.data() : row, num_nodes_};
}

std::uint32_t RefCounters::read(FrameId frame, NodeId node) const {
  REPRO_REQUIRE(node.value() < num_nodes_);
  const std::uint32_t* row = find_row(frame);
  return row == nullptr ? 0 : row[node.value()];
}

void RefCounters::reset(FrameId frame) {
  REPRO_REQUIRE(frame.value() < num_frames_);
  // Rows stay allocated (sparse row indices are stable); a zeroed row
  // and a never-touched frame are indistinguishable to readers and
  // digests.
  const std::uint64_t f = frame.value();
  std::uint32_t* row = nullptr;
  if (sparse_) {
    if (const std::uint32_t* index = row_of_.find(f)) {
      row = rows_.data() + *index * num_nodes_;
    }
  } else {
    // A clear touched bit already means an all-zero row.
    std::uint64_t& bits = touched_[f / kChunkFrames];
    const std::uint64_t bit = std::uint64_t{1} << (f % kChunkFrames);
    if ((bits & bit) != 0) {
      bits &= ~bit;
      row = chunks_[f / kChunkFrames].get() + (f % kChunkFrames) * num_nodes_;
    }
  }
  if (row != nullptr) {
    std::fill(row, row + num_nodes_, 0u);
  }
}

void RefCounters::reset_all() {
  std::fill(rows_.begin(), rows_.end(), 0u);
  for (std::size_t c = 0; c < touched_.size(); ++c) {
    for (std::uint64_t bits = touched_[c]; bits != 0; bits &= bits - 1) {
      std::uint32_t* row =
          chunks_[c].get() +
          static_cast<std::size_t>(std::countr_zero(bits)) * num_nodes_;
      std::fill(row, row + num_nodes_, 0u);
    }
    touched_[c] = 0;
  }
}

NodeId RefCounters::argmax_node(FrameId frame) const {
  const auto counts = read(frame);
  const auto it = std::max_element(counts.begin(), counts.end());
  return NodeId(static_cast<std::uint32_t>(it - counts.begin()));
}

std::uint64_t RefCounters::digest() const {
  // Both backends mix the *logical* array size (frames x nodes) and the
  // nonzero counters at their frame-major flat indices, so sparse and
  // dense machines with equal counter state digest identically -- and
  // equal to a scan of the whole array, since every frame skipped here
  // reads as all zeros.
  StateHash hash;
  hash.mix(num_frames_ * num_nodes_);
  const auto mix_row = [&](std::uint64_t frame, const std::uint32_t* row) {
    for (std::size_t n = 0; n < num_nodes_; ++n) {
      if (row[n] != 0) {
        hash.mix(frame * num_nodes_ + n);
        hash.mix(row[n]);
      }
    }
  };
  if (sparse_) {
    std::vector<std::uint64_t> frames;
    frames.reserve(row_of_.size());
    row_of_.for_each(
        [&](std::uint64_t frame, std::uint32_t) { frames.push_back(frame); });
    std::sort(frames.begin(), frames.end());
    for (const std::uint64_t frame : frames) {
      mix_row(frame, find_row(FrameId(frame)));
    }
  } else {
    for (std::size_t c = 0; c < touched_.size(); ++c) {
      for (std::uint64_t bits = touched_[c]; bits != 0; bits &= bits - 1) {
        const auto f = static_cast<std::size_t>(std::countr_zero(bits));
        mix_row(c * kChunkFrames + f, chunks_[c].get() + f * num_nodes_);
      }
    }
  }
  return hash.value();
}

}  // namespace repro::vm
