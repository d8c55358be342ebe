#include "repro/vm/counters.hpp"

#include <algorithm>
#include <bit>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"

namespace repro::vm {

namespace {

/// log2 of the frames per chunk for `num_nodes` counters per frame.
unsigned chunk_shift_for(std::size_t num_nodes) {
  const std::size_t frames = std::clamp<std::size_t>(
      RefCounters::kChunkCounters / std::max<std::size_t>(num_nodes, 1), 1,
      RefCounters::kMaxChunkFrames);
  return static_cast<unsigned>(std::countr_zero(std::bit_floor(frames)));
}

}  // namespace

RefCounters::RefCounters(std::size_t num_frames, std::size_t num_nodes,
                         unsigned counter_bits)
    : num_frames_(num_frames),
      num_nodes_(num_nodes),
      max_((1u << counter_bits) - 1u),
      chunk_shift_(chunk_shift_for(num_nodes)) {
  REPRO_REQUIRE(num_frames >= 1);
  REPRO_REQUIRE(num_nodes >= 1);
  REPRO_REQUIRE(counter_bits >= 1 && counter_bits <= 31);
  zero_row_.assign(num_nodes_, 0);
  const std::size_t chunks = ((num_frames - 1) >> chunk_shift_) + 1;
  chunks_.resize(chunks);
  touched_.assign(chunks, 0);
}

RefCounters::RefCounters(const RefCounters& other)
    : num_frames_(other.num_frames_),
      num_nodes_(other.num_nodes_),
      max_(other.max_),
      chunk_shift_(other.chunk_shift_),
      zero_row_(other.zero_row_),
      chunks_(other.chunks_.size()),
      touched_(other.touched_) {
  const std::size_t chunk_size = chunk_frames() * num_nodes_;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (other.chunks_[c] != nullptr) {
      chunks_[c] = std::make_unique_for_overwrite<std::uint32_t[]>(chunk_size);
      std::copy_n(other.chunks_[c].get(), chunk_size, chunks_[c].get());
    }
  }
}

RefCounters& RefCounters::operator=(const RefCounters& other) {
  if (this != &other) {
    *this = RefCounters(other);
  }
  return *this;
}

const std::uint32_t* RefCounters::find_row(FrameId frame) const {
  REPRO_REQUIRE(frame.value() < num_frames_);
  const std::uint64_t f = frame.value();
  const std::uint32_t* chunk = chunks_[f >> chunk_shift_].get();
  return chunk == nullptr ? nullptr
                          : chunk + (f & (chunk_frames() - 1)) * num_nodes_;
}

std::uint32_t* RefCounters::ensure_row(FrameId frame) {
  REPRO_REQUIRE(frame.value() < num_frames_);
  const std::uint64_t f = frame.value();
  const std::uint64_t c = f >> chunk_shift_;
  if (chunks_[c] != nullptr) {
    const std::uint64_t row = f & (chunk_frames() - 1);
    touched_[c] |= std::uint64_t{1} << row;
    return chunks_[c].get() + row * num_nodes_;
  }
  return add_row(f);
}

std::uint32_t* RefCounters::add_row(std::uint64_t frame) {
  // make_unique<T[]> value-initializes: the chunk is zeroed here, once,
  // not by whatever the allocator happens to hand back.
  chunks_[frame >> chunk_shift_] =
      std::make_unique<std::uint32_t[]>(chunk_frames() * num_nodes_);
  return ensure_row(FrameId(frame));
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
  // Chunks stay allocated; a zeroed row and a never-touched frame are
  // indistinguishable to readers and digests. A clear touched bit
  // already means an all-zero row.
  const std::uint64_t f = frame.value();
  const std::uint64_t c = f >> chunk_shift_;
  const std::uint64_t r = f & (chunk_frames() - 1);
  std::uint64_t& bits = touched_[c];
  const std::uint64_t bit = std::uint64_t{1} << r;
  if ((bits & bit) != 0) {
    bits &= ~bit;
    std::uint32_t* row = chunks_[c].get() + r * num_nodes_;
    std::fill(row, row + num_nodes_, 0u);
  }
}

NodeId RefCounters::argmax_node(FrameId frame) const {
  const auto counts = read(frame);
  const auto it = std::max_element(counts.begin(), counts.end());
  return NodeId(static_cast<std::uint32_t>(it - counts.begin()));
}

std::uint64_t RefCounters::digest() const {
  // Mixes the *logical* array size (frames x nodes) and the nonzero
  // counters at their frame-major flat indices: equal to a scan of the
  // whole array, since every frame skipped here reads as all zeros.
  StateHash hash;
  hash.mix(num_frames_ * num_nodes_);
  for (std::size_t c = 0; c < touched_.size(); ++c) {
    for (std::uint64_t bits = touched_[c]; bits != 0; bits &= bits - 1) {
      const auto f = static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint64_t frame = (c << chunk_shift_) + f;
      const std::uint32_t* row = chunks_[c].get() + f * num_nodes_;
      for (std::size_t n = 0; n < num_nodes_; ++n) {
        if (row[n] != 0) {
          hash.mix(frame * num_nodes_ + n);
          hash.mix(row[n]);
        }
      }
    }
  }
  return hash.value();
}

}  // namespace repro::vm
