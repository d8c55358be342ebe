// Per-frame per-node hardware reference counters.
//
// The Origin2000 attaches a set of 11-bit counters to every physical
// memory frame, one per node, counting accesses (L2 misses) from each
// node. The counters saturate -- an important realism point: a kernel
// engine that never resets them stops seeing differentials once pages
// are hot, while UPMlib resets them at iteration boundaries and so keeps
// full-precision per-iteration traces.
//
// Storage is allocated lazily and untouched frames read as one shared
// zero row, so a machine's bring-up and digest cost follow the frames a
// run touches, not its installed memory (the full array of a 16-node
// machine, 16 x 32768 frames x 16 counters, is 32 MiB to zero).
// Frames are grouped into fixed chunks of rows, each allocated zeroed
// on its first increment, with a per-chunk bitmap of the frames that
// may hold a nonzero counter: digest() walks only those. A chunk holds
// at most kChunkCounters counters, so past 128 nodes its frame count
// shrinks (64 frames up to 128 nodes, 16 at 512) and a node that
// touches a few frames does not pay for 64 rows of 512 counters.
// The digest equals a full scan of the frames x nodes array: it mixes
// frames x nodes and then every nonzero counter at its frame-major
// flat index, in ascending frame order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "repro/common/strong_id.hpp"

namespace repro::vm {

class RefCounters {
 public:
  RefCounters(std::size_t num_frames, std::size_t num_nodes,
              unsigned counter_bits);

  /// Deep copies: the allocated chunks only, so a copy costs what the
  /// run touched (the harness fast-forward keeps one to rewind the
  /// daemon's comparator input).
  RefCounters(const RefCounters& other);
  RefCounters& operator=(const RefCounters& other);
  RefCounters(RefCounters&&) noexcept = default;
  RefCounters& operator=(RefCounters&&) noexcept = default;

  /// Adds `n` accesses from `node` to `frame`, saturating.
  void increment(FrameId frame, NodeId node, std::uint32_t n);

  /// Counter values for one frame, indexed by node.
  [[nodiscard]] std::span<const std::uint32_t> read(FrameId frame) const;

  [[nodiscard]] std::uint32_t read(FrameId frame, NodeId node) const;

  /// Zeroes one frame's counters (OS service used by UPMlib and by the
  /// kernel daemon after a migration).
  void reset(FrameId frame);

  [[nodiscard]] std::uint32_t max_value() const { return max_; }
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_frames() const { return num_frames_; }

  /// Node with the largest count for a frame (lowest id wins ties).
  [[nodiscard]] NodeId argmax_node(FrameId frame) const;

  /// Behavioural digest of every nonzero counter (frame-major order).
  /// Counters feed the kernel migration daemon's comparator, so runs
  /// with a daemon installed must include them in the machine digest;
  /// without one they are pure statistics. Costs O(touched frames).
  [[nodiscard]] std::uint64_t digest() const;

  /// Counters per chunk at most (32 KiB), in at most 64 frames (one
  /// touched-bitmap word per chunk).
  static constexpr std::size_t kChunkCounters = 8192;
  static constexpr std::size_t kMaxChunkFrames = 64;
  /// Frames per chunk: the largest power of two whose rows fit in
  /// kChunkCounters, at least 1 and at most kMaxChunkFrames.
  [[nodiscard]] std::size_t chunk_frames() const {
    return std::size_t{1} << chunk_shift_;
  }

 private:
  std::size_t num_frames_;
  std::size_t num_nodes_;
  std::uint32_t max_;
  unsigned chunk_shift_;  // log2(chunk_frames())
  std::vector<std::uint32_t> zero_row_;

  // Chunk c holds the rows of frames c*chunk_frames() onward,
  // frame-major ([frame][node]), and is null until its first
  // increment. Bit f of touched_[c] is set by an increment of frame
  // c*chunk_frames()+f and cleared when that row is zeroed, so a clear
  // bit means an all-zero row.
  std::vector<std::unique_ptr<std::uint32_t[]>> chunks_;
  std::vector<std::uint64_t> touched_;

  /// Row for `frame`, or nullptr when no storage backs it yet (it then
  /// reads as all zeros).
  [[nodiscard]] const std::uint32_t* find_row(FrameId frame) const;
  /// Row for `frame`, allocating a zeroed chunk when absent. The
  /// common case (chunk already allocated) stays small enough to
  /// inline into increment; a chunk's first allocation goes through
  /// add_row.
  [[nodiscard]] std::uint32_t* ensure_row(FrameId frame);
  /// ensure_row's slow path: allocates `frame`'s chunk.
  [[nodiscard]] std::uint32_t* add_row(std::uint64_t frame);
};

}  // namespace repro::vm
