// Physical frame pools, one per node, with capacity limits.
//
// IRIX page migration is subject to resource-management constraints: a
// user-requested migration can be rejected when the target node is out
// of memory, in which case the kernel forwards the page to the
// physically closest node with space (best effort). That behaviour lives
// here so both the kernel daemon and UPMlib inherit it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/strong_id.hpp"
#include "repro/topology/topology.hpp"

namespace repro::vm {

class PhysicalMemory {
 public:
  PhysicalMemory(std::size_t num_nodes, std::size_t frames_per_node,
                 const topo::Topology& topology);

  /// Allocates a frame on `node` if possible, otherwise on the nearest
  /// node (by hop count, lowest id tie-break) with a free frame.
  /// `exclude`, when set, is never chosen as a redirection target (the
  /// kernel excludes a migration's source node: moving the page "to"
  /// where it already is would be pointless).
  /// Returns nullopt only when no eligible node has a free frame.
  [[nodiscard]] std::optional<FrameId> allocate(
      NodeId preferred, std::optional<NodeId> exclude = std::nullopt);

  /// Allocates strictly on `node`; nullopt when that node is full.
  [[nodiscard]] std::optional<FrameId> allocate_strict(NodeId node);

  void free(FrameId frame);

  /// On every miss (the kernel's resolve): a shift when frames_per_node
  /// is a power of two, as it is at every paper shape.
  [[nodiscard]] NodeId node_of(FrameId frame) const {
    const auto idx = static_cast<std::size_t>(frame.value());
    REPRO_REQUIRE(idx < allocated_.size());
    return NodeId(static_cast<std::uint32_t>(
        frame_shift_ >= 0 ? idx >> frame_shift_ : idx / frames_per_node_));
  }
  [[nodiscard]] std::size_t free_frames(NodeId node) const;
  [[nodiscard]] std::size_t total_free() const;
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t frames_per_node() const {
    return frames_per_node_;
  }

  /// Behavioural digest of the free lists, order included: the LIFO
  /// order decides which frame the next allocation on a node returns.
  /// Costs O(entries above the low-water marks), not O(free frames):
  /// a list entry below its node's low-water mark has never been
  /// popped, so it still holds its construction value, and the mark
  /// plus the entries above it determine the whole list.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::size_t num_nodes_;
  std::size_t frames_per_node_;
  /// log2(frames_per_node_) when it is a power of two, else -1.
  int frame_shift_;
  const topo::Topology* topology_;
  /// Each node's LIFO free list is stored lazily. Its bottom
  /// `low_water_[n]` entries were never popped and still hold their
  /// construction values: entry i is frame fpn - 1 - i of the node, so
  /// the lowest frame id pops first. Only the entries above the mark
  /// (frames freed since) are kept, in `above_[n]`, top last. A pop
  /// below the mark hands out the next construction frame and lowers
  /// the mark, so bring-up writes no list at all.
  std::vector<std::size_t> low_water_;
  std::vector<std::vector<FrameId>> above_;
  std::vector<bool> allocated_;  // by frame
};

}  // namespace repro::vm
