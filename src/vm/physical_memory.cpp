#include "repro/vm/physical_memory.hpp"

#include <bit>
#include <limits>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"

namespace repro::vm {

PhysicalMemory::PhysicalMemory(std::size_t num_nodes,
                               std::size_t frames_per_node,
                               const topo::Topology& topology)
    : num_nodes_(num_nodes),
      frames_per_node_(frames_per_node),
      frame_shift_(std::has_single_bit(frames_per_node)
                       ? std::countr_zero(frames_per_node)
                       : -1),
      topology_(&topology),
      low_water_(num_nodes, frames_per_node),
      above_(num_nodes),
      allocated_(num_nodes * frames_per_node, false) {
  REPRO_REQUIRE(num_nodes >= 1 && frames_per_node >= 1);
  REPRO_REQUIRE(topology.num_nodes() == num_nodes);
}

std::optional<FrameId> PhysicalMemory::allocate_strict(NodeId node) {
  REPRO_REQUIRE(node.value() < num_nodes_);
  std::vector<FrameId>& above = above_[node.value()];
  std::size_t& mark = low_water_[node.value()];
  FrameId frame;
  if (!above.empty()) {
    frame = above.back();
    above.pop_back();
  } else if (mark > 0) {
    // The entry just below the mark, still its construction value.
    --mark;
    frame = FrameId(node.value() * frames_per_node_ + frames_per_node_ - 1 -
                    mark);
  } else {
    return std::nullopt;
  }
  allocated_[static_cast<std::size_t>(frame.value())] = true;
  return frame;
}

std::optional<FrameId> PhysicalMemory::allocate(
    NodeId preferred, std::optional<NodeId> exclude) {
  if (!exclude || *exclude != preferred) {
    if (auto frame = allocate_strict(preferred)) {
      return frame;
    }
  }
  // Best-effort redirection: closest node (fewest hops) with space.
  unsigned best_hops = std::numeric_limits<unsigned>::max();
  std::optional<NodeId> best;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    if (free_frames(NodeId(n)) == 0 || (exclude && exclude->value() == n)) {
      continue;
    }
    const unsigned h = topology_->hops(preferred, NodeId(n));
    if (h < best_hops) {
      best_hops = h;
      best = NodeId(n);
    }
  }
  if (!best) {
    return std::nullopt;
  }
  return allocate_strict(*best);
}

void PhysicalMemory::free(FrameId frame) {
  const auto idx = static_cast<std::size_t>(frame.value());
  REPRO_REQUIRE(idx < allocated_.size());
  REPRO_REQUIRE_MSG(allocated_[idx], "double free of physical frame");
  allocated_[idx] = false;
  above_[node_of(frame).value()].push_back(frame);
}

std::size_t PhysicalMemory::free_frames(NodeId node) const {
  REPRO_REQUIRE(node.value() < num_nodes_);
  return low_water_[node.value()] + above_[node.value()].size();
}

std::size_t PhysicalMemory::total_free() const {
  std::size_t total = 0;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    total += low_water_[n] + above_[n].size();
  }
  return total;
}

std::uint64_t PhysicalMemory::digest() const {
  StateHash hash;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    hash.mix(low_water_[n]);
    hash.mix(low_water_[n] + above_[n].size());
    for (const FrameId frame : above_[n]) {
      hash.mix(frame.value());
    }
  }
  return hash.value();
}

}  // namespace repro::vm
