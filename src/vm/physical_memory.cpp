#include "repro/vm/physical_memory.hpp"

#include <algorithm>
#include <limits>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"

namespace repro::vm {

PhysicalMemory::PhysicalMemory(std::size_t num_nodes,
                               std::size_t frames_per_node,
                               const topo::Topology& topology)
    : num_nodes_(num_nodes),
      frames_per_node_(frames_per_node),
      topology_(&topology),
      free_lists_(num_nodes),
      low_water_(num_nodes, frames_per_node),
      allocated_(num_nodes * frames_per_node, false) {
  REPRO_REQUIRE(num_nodes >= 1 && frames_per_node >= 1);
  REPRO_REQUIRE(topology.num_nodes() == num_nodes);
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    auto& list = free_lists_[n];
    list.reserve(frames_per_node_);
    // Push in reverse so the lowest frame id pops first (determinism).
    for (std::size_t f = frames_per_node_; f-- > 0;) {
      list.push_back(FrameId(n * frames_per_node_ + f));
    }
  }
}

std::optional<FrameId> PhysicalMemory::allocate_strict(NodeId node) {
  REPRO_REQUIRE(node.value() < num_nodes_);
  auto& list = free_lists_[node.value()];
  if (list.empty()) {
    return std::nullopt;
  }
  const FrameId frame = list.back();
  list.pop_back();
  low_water_[node.value()] = std::min(low_water_[node.value()], list.size());
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
    if (free_lists_[n].empty() || (exclude && exclude->value() == n)) {
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
  free_lists_[node_of(frame).value()].push_back(frame);
}

NodeId PhysicalMemory::node_of(FrameId frame) const {
  const auto idx = static_cast<std::size_t>(frame.value());
  REPRO_REQUIRE(idx < allocated_.size());
  return NodeId(static_cast<std::uint32_t>(idx / frames_per_node_));
}

std::size_t PhysicalMemory::free_frames(NodeId node) const {
  REPRO_REQUIRE(node.value() < num_nodes_);
  return free_lists_[node.value()].size();
}

std::size_t PhysicalMemory::total_free() const {
  std::size_t total = 0;
  for (const auto& list : free_lists_) {
    total += list.size();
  }
  return total;
}

std::uint64_t PhysicalMemory::digest() const {
  StateHash hash;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    const auto& list = free_lists_[n];
    hash.mix(low_water_[n]);
    hash.mix(list.size());
    for (std::size_t i = low_water_[n]; i < list.size(); ++i) {
      hash.mix(list[i].value());
    }
  }
  return hash.value();
}

}  // namespace repro::vm
