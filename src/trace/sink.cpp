#include "repro/trace/sink.hpp"

#include "repro/common/assert.hpp"

namespace repro::trace {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRegionBegin:
      return "region_begin";
    case EventKind::kRegionEnd:
      return "region_end";
    case EventKind::kBarrierWait:
      return "barrier_wait";
    case EventKind::kPageMigration:
      return "page_migration";
    case EventKind::kPageReplication:
      return "page_replication";
    case EventKind::kReplicaCollapse:
      return "replica_collapse";
    case EventKind::kPageFreeze:
      return "page_freeze";
    case EventKind::kUpmCall:
      return "upm_call";
    case EventKind::kDaemonScan:
      return "daemon_scan";
    case EventKind::kQueueSample:
      return "queue_sample";
    case EventKind::kIterationBegin:
      return "iteration_begin";
    case EventKind::kIterationEnd:
      return "iteration_end";
    case EventKind::kFaultInjection:
      return "fault_injection";
    case EventKind::kTaskSpawn:
      return "task_spawn";
    case EventKind::kTaskSteal:
      return "task_steal";
    case EventKind::kLineFill:
      return "line_fill";
    case EventKind::kLineInvalidate:
      return "line_invalidate";
    case EventKind::kLineUpgrade:
      return "line_upgrade";
    case EventKind::kLineWriteback:
      return "line_writeback";
  }
  return "?";
}

TraceSink::TraceSink() : phases_(1, std::string{}) {}

std::uint16_t TraceSink::register_lane(std::string name) {
  REPRO_REQUIRE_MSG(lanes_.size() < UINT16_MAX, "too many trace lanes");
  lanes_.push_back(Lane{std::move(name), {}});
  return static_cast<std::uint16_t>(lanes_.size() - 1);
}

const std::string& TraceSink::lane_name(std::uint16_t lane) const {
  REPRO_REQUIRE(lane < lanes_.size());
  return lanes_[lane].name;
}

std::uint32_t TraceSink::intern_phase(const std::string& name) {
  // Linear scan: the phase table holds one entry per distinct region
  // name (a handful per benchmark) and interning happens once per
  // region run, far off the simulation hot path.
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  phases_.push_back(name);
  return static_cast<std::uint32_t>(phases_.size() - 1);
}

const std::string& TraceSink::phase_name(std::uint32_t phase) const {
  REPRO_REQUIRE(phase < phases_.size());
  return phases_[phase];
}

void TraceSink::emit(std::uint16_t lane, TraceEvent event) {
  REPRO_REQUIRE(lane < lanes_.size());
  Lane& l = lanes_[lane];
  REPRO_REQUIRE_MSG(l.events.empty() || l.events.back().time <= event.time,
                    "trace event earlier than its lane's last event");
  event.lane = lane;
  event.seq = static_cast<std::uint32_t>(l.events.size());
  event.iteration = iteration_;
  event.phase = phase_;
  l.events.push_back(event);
}

void TraceSink::append_replayed(std::uint16_t lane, TraceEvent event) {
  REPRO_REQUIRE(lane < lanes_.size());
  Lane& l = lanes_[lane];
  REPRO_REQUIRE_MSG(l.events.empty() || l.events.back().time <= event.time,
                    "replayed trace event earlier than its lane's last "
                    "event");
  event.lane = lane;
  event.seq = static_cast<std::uint32_t>(l.events.size());
  l.events.push_back(event);
}

void TraceSink::reserve_lane(std::uint16_t lane, std::size_t events) {
  REPRO_REQUIRE(lane < lanes_.size());
  lanes_[lane].events.reserve(events);
}

std::size_t TraceSink::size() const {
  std::size_t total = 0;
  for (const Lane& l : lanes_) {
    total += l.events.size();
  }
  return total;
}

const std::vector<TraceEvent>& TraceSink::lane_events(
    std::uint16_t lane) const {
  REPRO_REQUIRE(lane < lanes_.size());
  return lanes_[lane].events;
}

void TraceSink::clear() {
  for (Lane& l : lanes_) {
    l.events.clear();
  }
}

}  // namespace repro::trace
