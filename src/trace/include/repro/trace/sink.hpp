// TraceSink: structured event recording with canonical replay order.
//
// Zero overhead when off: nothing in the simulator holds more than a
// null TraceSink pointer, and every emission site is guarded by a
// single pointer test.
//
// Lanes. Each event source (one per simulated subsystem or thread)
// registers a *lane* -- an independent append-only buffer. Appends
// never synchronize with other lanes, so recording is lock-free per
// simulated source, and -- more importantly -- the canonical order of
// the trace is *reconstructed*, never observed: events are totally
// ordered by (time, lane, seq), where seq is the per-lane append
// index. Lane ids are assigned in registration order, which the
// machine assembly fixes deterministically, so the canonical order
// depends only on the simulation, never on host scheduling or the
// --jobs count. Each lane is appended in time order (emit() and
// append_replayed() throw on an earlier time), so the canonical order
// is a merge of the lanes in place, never a sort.
//
// Context. The sink carries the current simulated time, outer
// iteration and phase (interned region name); whoever owns that
// context (harness loop, OpenMP runtime, UPMlib, daemon) updates it,
// and emit() stamps every event with it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/trace/event.hpp"

namespace repro::trace {

class TraceSink {
 public:
  TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // --- lanes ---------------------------------------------------------------
  /// Registers an event source; returns its deterministic lane id.
  std::uint16_t register_lane(std::string name);
  [[nodiscard]] std::size_t num_lanes() const { return lanes_.size(); }
  [[nodiscard]] const std::string& lane_name(std::uint16_t lane) const;

  // --- context -------------------------------------------------------------
  /// Current simulated time; emitters without their own clock (the
  /// kernel's migration primitive) stamp events with it.
  void set_now(Ns now) { now_ = now; }
  [[nodiscard]] Ns now() const { return now_; }

  void set_iteration(std::uint32_t iteration) { iteration_ = iteration; }
  [[nodiscard]] std::uint32_t iteration() const { return iteration_; }

  /// Interns a phase (region) name; id 0 is reserved for "no phase".
  std::uint32_t intern_phase(const std::string& name);
  void set_phase(std::uint32_t phase) { phase_ = phase; }
  [[nodiscard]] std::uint32_t phase() const { return phase_; }
  [[nodiscard]] const std::string& phase_name(std::uint32_t phase) const;
  [[nodiscard]] std::size_t num_phases() const { return phases_.size(); }

  // --- emission ------------------------------------------------------------
  /// Appends `event` to `lane`, stamping lane, seq, iteration and
  /// phase. The caller sets `time` (use now() when it has no better
  /// clock); it must be no earlier than the lane's last event.
  void emit(std::uint16_t lane, TraceEvent event);

  /// Convenience: emit stamped at the sink's current time.
  void emit_now(std::uint16_t lane, TraceEvent event) {
    event.time = now_;
    emit(lane, std::move(event));
  }

  /// Appends a synthesized event to `lane`, assigning lane and seq but
  /// keeping the caller's time, iteration and phase stamps. Used by the
  /// harness's steady-state fast-forward to re-stamp a recorded
  /// iteration's events into later iterations without running them.
  /// The same time-order rule as emit() holds.
  void append_replayed(std::uint16_t lane, TraceEvent event);

  /// Reserves room for `events` events in `lane` in total, so appends
  /// up to that size never reallocate.
  void reserve_lane(std::uint16_t lane, std::size_t events);

  // --- access --------------------------------------------------------------
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Events of one lane in append order.
  [[nodiscard]] const std::vector<TraceEvent>& lane_events(
      std::uint16_t lane) const;

  /// Calls `visit(const TraceEvent&)` for every event in the canonical
  /// total order, ascending (time, lane, seq): one merge walk over the
  /// lanes in place, which equals a sort because every lane is in
  /// (time, seq) order already.
  template <typename Visit>
  void for_each_canonical(Visit&& visit) const;

  /// Drops all recorded events (lane and phase tables survive).
  void clear();

 private:
  struct Lane {
    std::string name;
    std::vector<TraceEvent> events;
  };

  std::vector<Lane> lanes_;
  std::vector<std::string> phases_;  // index = phase id; [0] = ""
  Ns now_ = 0;
  std::uint32_t iteration_ = 0;
  std::uint32_t phase_ = 0;
};

template <typename Visit>
void TraceSink::for_each_canonical(Visit&& visit) const {
  struct Head {
    const TraceEvent* at;
    const TraceEvent* end;
  };
  // The non-empty lanes in lane-id order, so the first minimum found
  // is also the lowest lane among equal times.
  std::vector<Head> heads;
  heads.reserve(lanes_.size());
  for (const Lane& l : lanes_) {
    if (!l.events.empty()) {
      heads.push_back({l.events.data(), l.events.data() + l.events.size()});
    }
  }
  while (!heads.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < heads.size(); ++i) {
      if (heads[i].at->time < heads[best].at->time) {
        best = i;
      }
    }
    Head& head = heads[best];
    visit(*head.at);
    if (++head.at == head.end) {
      heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
}

}  // namespace repro::trace
