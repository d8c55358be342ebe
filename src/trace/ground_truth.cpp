#include "repro/trace/ground_truth.hpp"

#include <algorithm>
#include <map>

namespace repro::trace {

PlacementGroundTruth extract_ground_truth(const TraceSink& sink) {
  PlacementGroundTruth truth;
  // page -> (first src, last dst), filled in canonical order so "first"
  // and "last" are well defined.
  std::map<std::uint64_t, std::pair<std::int32_t, std::int32_t>> homes;
  std::map<std::uint32_t, Ns> iteration_begin;

  sink.for_each_canonical([&](const TraceEvent& ev) {
    switch (ev.kind) {
      case EventKind::kPageMigration: {
        MigrationRecord rec;
        rec.page = ev.page;
        rec.src = ev.src;
        rec.dst = ev.dst;
        rec.iteration = ev.iteration;
        rec.time = ev.time;
        rec.redirected = ev.a != 0;
        truth.migrations.push_back(rec);
        auto [it, inserted] =
            homes.try_emplace(ev.page, ev.src, ev.dst);
        if (!inserted) {
          it->second.second = ev.dst;
        }
        if (ev.iteration >= 1) {
          if (truth.migrations_per_iteration.size() < ev.iteration) {
            truth.migrations_per_iteration.resize(ev.iteration, 0);
          }
          ++truth.migrations_per_iteration[ev.iteration - 1];
        }
        break;
      }
      case EventKind::kPageFreeze: {
        FreezeRecord rec;
        rec.page = ev.page;
        rec.home = ev.node;
        rec.give_up = ev.a == 1;
        rec.iteration = ev.iteration;
        truth.freezes.push_back(rec);
        break;
      }
      case EventKind::kIterationBegin:
        if (ev.iteration >= 1) {
          iteration_begin[ev.iteration] = ev.time;
        }
        break;
      case EventKind::kIterationEnd: {
        if (ev.iteration < 1) {
          break;
        }
        if (truth.iteration_durations.size() < ev.iteration) {
          truth.iteration_durations.resize(ev.iteration, 0);
          truth.iteration_remote_fraction.resize(ev.iteration, 0.0);
        }
        const auto begin = iteration_begin.find(ev.iteration);
        if (begin != iteration_begin.end()) {
          truth.iteration_durations[ev.iteration - 1] =
              ev.time - begin->second;
        }
        const std::uint64_t total = ev.a + ev.b;
        truth.iteration_remote_fraction[ev.iteration - 1] =
            total == 0 ? 0.0
                       : static_cast<double>(ev.a) /
                             static_cast<double>(total);
        break;
      }
      default:
        break;
    }
  });

  truth.migrated_pages.reserve(homes.size());
  for (const auto& [page, src_dst] : homes) {
    truth.migrated_pages.push_back(page);
    truth.pre_migration_home.push_back(src_dst.first);
    truth.post_migration_home.push_back(src_dst.second);
  }
  for (const FreezeRecord& rec : truth.freezes) {
    truth.frozen_pages.push_back(rec.page);
  }
  std::sort(truth.frozen_pages.begin(), truth.frozen_pages.end());
  truth.frozen_pages.erase(
      std::unique(truth.frozen_pages.begin(), truth.frozen_pages.end()),
      truth.frozen_pages.end());

  const std::size_t iterations =
      std::max(truth.iteration_durations.size(),
               truth.migrations_per_iteration.size());
  truth.migrations_per_iteration.resize(iterations, 0);
  return truth;
}

std::vector<LinePingPong> CoherenceGroundTruth::ping_pong_lines(
    std::uint64_t min_invalidations) const {
  std::vector<LinePingPong> out;
  for (const LinePingPong& l : lines) {
    if (l.writers.size() >= 2 && l.invalidations >= min_invalidations) {
      out.push_back(l);
    }
  }
  return out;
}

CoherenceGroundTruth extract_coherence_ground_truth(const TraceSink& sink) {
  CoherenceGroundTruth truth;
  // (page, line) -> record; std::map gives the ascending output order.
  std::map<std::pair<std::uint64_t, std::uint32_t>, LinePingPong> by_line;
  sink.for_each_canonical([&](const TraceEvent& ev) {
    if (ev.kind != EventKind::kLineInvalidate) {
      return;
    }
    const auto line = static_cast<std::uint32_t>(ev.a);
    LinePingPong& rec = by_line[{ev.page, line}];
    rec.page = ev.page;
    rec.line = line;
    ++rec.invalidations;
    rec.copies_killed += ev.b;
    const auto writer = static_cast<std::uint32_t>(ev.node);
    if (std::find(rec.writers.begin(), rec.writers.end(), writer) ==
        rec.writers.end()) {
      rec.writers.push_back(writer);
    }
    ++truth.total_invalidations;
  });
  truth.lines.reserve(by_line.size());
  for (auto& [key, rec] : by_line) {
    std::sort(rec.writers.begin(), rec.writers.end());
    truth.lines.push_back(std::move(rec));
  }
  return truth;
}

}  // namespace repro::trace
