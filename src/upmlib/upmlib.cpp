#include "repro/upmlib/upmlib.hpp"

#include <algorithm>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/common/log.hpp"

namespace repro::upm {

UpmConfig UpmConfig::from_env() { return from_env(UpmConfig{}); }

UpmConfig UpmConfig::from_env(UpmConfig defaults) {
  const Env& env = Env::global();
  defaults.threshold = env.get_double("UPM_THRESHOLD", defaults.threshold);
  defaults.max_critical_pages = static_cast<std::size_t>(env.get_int(
      "UPM_CRITICAL_PAGES",
      static_cast<std::int64_t>(defaults.max_critical_pages)));
  defaults.freeze_bouncing_pages =
      env.get_bool("UPM_FREEZE", defaults.freeze_bouncing_pages);
  defaults.enable_replication =
      env.get_bool("UPM_REPLICATE", defaults.enable_replication);
  defaults.busy_retry_limit = static_cast<std::uint32_t>(env.get_int(
      "UPM_BUSY_RETRIES", static_cast<std::int64_t>(defaults.busy_retry_limit)));
  defaults.hysteresis_passes = static_cast<std::uint32_t>(env.get_int(
      "UPM_HYSTERESIS", static_cast<std::int64_t>(defaults.hysteresis_passes)));
  return defaults;
}

const char* upm_call_name(UpmCall::Kind kind) {
  switch (kind) {
    case UpmCall::Kind::kMemRefCnt:
      return "memrefcnt";
    case UpmCall::Kind::kResetCounters:
      return "reset_hot_counters";
    case UpmCall::Kind::kMigrateMemory:
      return "migrate_memory";
    case UpmCall::Kind::kRecord:
      return "record";
    case UpmCall::Kind::kCompareCounters:
      return "compare_counters";
    case UpmCall::Kind::kReplay:
      return "replay";
    case UpmCall::Kind::kUndo:
      return "undo";
    case UpmCall::Kind::kNotifyRebinding:
      return "notify_thread_rebinding";
  }
  return "?";
}

double UpmStats::first_invocation_fraction() const {
  if (distribution_migrations == 0 || migrations_per_invocation.empty()) {
    return 1.0;
  }
  return static_cast<double>(migrations_per_invocation.front()) /
         static_cast<double>(distribution_migrations);
}

UpmStats UpmStats::delta(const UpmStats& start, const UpmStats& end) {
  REPRO_REQUIRE(start.migrations_per_invocation.size() <=
                    end.migrations_per_invocation.size() &&
                start.migrations_per_range.size() <=
                    end.migrations_per_range.size());
  UpmStats d;
  d.migrations_per_invocation.assign(
      end.migrations_per_invocation.begin() +
          static_cast<std::ptrdiff_t>(start.migrations_per_invocation.size()),
      end.migrations_per_invocation.end());
  d.migrations_per_range = end.migrations_per_range;
  for (std::size_t i = 0; i < start.migrations_per_range.size(); ++i) {
    d.migrations_per_range[i] -= start.migrations_per_range[i];
  }
  d.distribution_migrations =
      end.distribution_migrations - start.distribution_migrations;
  d.replications = end.replications - start.replications;
  d.replication_cost = end.replication_cost - start.replication_cost;
  d.replay_migrations = end.replay_migrations - start.replay_migrations;
  d.undo_migrations = end.undo_migrations - start.undo_migrations;
  d.frozen_pages = end.frozen_pages - start.frozen_pages;
  d.busy_retries = end.busy_retries - start.busy_retries;
  d.give_ups = end.give_ups - start.give_ups;
  d.hysteresis_deferrals =
      end.hysteresis_deferrals - start.hysteresis_deferrals;
  d.distribution_cost = end.distribution_cost - start.distribution_cost;
  d.recrep_cost = end.recrep_cost - start.recrep_cost;
  return d;
}

void UpmStats::advance(const UpmStats& delta, std::uint64_t times) {
  for (std::uint64_t t = 0; t < times; ++t) {
    migrations_per_invocation.insert(migrations_per_invocation.end(),
                                     delta.migrations_per_invocation.begin(),
                                     delta.migrations_per_invocation.end());
  }
  if (migrations_per_range.size() < delta.migrations_per_range.size()) {
    migrations_per_range.resize(delta.migrations_per_range.size(), 0);
  }
  for (std::size_t i = 0; i < delta.migrations_per_range.size(); ++i) {
    migrations_per_range[i] += delta.migrations_per_range[i] * times;
  }
  distribution_migrations += delta.distribution_migrations * times;
  replications += delta.replications * times;
  replication_cost += delta.replication_cost * times;
  replay_migrations += delta.replay_migrations * times;
  undo_migrations += delta.undo_migrations * times;
  frozen_pages += delta.frozen_pages * times;
  busy_retries += delta.busy_retries * times;
  give_ups += delta.give_ups * times;
  hysteresis_deferrals += delta.hysteresis_deferrals * times;
  distribution_cost += delta.distribution_cost * times;
  recrep_cost += delta.recrep_cost * times;
}

Upmlib::Upmlib(os::MemoryControlInterface& mmci, omp::Runtime& runtime,
               UpmConfig config)
    : mmci_(&mmci), runtime_(&runtime), config_(config) {
  REPRO_REQUIRE(config.threshold > 0.0);
  REPRO_REQUIRE(config.busy_retry_limit >= 1);
  REPRO_REQUIRE(config.hysteresis_passes >= 1);
}

void Upmlib::trace(UpmCall call) {
  if (trace_enabled_) {
    trace_.push_back(call);
  }
}

Ns Upmlib::sync_clock() {
  const Ns at = runtime_->now();
  if (sink_ != nullptr) {
    sink_->set_now(at);
  }
  return at;
}

void Upmlib::emit_call(UpmCall::Kind kind, Ns at, std::uint64_t migrations,
                       Ns cost) {
  if (sink_ == nullptr) {
    return;
  }
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kUpmCall;
  ev.time = at;
  ev.a = static_cast<std::uint64_t>(kind);
  ev.b = migrations;
  ev.cost = cost;
  sink_->emit(sink_lane_, ev);
}

void Upmlib::memrefcnt(const vm::PageRange& range) {
  REPRO_REQUIRE(range.count >= 1);
  trace({UpmCall::Kind::kMemRefCnt, range, true});
  emit_call(UpmCall::Kind::kMemRefCnt, sync_clock(), range.count, 0);
  hot_ranges_.push_back(range);
  stats_.migrations_per_range.push_back(0);
  hot_pages_.reserve(hot_pages_.size() + range.count);
  for (std::uint64_t i = 0; i < range.count; ++i) {
    hot_pages_.push_back(range.page(i));
  }
}

void Upmlib::reset_hot_counters() {
  trace({UpmCall::Kind::kResetCounters, {}, true});
  emit_call(UpmCall::Kind::kResetCounters, sync_clock(), 0, 0);
  for (VPage page : hot_pages_) {
    if (mmci_->is_mapped(page)) {
      mmci_->reset_counters(page);
      if (config_.enable_replication) {
        mmci_->clear_dirty(page);
      }
    }
  }
}

bool Upmlib::try_replicate(VPage page, Ns* cost) {
  if (mmci_->is_dirty(page) || mmci_->replica_count(page) > 0) {
    return false;
  }
  const auto counts = mmci_->read_counters(page);
  const NodeId home = mmci_->home_of(page);
  // Rank remote reader nodes by reference count.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> readers;  // (count, node)
  for (std::uint32_t n = 0; n < counts.size(); ++n) {
    if (n != home.value() && counts[n] >= config_.replication_min_count) {
      readers.emplace_back(counts[n], n);
    }
  }
  if (readers.size() < config_.replication_min_nodes) {
    return false;
  }
  std::sort(readers.rbegin(), readers.rend());
  ensure_mlds();
  std::uint32_t made = 0;
  for (const auto& [count, node] : readers) {
    if (made == config_.max_replicas) {
      break;
    }
    const auto outcome = mmci_->replicate(page, mlds_[node]);
    if (outcome.replicated) {
      *cost += outcome.cost;
      ++made;
    }
  }
  stats_.replications += made;
  return made > 0;
}

void Upmlib::ensure_mlds() {
  if (mlds_.empty()) {
    mlds_.reserve(mmci_->num_nodes());
    for (std::uint32_t n = 0; n < mmci_->num_nodes(); ++n) {
      mlds_.push_back(mmci_->create_mld(NodeId(n)));
    }
  }
}

std::optional<Upmlib::Candidate> Upmlib::evaluate(
    VPage page, NodeId home, std::span<const std::uint32_t> counts,
    double threshold) {
  const std::uint32_t lacc = counts[home.value()];
  std::uint32_t racc_max = 0;
  std::uint32_t arg = 0;
  for (std::uint32_t n = 0; n < counts.size(); ++n) {
    if (n != home.value() && counts[n] > racc_max) {
      racc_max = counts[n];
      arg = n;
    }
  }
  if (racc_max == 0) {
    return std::nullopt;
  }
  // A page never referenced locally is maximally eligible; avoid the
  // division by zero by treating lacc as 1 in that case.
  const double ratio = static_cast<double>(racc_max) /
                       static_cast<double>(std::max(lacc, 1u));
  if (ratio <= threshold) {
    return std::nullopt;
  }
  return Candidate{page, NodeId(arg), ratio};
}

Ns Upmlib::do_migrate(VPage page, NodeId target, bool* migrated,
                      bool* gave_up) {
  ensure_mlds();
  Ns cost = 0;
  Ns backoff = config_.busy_backoff_ns;
  for (std::uint32_t attempt = 1;; ++attempt) {
    const auto outcome = mmci_->migrate(page, mlds_[target.value()]);
    cost += outcome.cost;
    if (!outcome.busy) {
      *migrated = outcome.migrated;
      return cost;
    }
    if (attempt >= config_.busy_retry_limit) {
      // Retry budget exhausted: leave the page where it is rather than
      // spin on a pinned page (the next pass may still move it).
      ++stats_.give_ups;
      if (gave_up != nullptr) {
        *gave_up = true;
      }
      *migrated = false;
      return cost;
    }
    // Back off before retrying; the wait is master-thread time and
    // doubles per attempt, so a persistently pinned page costs
    // O(limit) bounded time, never a livelock.
    ++stats_.busy_retries;
    cost += backoff;
    backoff *= 2;
  }
}

std::size_t Upmlib::migrate_memory() {
  trace({UpmCall::Kind::kMigrateMemory, {}, active_});
  const Ns at = sync_clock();
  if (!active_) {
    emit_call(UpmCall::Kind::kMigrateMemory, at, 0, 0);
    return 0;
  }
  ++invocation_;

  Ns replication_cost = 0;
  std::vector<Candidate> candidates;
  for (VPage page : hot_pages_) {
    if (!mmci_->is_mapped(page)) {
      continue;
    }
    if (config_.enable_replication && try_replicate(page,
                                                    &replication_cost)) {
      continue;  // replicated pages are not migration candidates
    }
    const NodeId home = mmci_->home_of(page);
    if (auto cand =
            evaluate(page, home, mmci_->read_counters(page),
                     config_.threshold)) {
      candidates.push_back(*cand);
    }
  }
  stats_.replication_cost += replication_cost;
  runtime_->advance(replication_cost);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.ratio != b.ratio ? a.ratio > b.ratio
                                        : a.page < b.page;
            });

  std::size_t migrations = 0;
  std::size_t deferred = 0;
  Ns cost = 0;
  for (const Candidate& cand : candidates) {
    PageHistory& hist = history_[cand.page];
    if (hist.frozen) {
      continue;
    }
    if (config_.hysteresis_passes > 1) {
      // Hysteresis against corrupted counter reads: one qualifying
      // pass is not enough evidence to move a page; it must qualify in
      // consecutive passes. (Guarded so the default configuration
      // keeps streaks_ empty and its digest iteration-independent.)
      QualifyStreak& streak = streaks_[cand.page];
      streak.count =
          streak.last_invocation + 1 == invocation_ ? streak.count + 1 : 1;
      streak.last_invocation = invocation_;
      if (streak.count < config_.hysteresis_passes) {
        ++deferred;
        ++stats_.hysteresis_deferrals;
        continue;
      }
    }
    if (config_.freeze_bouncing_pages && hist.has_prior &&
        hist.prior_home == cand.target &&
        hist.last_invocation + 1 == invocation_) {
      // The page wants to go back where it came from one invocation
      // ago: page-level false sharing. Freeze it in place.
      hist.frozen = true;
      ++stats_.frozen_pages;
      if (sink_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::EventKind::kPageFreeze;
        ev.time = at;
        ev.page = cand.page.value();
        ev.node =
            static_cast<std::int32_t>(mmci_->home_of(cand.page).value());
        ev.src = static_cast<std::int32_t>(cand.target.value());
        sink_->emit(sink_lane_, ev);
      }
      continue;
    }
    const NodeId old_home = mmci_->home_of(cand.page);
    bool migrated = false;
    bool gave_up = false;
    cost += do_migrate(cand.page, cand.target, &migrated, &gave_up);
    if (gave_up) {
      // Exhausted the retry budget on a pinned page. Treat repeated
      // give-ups like ping-ponging: the page is not worth fighting for.
      if (++hist.give_ups >= config_.give_up_freeze_limit &&
          !hist.frozen) {
        hist.frozen = true;
        ++stats_.frozen_pages;
        if (sink_ != nullptr) {
          trace::TraceEvent ev;
          ev.kind = trace::EventKind::kPageFreeze;
          ev.time = at;
          ev.page = cand.page.value();
          ev.node =
              static_cast<std::int32_t>(mmci_->home_of(cand.page).value());
          ev.a = 1;  // frozen by give-up, not by bounce
          sink_->emit(sink_lane_, ev);
        }
      }
      if (!hist.frozen) {
        ++deferred;  // still wants to move; keep the engine alive
      }
      continue;
    }
    if (migrated) {
      hist.prior_home = old_home;
      hist.has_prior = true;
      hist.last_invocation = invocation_;
      ++migrations;
      for (std::size_t i = 0; i < hot_ranges_.size(); ++i) {
        if (hot_ranges_[i].contains(cand.page)) {
          ++stats_.migrations_per_range[i];
          break;
        }
      }
    }
  }

  // Counters are reset after every pass so the next invocation sees a
  // clean per-iteration reference trace (and dirty bits restart, so a
  // page must stay clean for a whole iteration to replicate).
  reset_hot_counters();

  stats_.migrations_per_invocation.push_back(migrations);
  stats_.distribution_migrations += migrations;
  stats_.distribution_cost += cost;
  runtime_->advance(cost);
  emit_call(UpmCall::Kind::kMigrateMemory, at, migrations,
            replication_cost + cost);

  if (migrations == 0 && deferred == 0) {
    // A pass with deferred candidates (hysteresis or give-up) must not
    // deactivate the engine: those pages still want to move and the
    // next pass may complete them.
    active_ = false;
  }
  REPRO_LOG_INFO("upmlib migrate_memory: invocation ", invocation_, ", ",
                 migrations, " migrations, cost ", cost, " ns");
  return migrations;
}

void Upmlib::notify_thread_rebinding() {
  trace({UpmCall::Kind::kNotifyRebinding, {}, true});
  emit_call(UpmCall::Kind::kNotifyRebinding, sync_clock(), 0, 0);
  active_ = true;
  history_.clear();
  streaks_.clear();
  stats_.frozen_pages = 0;
  // Stale per-phase plans would replay migrations toward the wrong
  // processors; drop them (the program must re-record).
  snapshots_.clear();
  replay_lists_.clear();
  undo_log_.clear();
  replay_cursor_ = 0;
  reset_hot_counters();
}

void Upmlib::record() {
  trace({UpmCall::Kind::kRecord, {}, true});
  emit_call(UpmCall::Kind::kRecord, sync_clock(), snapshots_.size() + 1, 0);
  std::vector<std::vector<std::uint32_t>> snap;
  snap.reserve(hot_pages_.size());
  for (VPage page : hot_pages_) {
    if (mmci_->is_mapped(page)) {
      const auto counts = mmci_->read_counters(page);
      snap.emplace_back(counts.begin(), counts.end());
    } else {
      snap.emplace_back(mmci_->num_nodes(), 0u);
    }
  }
  snapshots_.push_back(std::move(snap));
}

void Upmlib::compare_counters() {
  trace({UpmCall::Kind::kCompareCounters, {}, true});
  REPRO_REQUIRE_MSG(snapshots_.size() >= 2,
                    "compare_counters needs at least two record() calls");
  replay_lists_.clear();
  replay_lists_.resize(snapshots_.size() - 1);
  std::vector<std::uint32_t> diff(mmci_->num_nodes(), 0u);

  for (std::size_t j = 1; j < snapshots_.size(); ++j) {
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < hot_pages_.size(); ++i) {
      const VPage page = hot_pages_[i];
      if (!mmci_->is_mapped(page)) {
        continue;
      }
      const auto& before = snapshots_[j - 1][i];
      const auto& after = snapshots_[j][i];
      for (std::size_t n = 0; n < diff.size(); ++n) {
        // Saturated counters clamp the difference at zero.
        diff[n] = after[n] >= before[n] ? after[n] - before[n] : 0u;
      }
      const NodeId home = mmci_->home_of(page);
      if (auto cand = evaluate(page, home, diff, config_.threshold)) {
        candidates.push_back(*cand);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.ratio != b.ratio ? a.ratio > b.ratio
                                          : a.page < b.page;
              });
    if (config_.max_critical_pages > 0 &&
        candidates.size() > config_.max_critical_pages) {
      candidates.resize(config_.max_critical_pages);
    }
    auto& list = replay_lists_[j - 1];
    list.reserve(candidates.size());
    for (const Candidate& cand : candidates) {
      list.push_back(PlannedMigration{cand.page, cand.target, cand.ratio});
    }
  }
  REPRO_LOG_INFO("upmlib compare_counters: ", replay_lists_.size(),
                 " transition(s) planned");
  emit_call(UpmCall::Kind::kCompareCounters, sync_clock(),
            replay_lists_.size(), 0);
}

const std::vector<Upmlib::PlannedMigration>& Upmlib::replay_list(
    std::size_t transition) const {
  REPRO_REQUIRE(transition < replay_lists_.size());
  return replay_lists_[transition];
}

std::uint64_t Upmlib::digest() const {
  StateHash hash;
  hash.mix(active_ ? 1 : 0);
  hash.mix(invocation_);
  hash.mix(hot_pages_.size());
  hash.mix(mlds_.size());
  hash.mix(snapshots_.size());
  // history_ is an unordered map: avalanche each entry, combine
  // commutatively.
  std::uint64_t history = history_.size();
  for (const auto& [page, h] : history_) {
    StateHash entry_hash(avalanche64(page.value()));
    entry_hash.mix(h.last_invocation);
    entry_hash.mix(h.has_prior ? h.prior_home.value() + 1 : 0);
    entry_hash.mix(h.give_ups);
    entry_hash.mix(h.frozen ? 1 : 0);
    history += avalanche64(entry_hash.value());
  }
  hash.mix(history);
  // streaks_ is empty unless hysteresis is on (see migrate_memory).
  std::uint64_t streaks = streaks_.size();
  for (const auto& [page, s] : streaks_) {
    StateHash entry_hash(avalanche64(page.value()));
    entry_hash.mix(s.last_invocation);
    entry_hash.mix(s.count);
    streaks += avalanche64(entry_hash.value());
  }
  hash.mix(streaks);
  hash.mix(replay_lists_.size());
  for (const auto& list : replay_lists_) {
    hash.mix(list.size());
    for (const PlannedMigration& m : list) {
      hash.mix(m.page.value());
      hash.mix(m.target.value());
      hash.mix_double(m.ratio);
    }
  }
  hash.mix(replay_cursor_);
  hash.mix(undo_log_.size());
  for (const auto& [page, home] : undo_log_) {
    hash.mix(page.value());
    hash.mix(home.value());
  }
  return hash.value();
}

void Upmlib::replay() {
  trace({UpmCall::Kind::kReplay, {}, true});
  const Ns at = sync_clock();
  if (replay_lists_.empty()) {
    emit_call(UpmCall::Kind::kReplay, at, 0, 0);
    return;
  }
  const auto& list = replay_lists_[replay_cursor_];
  replay_cursor_ = (replay_cursor_ + 1) % replay_lists_.size();

  Ns cost = 0;
  std::size_t migrations = 0;
  for (const PlannedMigration& pm : list) {
    const NodeId home = mmci_->home_of(pm.page);
    if (home == pm.target) {
      continue;
    }
    const bool already_logged =
        std::any_of(undo_log_.begin(), undo_log_.end(),
                    [&](const auto& e) { return e.first == pm.page; });
    bool migrated = false;
    cost += do_migrate(pm.page, pm.target, &migrated);
    if (migrated) {
      if (!already_logged) {
        undo_log_.emplace_back(pm.page, home);
      }
      ++migrations;
    }
  }
  stats_.replay_migrations += migrations;
  stats_.recrep_cost += cost;
  runtime_->advance(cost);
  emit_call(UpmCall::Kind::kReplay, at, migrations, cost);
}

void Upmlib::undo() {
  trace({UpmCall::Kind::kUndo, {}, true});
  const Ns at = sync_clock();
  Ns cost = 0;
  std::size_t migrations = 0;
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    if (mmci_->home_of(it->first) == it->second) {
      continue;
    }
    bool migrated = false;
    cost += do_migrate(it->first, it->second, &migrated);
    if (migrated) {
      ++migrations;
    }
  }
  undo_log_.clear();
  replay_cursor_ = 0;
  stats_.undo_migrations += migrations;
  stats_.recrep_cost += cost;
  runtime_->advance(cost);
  emit_call(UpmCall::Kind::kUndo, at, migrations, cost);
}

}  // namespace repro::upm
