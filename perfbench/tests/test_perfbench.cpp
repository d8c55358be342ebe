// Unit tests of the benchmark's own code: the percentile rule, the
// result digest, the metric printer and the workload inputs.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.hpp"
#include "digest.hpp"
#include "metrics.hpp"
#include "repro/harness/run.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // unsorted on purpose
  }
  return v;
}

TEST(Percentile, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  const Percentile p = tail_percentile(one_to(1000), 99.0);
  EXPECT_TRUE(p.enough_beyond);
  EXPECT_EQ(p.percentile, 99.0);
  EXPECT_EQ(p.value, 990.0);  // nearest rank
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.describe(), "p99 of 1000 samples");
}

TEST(Percentile, FallsBackToTheHighestPercentileWithTenBeyond) {
  // 999 samples leave 9 beyond p99, 19 beyond p98.
  const Percentile p = tail_percentile(one_to(999), 99.0);
  EXPECT_TRUE(p.enough_beyond);
  EXPECT_EQ(p.percentile, 98.0);
  EXPECT_EQ(p.value, 980.0);
  EXPECT_EQ(p.describe(), "p98 of 999 samples");

  const Percentile q = tail_percentile(one_to(100), 99.0);
  EXPECT_EQ(q.percentile, 90.0);
  EXPECT_EQ(q.describe(), "p90 of 100 samples");
}

TEST(Percentile, TooFewSamplesReportTheMedianAndSaySo) {
  const Percentile p = tail_percentile(one_to(15), 99.0);
  EXPECT_FALSE(p.enough_beyond);
  EXPECT_EQ(p.percentile, 50.0);
  EXPECT_EQ(p.value, 8.0);
  EXPECT_NE(p.describe().find("p50 of 15 samples"), std::string::npos);
  EXPECT_NE(p.describe().find("too few"), std::string::npos);
}

repro::harness::RunResult sample_result() {
  repro::harness::RunResult r;
  r.label = "ft-base";
  r.benchmark = "CG";
  r.total = 1000;
  r.iteration_times = {400, 600};
  r.upm_stats.migrations_per_invocation = {3, 0};
  return r;
}

TEST(Digest, EveryDigestedFieldChangesIt) {
  using Mutation = std::function<void(repro::harness::RunResult&)>;
  const std::vector<Mutation> mutations = {
      [](auto& r) { r.label = "rr-base"; },
      [](auto& r) { r.benchmark = "MG"; },
      [](auto& r) { r.total += 1; },
      [](auto& r) { r.iteration_times[1] += 1; },
      [](auto& r) { r.iteration_times.push_back(0); },
      [](auto& r) { r.memory_totals.hit_lines += 1; },
      [](auto& r) { r.memory_totals.local_miss_lines += 1; },
      [](auto& r) { r.memory_totals.remote_miss_lines += 1; },
      [](auto& r) { r.memory_totals.queue_wait += 1; },
      [](auto& r) { r.memory_totals.invalidations_sent += 1; },
      [](auto& r) { r.memory_totals.tlb_misses += 1; },
      [](auto& r) { r.kernel_stats.page_faults += 1; },
      [](auto& r) { r.kernel_stats.migrations += 1; },
      [](auto& r) { r.kernel_stats.rejected_migrations += 1; },
      [](auto& r) { r.kernel_stats.busy_migrations += 1; },
      [](auto& r) { r.kernel_stats.redirected_migrations += 1; },
      [](auto& r) { r.kernel_stats.migration_cost += 1; },
      [](auto& r) { r.kernel_stats.replications += 1; },
      [](auto& r) { r.kernel_stats.replica_collapses += 1; },
      [](auto& r) { r.daemon_stats.interrupts += 1; },
      [](auto& r) { r.daemon_stats.migrations += 1; },
      [](auto& r) { r.daemon_stats.window_resets += 1; },
      [](auto& r) { r.daemon_stats.suppressed_cooloff += 1; },
      [](auto& r) { r.daemon_stats.suppressed_frozen += 1; },
      [](auto& r) { r.daemon_stats.suppressed_global += 1; },
      [](auto& r) { r.daemon_stats.deferred_busy += 1; },
      [](auto& r) { r.daemon_stats.cost += 1; },
      [](auto& r) { r.upm_stats.distribution_migrations += 1; },
      [](auto& r) { r.upm_stats.replications += 1; },
      [](auto& r) { r.upm_stats.replication_cost += 1; },
      [](auto& r) { r.upm_stats.replay_migrations += 1; },
      [](auto& r) { r.upm_stats.undo_migrations += 1; },
      [](auto& r) { r.upm_stats.frozen_pages += 1; },
      [](auto& r) { r.upm_stats.busy_retries += 1; },
      [](auto& r) { r.upm_stats.give_ups += 1; },
      [](auto& r) { r.upm_stats.hysteresis_deferrals += 1; },
      [](auto& r) { r.upm_stats.distribution_cost += 1; },
      [](auto& r) { r.upm_stats.recrep_cost += 1; },
      [](auto& r) { r.upm_stats.migrations_per_invocation[1] += 1; },
      [](auto& r) { r.coherence_enabled = true; },
      [](auto& r) { r.coherence_totals.hit_lines += 1; },
      [](auto& r) { r.coherence_totals.cold_miss_lines += 1; },
      [](auto& r) { r.coherence_totals.capacity_miss_lines += 1; },
      [](auto& r) { r.coherence_totals.coherence_miss_lines += 1; },
      [](auto& r) { r.coherence_totals.upgrades += 1; },
      [](auto& r) { r.coherence_totals.invalidations_sent += 1; },
      [](auto& r) { r.coherence_totals.invalidations_received += 1; },
      [](auto& r) { r.coherence_totals.writebacks += 1; },
      [](auto& r) { r.coherence_totals.dirty_fetches += 1; },
  };
  const std::string base = result_digest(sample_result());
  EXPECT_EQ(base.size(), 16u);
  std::set<std::string> seen = {base};
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    repro::harness::RunResult r = sample_result();
    mutations[i](r);
    EXPECT_TRUE(seen.insert(result_digest(r)).second) << "mutation " << i;
  }
}

TEST(Digest, HostSideFieldsDoNotChangeIt) {
  repro::harness::RunResult r = sample_result();
  r.iterations_simulated = 7;
  r.iterations_replayed = 9;
  r.trace_digest = "0123456789abcdef";
  EXPECT_EQ(result_digest(r), result_digest(sample_result()));
}

TEST(Digest, StableAcrossRerunsAndEqualToTheTracedDriver) {
  repro::harness::RunConfig c;
  c.benchmark = "CG";
  c.placement = "rr";
  c.upm_mode = repro::nas::UpmMode::kDistribution;
  c.iterations = 3;
  c.workload.size_scale = 0.25;
  const std::string first = result_digest(repro::harness::run_benchmark(c));
  EXPECT_EQ(result_digest(repro::harness::run_benchmark(c)), first);
  LayerSums sums;
  EXPECT_EQ(result_digest(drive_cell(c, sums).result), first);
  EXPECT_GE(sums.migrate_calls, 1u);
  EXPECT_EQ(sums.iterations_simulated, 3u);
}

TEST(DigestBook, SaveLoadRoundTrip) {
  DigestBook book;
  book.put("CG ft-base iterations=3", "00112233445566ff");
  const std::string path = ::testing::TempDir() + "perfbench_digests.txt";
  book.save(path);
  const DigestBook loaded = DigestBook::load(path);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.find("CG ft-base iterations=3"), "00112233445566ff");
  EXPECT_EQ(loaded.find("absent"), "");
}

/// name -> "unit better" of one BENCHMARK.json metric list.
std::map<std::string, std::string> json_metrics(const std::string& list) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::size_t begin = text.find("\"" + list + "\"");
  EXPECT_NE(begin, std::string::npos) << list;
  const std::size_t end = text.find(']', begin);
  const std::string section = text.substr(begin, end - begin);
  const std::regex entry(
      R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)",\s*"better":\s*"([^"]+)")re");
  std::map<std::string, std::string> out;
  for (std::sregex_iterator it(section.begin(), section.end(), entry), stop;
       it != stop; ++it) {
    EXPECT_TRUE(out.emplace((*it)[1], (*it)[2].str() + " " + (*it)[3].str())
                    .second)
        << (*it)[1];
  }
  return out;
}

std::map<std::string, std::string> defined(Scope scope) {
  std::map<std::string, std::string> out;
  for (const MetricDef& d : metric_defs()) {
    if (d.scope == scope) {
      out.emplace(std::string(d.name),
                  std::string(d.unit) +
                      (d.higher_is_better ? " higher" : " lower"));
    }
  }
  return out;
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Printer, BenchmarkJsonNamesEveryMetricWithItsUnitAndDirection) {
  EXPECT_EQ(json_metrics("end_to_end"), defined(Scope::kEndToEnd));
  EXPECT_EQ(json_metrics("per_layer"), defined(Scope::kLayer));
}

TEST(Printer, PrintsEveryMetricOnceWithItsUnit) {
  for (const Scope scope : {Scope::kEndToEnd, Scope::kLayer}) {
    Outcome outcome;
    outcome.attempted = 3;
    for (const MetricDef& d : metric_defs()) {
      outcome.values[std::string(d.name)] = 1.5;
    }
    std::ostringstream os;
    print_outcome(os, outcome, scope);
    const std::string text = os.str();
    const std::string json = text.substr(text.rfind('{', text.find("\"metrics\"")));
    EXPECT_EQ(json.find("{\"correct\": true, \"attempted\": 3, \"failed\": 0"),
              0u);
    for (const MetricDef& d : metric_defs()) {
      const std::string name(d.name);
      const std::string unit(d.unit);
      EXPECT_EQ(count(text, "  " + name + " = 1.5 " + unit + "\n"), 1u)
          << name;
      EXPECT_EQ(count(json, "\"" + name + "\": {\"value\": 1.5, \"unit\": \"" +
                                unit + "\"}"),
                d.scope == scope ? 1u : 0u)
          << name;
    }
  }
}

TEST(Printer, AMissingResultMetricIsAnError) {
  Outcome outcome;
  outcome.attempted = 1;
  outcome.values["wall_s"] = 1.0;
  std::ostringstream os;
  EXPECT_THROW(print_outcome(os, outcome, Scope::kEndToEnd),
               std::runtime_error);
}

TEST(Cells, TheSeedDrivesTheServiceTrafficDeterministically) {
  EXPECT_EQ(service_loop(7, 0).size(), kLoopRequests);
  const auto key = [](const std::vector<Request>& loop) {
    std::ostringstream os;
    for (const Request& r : loop) {
      os << r.grid << ':' << r.fresh_shape << ':' << r.fresh_seed << ' ';
    }
    return os.str();
  };
  EXPECT_EQ(key(service_loop(7, 1)), key(service_loop(7, 1)));
  EXPECT_NE(key(service_loop(7, 1)), key(service_loop(8, 1)));
  EXPECT_NE(key(service_loop(7, 1)), key(service_loop(7, 2)));
  // Every pass asks for kFreshPerShape fresh cells of each shape, each
  // with a new identity.
  std::set<std::uint64_t> identities;
  for (const CellSpec& s : service_grid(7)) {
    identities.insert(s.identity());
  }
  std::map<std::size_t, std::size_t> per_shape;
  for (const Request& r : service_loop(7, 1)) {
    if (r.grid < 0) {
      EXPECT_TRUE(identities.insert(r.fresh().identity()).second);
      ++per_shape[r.fresh_shape];
    }
  }
  EXPECT_EQ(per_shape.size(), kFreshShapes);
  for (const auto& [shape, n] : per_shape) {
    EXPECT_EQ(n, kFreshPerShape) << "shape " << shape;
  }
}

TEST(Cells, FreshCellsAreTheGridsRandCellsUnderNewSeeds) {
  std::vector<CellSpec> rand_cells;
  for (const CellSpec& s : service_grid(7)) {
    if (s.placement == "rand") {
      rand_cells.push_back(s);
    }
  }
  ASSERT_EQ(rand_cells.size(), kFreshShapes);
  for (std::size_t shape = 0; shape < kFreshShapes; ++shape) {
    CellSpec fresh = fresh_cell(shape, 1);
    EXPECT_NE(fresh.identity(), rand_cells[shape].identity());
    fresh.seed = rand_cells[shape].seed;
    EXPECT_EQ(fresh.identity(), rand_cells[shape].identity()) << shape;
  }
}

TEST(Cells, EverySeedOnlyAsksForRecordedCells) {
  std::set<std::string> recorded;
  for (const RunConfig& c : recorded_cells()) {
    recorded.insert(cell_key(c));
  }
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const RunConfig& c : paper_daemon_cells(seed)) {
      EXPECT_EQ(recorded.count(cell_key(c)), 1u) << cell_key(c);
    }
    for (const CellSpec& s : service_grid(seed)) {
      EXPECT_EQ(recorded.count(cell_key(s.to_config())), 1u);
    }
    for (const Request& r : service_loop(seed, 0)) {
      if (r.grid < 0) {
        EXPECT_EQ(recorded.count(cell_key(r.fresh().to_config())), 1u);
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
