// Golden-trace regression suite.
//
// One tiny configuration per benchmark x placement x engine is run
// under tracing, and its canonical-trace digest plus its
// migrations-per-timed-iteration vector are compared against the
// checked-in goldens in tests/golden/trace_digests.txt. Any change to
// the simulated timeline -- placement, migration policy, cost model,
// event schema -- shows up as a digest mismatch here before it can
// silently shift the paper figures. The kernel migration daemon, which
// that matrix never installs, is pinned separately in
// tests/golden/daemon_trace_digests.txt, and the cells the fast-forward
// continues or replays while an engine acts every iteration (record--
// replay and the daemon) in tests/golden/ff_engine_digests.txt.
//
// Regenerate the goldens after an intentional change with:
//
//   REPRO_UPDATE_GOLDEN=1 ./build/tests/test_golden_trace
//
// and review the diff of both files like any other code change. A
// re-recorded golden also bumps harness::kModelVersion and re-pins
// ModelVersionPinsTheGoldenFiles below.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/env.hpp"
#include "repro/common/hash.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/trace/metrics.hpp"

namespace repro::harness {
namespace {

constexpr const char* kGoldenFile = GOLDEN_DIR "/trace_digests.txt";
constexpr const char* kDaemonGoldenFile =
    GOLDEN_DIR "/daemon_trace_digests.txt";
constexpr const char* kEngineGoldenFile =
    GOLDEN_DIR "/ff_engine_digests.txt";

/// The golden matrix: every benchmark under the paper's three main
/// placements, base vs UPMlib distribution. Small enough to run in
/// seconds, large enough that every emitting subsystem is covered.
std::vector<RunConfig> golden_configs() {
  std::vector<RunConfig> configs;
  for (const auto& benchmark : nas::workload_names()) {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const bool upmlib : {false, true}) {
        RunConfig config;
        config.benchmark = benchmark;
        config.placement = placement;
        config.iterations = 3;
        config.workload.size_scale = 0.25;
        config.trace = true;
        if (upmlib) {
          config.upm_mode = nas::UpmMode::kDistribution;
        }
        configs.push_back(std::move(config));
      }
    }
  }
  return configs;
}

/// The kernel-daemon cells: the two placements the daemon has to
/// repair, on a benchmark with few daemon migrations (CG) and one with
/// many (MG). Every cell takes comparator interrupts, migrates and
/// ages its counter windows.
std::vector<RunConfig> daemon_configs() {
  std::vector<RunConfig> configs;
  for (const std::string benchmark : {"CG", "MG"}) {
    for (const std::string placement : {"rr", "wc"}) {
      RunConfig config;
      config.benchmark = benchmark;
      config.placement = placement;
      config.kernel_migration = true;
      config.iterations = 3;
      config.workload.size_scale = 0.25;
      config.trace = true;
      configs.push_back(std::move(config));
    }
  }
  return configs;
}

/// Cells long enough for the fast-forward to act on a migration engine
/// that runs in every iteration: record--replay on both ADI codes, and
/// the kernel daemon under first-touch, where it settles early.
std::vector<RunConfig> engine_configs() {
  std::vector<RunConfig> configs;
  for (const std::string benchmark : {"BT", "SP"}) {
    for (const std::string placement : {"ft", "rr"}) {
      RunConfig config;
      config.benchmark = benchmark;
      config.placement = placement;
      config.upm_mode = nas::UpmMode::kRecordReplay;
      configs.push_back(std::move(config));
    }
  }
  for (const std::string benchmark : {"CG", "BT", "SP"}) {
    RunConfig config;
    config.benchmark = benchmark;
    config.placement = "ft";
    config.kernel_migration = true;
    configs.push_back(std::move(config));
  }
  for (RunConfig& config : configs) {
    config.iterations = 16;
    config.workload.size_scale = 0.25;
    config.trace = true;
  }
  return configs;
}

std::string key_of(const RunResult& result) {
  return result.benchmark + " " + result.label;
}

std::vector<std::uint64_t> migration_vector(const RunResult& result) {
  std::vector<std::uint64_t> out;
  for (const trace::IterationMetrics& m : result.iteration_metrics) {
    if (m.iteration >= 1) {
      out.push_back(m.migrations);
    }
  }
  return out;
}

std::string render_vector(const std::vector<std::uint64_t>& v) {
  if (v.empty()) {
    return "-";
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ",") << v[i];
  }
  return os.str();
}

struct GoldenEntry {
  std::string digest;
  std::string migrations;  // rendered vector
};

std::map<std::string, GoldenEntry> load_goldens(const char* path) {
  std::map<std::string, GoldenEntry> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string benchmark;
    std::string label;
    GoldenEntry entry;
    fields >> benchmark >> label >> entry.digest >> entry.migrations;
    goldens[benchmark + " " + label] = entry;
  }
  return goldens;
}

void write_goldens(const char* path, const char* header,
                   const std::vector<RunResult>& results) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << header;
  for (const RunResult& r : results) {
    out << key_of(r) << ' ' << r.trace_digest << ' '
        << render_vector(migration_vector(r)) << '\n';
  }
  std::cout << "[  UPDATED ] " << path << " (" << results.size()
            << " entries)\n";
}

/// Compares `results` row by row against the golden file at `path`,
/// which must hold exactly one entry per result.
void expect_goldens(const char* path, const std::vector<RunResult>& results) {
  const std::map<std::string, GoldenEntry> goldens = load_goldens(path);
  ASSERT_FALSE(goldens.empty())
      << "no goldens at " << path
      << "; generate them with REPRO_UPDATE_GOLDEN=1";
  ASSERT_EQ(goldens.size(), results.size())
      << "golden file entry count does not match the config matrix; "
         "regenerate with REPRO_UPDATE_GOLDEN=1";
  for (const RunResult& r : results) {
    const auto it = goldens.find(key_of(r));
    ASSERT_NE(it, goldens.end()) << "no golden entry for " << key_of(r);
    EXPECT_EQ(r.trace_digest, it->second.digest)
        << key_of(r)
        << ": canonical trace changed; if intentional, regenerate with "
           "REPRO_UPDATE_GOLDEN=1 and review the diff";
    EXPECT_EQ(render_vector(migration_vector(r)), it->second.migrations)
        << key_of(r) << ": per-iteration migration counts changed";
  }
}

// One TEST on purpose: the 30-cell matrix runs twice (jobs=4 and
// jobs=1) and every assertion below reuses those results.
TEST(GoldenTrace, DigestsStableAcrossJobsAndMatchCheckedInGoldens) {
  const std::vector<RunConfig> configs = golden_configs();
  const std::vector<RunResult> parallel = run_experiments(configs, 4);
  const std::vector<RunResult> serial = run_experiments(configs, 1);
  ASSERT_EQ(parallel.size(), configs.size());
  ASSERT_EQ(serial.size(), configs.size());

  // Acceptance gate: the digest of every golden cell is byte-identical
  // between --jobs=1 and --jobs=4.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_EQ(serial[i].trace_digest.size(), 16u) << key_of(serial[i]);
    EXPECT_EQ(parallel[i].trace_digest, serial[i].trace_digest)
        << key_of(serial[i]) << ": digest depends on the job count";
    EXPECT_EQ(migration_vector(parallel[i]), migration_vector(serial[i]))
        << key_of(serial[i]);
  }

  // Paper Table 2: with the UPMlib distribution engine, the bulk of
  // the migrations (78-100% in the paper) happen in the first outer
  // iteration; later iterations run on an already-tuned placement.
  for (const RunResult& r : serial) {
    if (r.label.find("upmlib") == std::string::npos) {
      continue;
    }
    const std::vector<std::uint64_t> migrations = migration_vector(r);
    ASSERT_FALSE(migrations.empty()) << key_of(r);
    std::uint64_t total = 0;
    for (const std::uint64_t m : migrations) {
      total += m;
    }
    if (total == 0) {
      continue;  // placement already optimal for this cell
    }
    const double first_fraction =
        static_cast<double>(migrations.front()) /
        static_cast<double>(total);
    EXPECT_GE(first_fraction, 0.75)
        << key_of(r) << ": migrations " << render_vector(migrations);
  }

  if (Env::global().get_bool("REPRO_UPDATE_GOLDEN", false)) {
    write_goldens(kGoldenFile,
                  "# Golden canonical-trace digests (FNV-1a 64 of the "
                  "canonical dump)\n"
                  "# for the tiny regression matrix: every benchmark x "
                  "{ft, rr, wc}\n"
                  "# x {base, upmlib}, iterations=3, size_scale=0.25.\n"
                  "#\n"
                  "# Regenerate: REPRO_UPDATE_GOLDEN=1 "
                  "./build/tests/test_golden_trace\n"
                  "#\n"
                  "# benchmark label digest "
                  "migrations_per_timed_iteration\n",
                  serial);
    return;
  }
  expect_goldens(kGoldenFile, serial);
}

// The kernel daemon's miss path: counter reads and resets by frame,
// window aging, comparator interrupts and the handler's migrations.
TEST(GoldenTrace, DaemonCellsMatchCheckedInGoldens) {
  const std::vector<RunConfig> configs = daemon_configs();
  const std::vector<RunResult> results = run_experiments(configs, 2);
  ASSERT_EQ(results.size(), configs.size());
  for (const RunResult& r : results) {
    ASSERT_EQ(r.trace_digest.size(), 16u) << key_of(r);
    EXPECT_GT(r.daemon_stats.interrupts, 0u) << key_of(r);
    EXPECT_GT(r.daemon_stats.migrations, 0u) << key_of(r);
    EXPECT_GT(r.daemon_stats.window_resets, 0u) << key_of(r);
  }

  if (Env::global().get_bool("REPRO_UPDATE_GOLDEN", false)) {
    write_goldens(kDaemonGoldenFile,
                  "# Golden canonical-trace digests (FNV-1a 64 of the "
                  "canonical dump)\n"
                  "# for the kernel-daemon cells: {CG, MG} x {rr, wc} "
                  "x IRIXmig,\n"
                  "# iterations=3, size_scale=0.25.\n"
                  "#\n"
                  "# Regenerate: REPRO_UPDATE_GOLDEN=1 "
                  "./build/tests/test_golden_trace\n"
                  "#\n"
                  "# benchmark label digest "
                  "migrations_per_timed_iteration\n",
                  results);
    return;
  }
  expect_goldens(kDaemonGoldenFile, results);
}

// Record--replay and daemon cells at 16 iterations: the digests were
// recorded with every iteration simulated, so any fast-forward of these
// cells must reproduce them byte for byte.
TEST(GoldenTrace, EngineCellsMatchCheckedInGoldens) {
  const std::vector<RunConfig> configs = engine_configs();
  const std::vector<RunResult> results = run_experiments(configs, 2);
  ASSERT_EQ(results.size(), configs.size());
  for (const RunResult& r : results) {
    ASSERT_EQ(r.trace_digest.size(), 16u) << key_of(r);
  }

  if (Env::global().get_bool("REPRO_UPDATE_GOLDEN", false)) {
    write_goldens(kEngineGoldenFile,
                  "# Golden canonical-trace digests (FNV-1a 64 of the "
                  "canonical dump)\n"
                  "# for the engine cells: {BT, SP} x {ft, rr}-recrep and "
                  "{CG, BT, SP} ft-IRIXmig,\n"
                  "# iterations=16, size_scale=0.25.\n"
                  "#\n"
                  "# Regenerate: REPRO_UPDATE_GOLDEN=1 "
                  "./build/tests/test_golden_trace\n"
                  "#\n"
                  "# benchmark label digest "
                  "migrations_per_timed_iteration\n",
                  results);
    return;
  }
  expect_goldens(kEngineGoldenFile, results);
}

/// The model version the golden files were recorded under, and their
/// hash: FNV-1a over each tests/golden/*.txt file's name, size and
/// bytes, in name order.
constexpr std::uint64_t kPinnedModelVersion = 1;
constexpr std::uint64_t kPinnedGoldens = 0x6ec67a19c6a171c3;

// Cached results are keyed by kModelVersion, so a golden re-recorded
// without a bump would let results of the old model resume under the
// new one. REPRO_UPDATE_GOLDEN does not re-pin this on purpose.
TEST(GoldenTrace, ModelVersionPinsTheGoldenFiles) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(GOLDEN_DIR)) {
    if (entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  std::uint64_t hash = kFnvOffset;
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    hash = fnv1a(path.filename().string() + "\n" +
                     std::to_string(bytes.str().size()) + "\n",
                 hash);
    hash = fnv1a(bytes.str(), hash);
  }
  EXPECT_EQ(kModelVersion, kPinnedModelVersion)
      << "harness::kModelVersion moved: re-pin kPinnedModelVersion and "
         "kPinnedGoldens";
  EXPECT_EQ(hash, kPinnedGoldens)
      << "tests/golden/*.txt changed (hash 0x" << std::hex << hash
      << "): bump harness::kModelVersion and re-pin";
}

}  // namespace
}  // namespace repro::harness
