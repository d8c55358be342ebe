// Fault-injection subsystem tests: determinism of the draw streams,
// schedule gating, per-class semantics, graceful degradation of the
// migration engines, and the harness resilience layer (watchdog,
// failure aggregation, checkpoint/resume, atomic writes).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/fault/injector.hpp"
#include "repro/fault/plan.hpp"
#include "repro/harness/atomic_file.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/result_cache.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/trace/sink.hpp"

namespace repro::harness {
namespace {

using fault::FaultClass;
using fault::FaultInjector;
using fault::FaultPlan;

std::string temp_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("repro_fault_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

RunConfig small_config(const std::string& placement, bool upmlib) {
  RunConfig config;
  config.benchmark = "CG";
  config.placement = placement;
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  if (upmlib) {
    config.upm_mode = nas::UpmMode::kDistribution;
  }
  return config;
}

FaultPlan uniform_plan(double rate, std::uint64_t seed = 99) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set_rate(rate);
  return plan;
}

// --- plan ------------------------------------------------------------------

TEST(FaultPlan, DefaultIsEmptyAndValid) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.max_rate(), 0.0);
  plan.validate();
}

TEST(FaultPlan, SetRateMakesPlanNonEmpty) {
  FaultPlan plan = uniform_plan(0.25);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.max_rate(), 0.25);
  plan.validate();
}

TEST(FaultPlan, ValidateRejectsBadValues) {
  FaultPlan plan;
  plan.counter_rate = 1.5;
  EXPECT_THROW(plan.validate(), ContractViolation);
  plan = FaultPlan{};
  plan.busy_pin_attempts = 0;
  EXPECT_THROW(plan.validate(), ContractViolation);
  plan = FaultPlan{};
  plan.counter_scale_percent = 101;
  EXPECT_THROW(plan.validate(), ContractViolation);
  plan = FaultPlan{};
  plan.active_from_iteration = 5;
  plan.active_until_iteration = 4;
  EXPECT_THROW(plan.validate(), ContractViolation);
}

TEST(FaultPlan, FromEnvReadsSeedAndRates) {
  ScopedEnv seed("REPRO_FAULT_SEED", "42");
  ScopedEnv rate("REPRO_FAULT_RATE", "0.125");
  ScopedEnv busy("REPRO_FAULT_BUSY_RATE", "0.5");
  const FaultPlan plan = FaultPlan::from_env();
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.counter_rate, 0.125);
  EXPECT_EQ(plan.slowdown_rate, 0.125);
  EXPECT_EQ(plan.preemption_rate, 0.125);
  EXPECT_EQ(plan.migration_busy_rate, 0.5);  // per-class override wins
}

// --- injector draw streams -------------------------------------------------

TEST(FaultInjector, SameSeedSameConsultationsSameStream) {
  const FaultPlan plan = uniform_plan(0.3);
  FaultInjector a(plan);
  FaultInjector b(plan);
  a.set_iteration(1);
  b.set_iteration(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.migration_busy(VPage(7)), b.migration_busy(VPage(7)));
    const auto ma = a.on_miss(NodeId(3), 16, 1000);
    const auto mb = b.on_miss(NodeId(3), 16, 1000);
    EXPECT_EQ(ma.extra_ns, mb.extra_ns);
    const auto ra = a.on_region(16, 5000);
    const auto rb = b.on_region(16, 5000);
    EXPECT_EQ(ra.fired, rb.fired);
    EXPECT_EQ(ra.thread, rb.thread);
  }
  EXPECT_EQ(a.stats().injected_total(), b.stats().injected_total());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_GT(a.stats().injected_total(), 0u);
}

TEST(FaultInjector, DifferentSeedsProduceDifferentStreams) {
  FaultInjector a(uniform_plan(0.5, 1));
  FaultInjector b(uniform_plan(0.5, 2));
  a.set_iteration(1);
  b.set_iteration(1);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.on_region(16, 0).fired != b.on_region(16, 0).fired;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, ScheduleGatesEveryClass) {
  FaultPlan plan = uniform_plan(1.0);
  plan.active_from_iteration = 2;
  plan.active_until_iteration = 3;
  FaultInjector inj(plan);
  for (const std::uint32_t iteration : {0u, 1u, 4u, 100u}) {
    inj.set_iteration(iteration);
    EXPECT_FALSE(inj.migration_busy(VPage(1))) << iteration;
    EXPECT_EQ(inj.on_miss(NodeId(0), 8, 0).extra_ns, 0u) << iteration;
    EXPECT_FALSE(inj.on_region(4, 0).fired) << iteration;
  }
  EXPECT_EQ(inj.stats().injected_total(), 0u);
  for (const std::uint32_t iteration : {2u, 3u}) {
    inj.set_iteration(iteration);
    EXPECT_TRUE(inj.migration_busy(VPage(100 + iteration))) << iteration;
    EXPECT_GT(inj.on_miss(NodeId(0), 8, 0).extra_ns, 0u) << iteration;
    EXPECT_TRUE(inj.on_region(4, 0).fired) << iteration;
  }
}

TEST(FaultInjector, CounterCorruptionScalesOrZeroes) {
  const std::vector<std::uint32_t> counts = {100, 7, 0, 33};
  FaultPlan plan;
  plan.counter_rate = 1.0;
  plan.counter_scale_percent = 0;  // zero them outright
  FaultInjector zero(plan);
  zero.set_iteration(1);
  const auto zeroed =
      zero.filter_counters(VPage(1), std::span<const std::uint32_t>(counts));
  ASSERT_EQ(zeroed.size(), counts.size());
  for (const std::uint32_t c : zeroed) {
    EXPECT_EQ(c, 0u);
  }
  plan.counter_scale_percent = 50;
  FaultInjector half(plan);
  half.set_iteration(1);
  const auto halved =
      half.filter_counters(VPage(1), std::span<const std::uint32_t>(counts));
  ASSERT_EQ(halved.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(halved[i], counts[i] / 2);
  }
  EXPECT_EQ(zero.stats().counter_corruptions, 1u);
}

TEST(FaultInjector, CounterReadsPassThroughAtRateZero) {
  const std::vector<std::uint32_t> counts = {9, 9, 9};
  FaultPlan plan;
  plan.migration_busy_rate = 1.0;  // non-empty plan, counter class off
  FaultInjector inj(plan);
  inj.set_iteration(1);
  const auto out =
      inj.filter_counters(VPage(1), std::span<const std::uint32_t>(counts));
  EXPECT_EQ(out.data(), counts.data());  // untouched, not copied
  EXPECT_EQ(inj.stats().counter_corruptions, 0u);
}

TEST(FaultInjector, BusyPinRejectsWithoutDrawingUntilDecayed) {
  FaultPlan plan;
  plan.migration_busy_rate = 1.0;
  plan.busy_pin_attempts = 3;
  FaultInjector inj(plan);
  trace::TraceSink sink;
  const std::uint16_t lane = sink.register_lane("fault");
  inj.set_trace(&sink, lane);
  inj.set_iteration(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(inj.migration_busy(VPage(5)));
  }
  // Call 1 draws and pins (b=0); calls 2-3 are rejected by the active
  // pin without a draw (b=1); the pin then decays and call 4 draws
  // afresh (b=0).
  const std::vector<trace::TraceEvent>& events = sink.lane_events(lane);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].b, 0u);
  EXPECT_EQ(events[1].b, 1u);
  EXPECT_EQ(events[2].b, 1u);
  EXPECT_EQ(events[3].b, 0u);
  EXPECT_EQ(inj.stats().busy_rejections, 4u);
}

TEST(FaultInjector, DigestAperiodicWhileActiveStableWhenExhausted) {
  FaultPlan plan = uniform_plan(0.5);
  plan.active_until_iteration = 3;
  FaultInjector inj(plan);
  inj.set_iteration(1);
  const std::uint64_t d1 = inj.digest();
  inj.set_iteration(2);
  const std::uint64_t d2 = inj.digest();
  EXPECT_NE(d1, d2);  // iteration mixed in while faults can fire
  inj.set_iteration(4);
  const std::uint64_t d4 = inj.digest();
  inj.set_iteration(5);
  EXPECT_EQ(d4, inj.digest());  // schedule exhausted: digest settles
}

// --- machine-level determinism --------------------------------------------

std::vector<RunConfig> faulted_matrix(double rate) {
  std::vector<RunConfig> configs;
  for (const std::string placement : {"ft", "rr", "wc"}) {
    for (const bool upmlib : {false, true}) {
      RunConfig config = small_config(placement, upmlib);
      config.trace = true;
      config.fault = uniform_plan(rate);
      if (rate > 0.0) {
        config.upm.hysteresis_passes = 2;
      }
      configs.push_back(std::move(config));
    }
  }
  return configs;
}

TEST(FaultDeterminism, FixedSeedByteIdenticalAcrossJobs) {
  const std::vector<RunConfig> configs = faulted_matrix(0.02);
  const std::vector<RunResult> serial = run_experiments(configs, 1);
  const std::vector<RunResult> parallel = run_experiments(configs, 4);
  EXPECT_EQ(results_to_json(serial), results_to_json(parallel));
  std::uint64_t injected = 0;
  for (const RunResult& r : serial) {
    injected += r.fault_stats.injected_total();
  }
  EXPECT_GT(injected, 0u) << "matrix injected nothing; rate too low";
}

TEST(FaultDeterminism, ZeroRatePlanIsByteIdenticalToNoPlan) {
  // An all-zero plan must not even attach an injector: the run is the
  // byte-identical no-fault-subsystem run, golden digests included.
  RunConfig plain = small_config("rr", /*upmlib=*/true);
  plain.trace = true;
  RunConfig zero = plain;
  zero.fault.seed = 0xdeadbeef;  // differs, but all rates are 0
  ASSERT_TRUE(zero.fault.empty());
  const RunResult a = run_benchmark(plain);
  const RunResult b = run_benchmark(zero);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(results_to_json({a}), results_to_json({b}));
}

TEST(FaultDeterminism, FaultsActuallyPerturbTheRun) {
  RunConfig plain = small_config("rr", /*upmlib=*/true);
  plain.trace = true;
  RunConfig faulted = plain;
  faulted.fault = uniform_plan(0.05);
  const RunResult a = run_benchmark(plain);
  const RunResult b = run_benchmark(faulted);
  EXPECT_GT(b.fault_stats.injected_total(), 0u);
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

TEST(FaultDeterminism, EnvOverridesReachTheHarness) {
  RunConfig config = small_config("rr", /*upmlib=*/false);
  config.trace = true;
  RunConfig explicit_plan = config;
  explicit_plan.fault = uniform_plan(0.05, FaultPlan{}.seed);
  const RunResult via_config = run_benchmark(explicit_plan);
  RunResult via_env;
  {
    ScopedEnv rate("REPRO_FAULT_RATE", "0.05");
    via_env = run_benchmark(config);  // config itself carries no plan
  }
  EXPECT_GT(via_env.fault_stats.injected_total(), 0u);
  EXPECT_EQ(via_env.trace_digest, via_config.trace_digest);
  // And the checkpoint identity follows the env, so a stale result
  // cannot be resumed into an env-overridden rerun.
  std::uint64_t env_identity = 0;
  {
    ScopedEnv rate("REPRO_FAULT_RATE", "0.05");
    env_identity = config_identity(config);
  }
  EXPECT_EQ(env_identity, config_identity(explicit_plan));
  EXPECT_NE(env_identity, config_identity(config));
}

// --- graceful degradation --------------------------------------------------

TEST(Degradation, UpmlibRetriesThenGivesUpWhenEveryMoveIsBusy) {
  RunConfig baseline = small_config("rr", /*upmlib=*/true);
  const RunResult before = run_benchmark(baseline);
  ASSERT_GT(before.upm_stats.distribution_migrations, 0u)
      << "config never migrates; the busy fault would be vacuous";

  RunConfig busy = baseline;
  busy.fault.migration_busy_rate = 1.0;
  busy.fault.busy_pin_attempts = 1;  // every attempt redraws, all BUSY
  const RunResult after = run_benchmark(busy);
  EXPECT_EQ(after.upm_stats.distribution_migrations, 0u);
  EXPECT_GT(after.upm_stats.busy_retries, 0u);
  EXPECT_GT(after.upm_stats.give_ups, 0u);
  EXPECT_GT(after.kernel_stats.busy_migrations, 0u);
  // Bounded: with every attempt BUSY, each request performs exactly
  // busy_retry_limit - 1 retries before giving up.
  EXPECT_EQ(after.upm_stats.busy_retries,
            after.upm_stats.give_ups * (busy.upm.busy_retry_limit - 1));
}

TEST(Degradation, DaemonDefersBusyMigrations) {
  RunConfig baseline = small_config("rr", /*upmlib=*/false);
  baseline.kernel_migration = true;
  const RunResult before = run_benchmark(baseline);
  if (before.daemon_stats.migrations == 0) {
    GTEST_SKIP() << "daemon never migrates in this configuration";
  }
  RunConfig busy = baseline;
  busy.fault.migration_busy_rate = 1.0;
  const RunResult after = run_benchmark(busy);
  EXPECT_EQ(after.daemon_stats.migrations, 0u);
  EXPECT_GT(after.daemon_stats.deferred_busy, 0u);
  EXPECT_EQ(after.daemon_stats.deferred_busy,
            after.kernel_stats.busy_migrations);
}

// --- watchdog / sweep resilience -------------------------------------------

RunConfig endless_config() {
  // Enough full simulated iterations that the 1 ms wall-clock budget is
  // guaranteed to be exceeded at some iteration boundary.
  RunConfig config = small_config("rr", /*upmlib=*/false);
  config.iterations = 5000;
  config.no_fast_forward = true;
  config.cell_timeout_ms = 1;
  return config;
}

TEST(Watchdog, CellTimeoutThrows) {
  EXPECT_THROW((void)run_benchmark(endless_config()), CellTimeoutError);
}

TEST(Watchdog, SweepReportsTimeoutWithoutAbortingOrRetrying) {
  std::vector<RunConfig> configs = {endless_config(),
                                    small_config("ft", false)};
  SweepOptions options;
  options.jobs = 2;
  const SweepOutcome outcome = run_sweep(configs, options);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 0u);
  EXPECT_TRUE(outcome.failures[0].timeout);
  EXPECT_EQ(outcome.stats.watchdog_fires, 1u);
  EXPECT_EQ(outcome.stats.cells_ok, 1u);
  EXPECT_EQ(outcome.results[1].label, configs[1].label());
}

TEST(Watchdog, SweepDefaultTimeoutAppliesToCellsWithoutOne) {
  RunConfig config = endless_config();
  config.cell_timeout_ms = 0;  // inherit the sweep default
  SweepOptions options;
  options.jobs = 1;
  options.cell_timeout_ms = 1;
  const SweepOutcome outcome = run_sweep({config}, options);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_TRUE(outcome.failures[0].timeout);
}

// --- checkpoint / resume ---------------------------------------------------

/// run_sweep with `dir` as its checkpoint directory.
SweepOutcome sweep_into(const std::string& dir,
                        const std::vector<RunConfig>& configs,
                        std::size_t jobs = 1) {
  SweepOptions options;
  options.jobs = jobs;
  options.checkpoint_dir = dir;
  return run_sweep(configs, options);
}

TEST(Checkpoint, RoundTripReproducesJsonRow) {
  const std::string dir = temp_dir("roundtrip");
  RunConfig config = small_config("rr", /*upmlib=*/true);
  config.trace = true;
  config.fault = uniform_plan(0.02);
  config.upm.hysteresis_passes = 2;
  const RunResult original = run_benchmark(config);
  ASSERT_TRUE(sweep_into(dir, {config}).ok());
  const SweepOutcome resumed = sweep_into(dir, {config});
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.stats.cells_resumed, 1u);
  EXPECT_EQ(results_to_json({original}), results_to_json(resumed.results));
}

TEST(Checkpoint, IdentityMismatchRefusesStaleResult) {
  const std::string dir = temp_dir("identity");
  const RunConfig config = small_config("ft", false);
  ASSERT_TRUE(sweep_into(dir, {config}).ok());
  const auto resumes = [&dir](const RunConfig& changed) {
    const SweepOutcome outcome = sweep_into(dir, {changed});
    EXPECT_TRUE(outcome.ok());
    return outcome.stats.cells_resumed == 1;
  };
  EXPECT_TRUE(resumes(config));

  RunConfig changed = config;
  changed.iterations = 4;
  EXPECT_FALSE(resumes(changed));
  changed = config;
  changed.fault = uniform_plan(0.5);
  EXPECT_FALSE(resumes(changed));
  changed = config;
  changed.upm.hysteresis_passes = 2;
  EXPECT_FALSE(resumes(changed));
  // Host-side supervision knobs do NOT change the identity.
  changed = config;
  changed.cell_timeout_ms = 12345;
  EXPECT_TRUE(resumes(changed));
}

TEST(Checkpoint, SweepResumesCompletedCells) {
  // Four cells on four workers: the workers insert into one cache
  // concurrently.
  const std::string dir = temp_dir("resume");
  std::vector<RunConfig> configs;
  for (const std::string placement : {"ft", "rr"}) {
    for (const bool upmlib : {false, true}) {
      RunConfig config = small_config(placement, upmlib);
      config.trace = true;
      configs.push_back(std::move(config));
    }
  }
  const SweepOutcome first = sweep_into(dir, configs, /*jobs=*/4);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.stats.cells_resumed, 0u);
  const SweepOutcome second = sweep_into(dir, configs, /*jobs=*/4);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.stats.cells_resumed, configs.size());
  EXPECT_EQ(results_to_json(first.results), results_to_json(second.results));
}

TEST(Checkpoint, SweepResumesTheCellsItSharesWithAnotherSweep) {
  // Every cell is keyed by its own identity, so two sweeps may share a
  // directory: sweep B resumes the one cell it shares with sweep A and
  // simulates the other.
  const std::string dir = temp_dir("sweep_share");
  ASSERT_TRUE(sweep_into(dir, {small_config("ft", false),
                               small_config("rr", false)})
                  .ok());
  const std::vector<RunConfig> sweep_b = {small_config("ft", false),
                                          small_config("wc", false)};
  const SweepOutcome outcome = sweep_into(dir, sweep_b);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.stats.cells_resumed, 1u);
  EXPECT_EQ(results_to_json(outcome.results),
            results_to_json(run_experiments(sweep_b, 1)));
}

/// `r` without the fast-forward provenance: the fields a cell computes.
std::string simulated_fields(RunResult r) {
  r.iterations_simulated = 0;
  r.iterations_replayed = 0;
  return encode_result(0, r);
}

TEST(Checkpoint, SweepTwinWithNoFastForwardSharesOneEntry) {
  // A cell and its no_fast_forward twin share an identity, but their
  // provenance bytes differ: only the first one finished is stored.
  RunConfig config = small_config("ft", false);
  config.iterations = 12;
  RunConfig twin = config;
  twin.no_fast_forward = true;
  ASSERT_EQ(config_identity(config), config_identity(twin));
  for (const std::size_t jobs : {1u, 2u}) {
    const std::string dir = temp_dir("twin_" + std::to_string(jobs));
    const SweepOutcome first = sweep_into(dir, {config, twin}, jobs);
    ASSERT_TRUE(first.ok()) << SweepError::format(first.failures);
    ASSERT_GT(first.results[0].iterations_replayed, 0u);
    EXPECT_EQ(first.results[1].iterations_replayed, 0u);
    EXPECT_EQ(simulated_fields(first.results[0]),
              simulated_fields(first.results[1]));
    const SweepOutcome again = sweep_into(dir, {config, twin}, jobs);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.stats.cells_resumed, 2u);
    EXPECT_EQ(simulated_fields(again.results[1]),
              simulated_fields(first.results[1]));
  }
}

TEST(Checkpoint, SweepResumesIntactCellsAfterATornJournal) {
  // A sweep killed while appending its second cell leaves a torn
  // journal tail: the rerun resumes the first cell, simulates the
  // second, and stores it where a later run finds it.
  const std::string dir = temp_dir("torn_journal");
  const std::vector<RunConfig> configs = {small_config("ft", false),
                                          small_config("rr", false)};
  const SweepOutcome first = sweep_into(dir, configs);
  ASSERT_TRUE(first.ok());
  const std::string journal = dir + "/journal.log";
  const std::uintmax_t second_entry_at =
      encode_journal_entry(config_identity(configs[0]),
                           encode_result(config_identity(configs[0]),
                                         first.results[0]))
          .size();
  const std::uintmax_t size = std::filesystem::file_size(journal);
  ASSERT_GT(size, second_entry_at);
  std::filesystem::resize_file(journal, (second_entry_at + size) / 2);

  const SweepOutcome rerun = sweep_into(dir, configs);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun.stats.cells_resumed, 1u);
  EXPECT_EQ(results_to_json(rerun.results), results_to_json(first.results));
  EXPECT_EQ(std::filesystem::file_size(journal), size);
  const SweepOutcome third = sweep_into(dir, configs);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.stats.cells_resumed, 2u);
}

TEST(FailureClasses, NamesAndExitCodesAreStable) {
  EXPECT_STREQ(failure_class_name(FailureClass::kFault), "fault");
  EXPECT_STREQ(failure_class_name(FailureClass::kTimeout), "timeout");
  EXPECT_STREQ(failure_class_name(FailureClass::kCrash), "crash");
  EXPECT_EQ(failure_exit_code(FailureClass::kFault), 3);
  EXPECT_EQ(failure_exit_code(FailureClass::kTimeout), 4);
  EXPECT_EQ(failure_exit_code(FailureClass::kCrash), 6);
}

TEST(FailureClasses, TimeoutFailureIsClassifiedAndNamedInExitCode) {
  SweepOptions options;
  options.jobs = 1;
  const SweepOutcome outcome = run_sweep({endless_config()}, options);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].cls, FailureClass::kTimeout);
  EXPECT_TRUE(outcome.failures[0].timeout);  // kept in sync
  EXPECT_EQ(outcome.exit_code(), failure_exit_code(FailureClass::kTimeout));
}

TEST(FailureClasses, ExitCodeReportsTheMostSevereClass) {
  SweepOutcome outcome;
  EXPECT_EQ(outcome.exit_code(), 0);
  CellFailure fault;
  fault.cls = FailureClass::kFault;
  CellFailure timeout;
  timeout.cls = FailureClass::kTimeout;
  outcome.failures = {fault, timeout};
  EXPECT_EQ(outcome.exit_code(), failure_exit_code(FailureClass::kTimeout));
}

TEST(Watchdog, EnvTimeoutIsStrictlyParsed) {
  Env::global().set("REPRO_CELL_TIMEOUT_MS", "250");
  EXPECT_EQ(effective_cell_timeout_ms(0), 250u);
  // An explicit request wins over the environment.
  EXPECT_EQ(effective_cell_timeout_ms(7), 7u);
  // Malformed or out-of-range values fail loudly -- a silently ignored
  // watchdog is worse than a crash.
  Env::global().set("REPRO_CELL_TIMEOUT_MS", "soon");
  EXPECT_THROW((void)effective_cell_timeout_ms(0), ContractViolation);
  Env::global().set("REPRO_CELL_TIMEOUT_MS", "-5");
  EXPECT_THROW((void)effective_cell_timeout_ms(0), ContractViolation);
  Env::global().unset("REPRO_CELL_TIMEOUT_MS");
  EXPECT_EQ(effective_cell_timeout_ms(0), 0u);
}

RunConfig coherence_cell(const std::string& policy) {
  RunConfig config = small_config("ft", false);
  config.coherence = policy;
  return config;
}

TEST(Checkpoint, CoherenceCellsResumeTheirOwnResults) {
  // A page-grain cell, its MSI twin and an MSI cell with another cache
  // geometry share one checkpoint directory: each must resume its own
  // result, coherence counters included.
  const std::string dir = temp_dir("coherence_resume");
  RunConfig wide = coherence_cell("msi");
  wide.coherence_config.sets = 128;
  const std::vector<RunConfig> configs = {coherence_cell(""),
                                          coherence_cell("msi"), wide};
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_dir = dir;
  const SweepOutcome first = run_sweep(configs, options);
  ASSERT_TRUE(first.ok());
  const SweepOutcome resumed = run_sweep(configs, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.stats.cells_resumed, configs.size());
  EXPECT_EQ(results_to_json(resumed.results), results_to_json(first.results));

  const RunResult& page_grain = resumed.results[0];
  const RunResult& msi = resumed.results[1];
  const RunResult& msi_wide = resumed.results[2];
  EXPECT_NE(msi.total, page_grain.total);
  EXPECT_NE(msi_wide.total, msi.total);
  EXPECT_FALSE(page_grain.coherence_enabled);
  EXPECT_TRUE(msi.coherence_enabled);
  EXPECT_EQ(page_grain.coherence_totals.miss_lines(), 0u);
  EXPECT_NE(msi.coherence_totals.miss_lines(), 0u);
}

/// One field of RunConfig (or of a struct it embeds) and a change to
/// it. Host-only fields must leave config_identity unchanged; every
/// other field must move it.
struct IdentityRow {
  const char* field;
  void (*perturb)(RunConfig&);
  bool host_only = false;
};

TEST(Checkpoint, IdentityCoversTheCoherenceModel) {
  // Every field of RunConfig, MachineConfig, DaemonConfig, UpmConfig,
  // WorkloadParams, CoherenceConfig and FaultPlan has a row: whoever
  // adds a field adds one here.
  const std::vector<IdentityRow> rows = {
      {"benchmark", [](RunConfig& c) { c.benchmark = "MG"; }},
      {"placement", [](RunConfig& c) { c.placement = "rr"; }},
      {"kernel_migration", [](RunConfig& c) { c.kernel_migration = true; }},
      {"upm_mode",
       [](RunConfig& c) { c.upm_mode = nas::UpmMode::kDistribution; }},
      {"iterations", [](RunConfig& c) { c.iterations = 4; }},
      {"compute_scale", [](RunConfig& c) { c.compute_scale = 2; }},
      {"seed", [](RunConfig& c) { c.seed += 1; }},
      {"analyze", [](RunConfig& c) { c.analyze = true; }},
      {"trace", [](RunConfig& c) { c.trace = true; }},
      {"replay", [](RunConfig& c) { c.replay = "missing.rtrc"; }},
      {"coherence", [](RunConfig& c) { c.coherence = "mesi"; }},
      // Host-only: supervision and side files, not results.
      {"trace_dir", [](RunConfig& c) { c.trace_dir = "traces"; }, true},
      {"no_fast_forward", [](RunConfig& c) { c.no_fast_forward = true; },
       true},
      {"cell_timeout_ms", [](RunConfig& c) { c.cell_timeout_ms = 1000; },
       true},
      {"trace_out", [](RunConfig& c) { c.trace_out = "cell.rtrc"; }, true},
      {"pipeline", [](RunConfig& c) { c.pipeline = true; }, true},

      {"coherence_config.policy",
       [](RunConfig& c) {
         c.coherence_config.policy = coherence::Policy::kMesi;
       }},
      {"coherence_config.line_size",
       [](RunConfig& c) { c.coherence_config.line_size = 64; }},
      {"coherence_config.sets",
       [](RunConfig& c) { c.coherence_config.sets = 128; }},
      {"coherence_config.ways",
       [](RunConfig& c) { c.coherence_config.ways = 4; }},
      {"coherence_config.upgrade_ns",
       [](RunConfig& c) { c.coherence_config.upgrade_ns += 1.0; }},
      {"coherence_config.intervention_ns",
       [](RunConfig& c) { c.coherence_config.intervention_ns += 1.0; }},

      {"machine.num_nodes", [](RunConfig& c) { c.machine.num_nodes = 8; }},
      {"machine.procs_per_node",
       [](RunConfig& c) { c.machine.procs_per_node = 2; }},
      {"machine.topology",
       [](RunConfig& c) { c.machine.topology = "ring"; }},
      {"machine.table_backend",
       [](RunConfig& c) {
         c.machine.table_backend = memsys::TableBackend::kSparse;
       },
       true},
      {"machine.page_size",
       [](RunConfig& c) { c.machine.page_size = 4 * kKiB; }},
      {"machine.cache_line", [](RunConfig& c) { c.machine.cache_line = 64; }},
      {"machine.l2_size", [](RunConfig& c) { c.machine.l2_size = 8 * kMiB; }},
      {"machine.frames_per_node",
       [](RunConfig& c) { c.machine.frames_per_node += 1; }},
      {"machine.l1_latency_ns",
       [](RunConfig& c) { c.machine.l1_latency_ns += 1.0; }},
      {"machine.l2_latency_ns",
       [](RunConfig& c) { c.machine.l2_latency_ns += 1.0; }},
      {"machine.mem_latency_ns",
       [](RunConfig& c) { c.machine.mem_latency_ns[1] += 1.0; }},
      {"machine.extra_hop_latency_ns",
       [](RunConfig& c) { c.machine.extra_hop_latency_ns += 1.0; }},
      {"machine.cache_hit_ns",
       [](RunConfig& c) { c.machine.cache_hit_ns += 1.0; }},
      {"machine.mem_occupancy_ns",
       [](RunConfig& c) { c.machine.mem_occupancy_ns += 1.0; }},
      {"machine.stream_hide_factor",
       [](RunConfig& c) { c.machine.stream_hide_factor += 1.0; }},
      {"machine.invalidation_ns",
       [](RunConfig& c) { c.machine.invalidation_ns += 1.0; }},
      {"machine.page_copy_ns",
       [](RunConfig& c) { c.machine.page_copy_ns += 1.0; }},
      {"machine.tlb_local_flush_ns",
       [](RunConfig& c) { c.machine.tlb_local_flush_ns += 1.0; }},
      {"machine.tlb_shootdown_ns",
       [](RunConfig& c) { c.machine.tlb_shootdown_ns += 1.0; }},
      {"machine.tlb_entries", [](RunConfig& c) { c.machine.tlb_entries = 64; }},
      {"machine.tlb_refill_ns",
       [](RunConfig& c) { c.machine.tlb_refill_ns += 1.0; }},
      {"machine.counter_bits",
       [](RunConfig& c) { c.machine.counter_bits = 12; }},

      {"daemon.threshold", [](RunConfig& c) { c.daemon.threshold += 1; }},
      {"daemon.window_ns", [](RunConfig& c) { c.daemon.window_ns += 1; }},
      {"daemon.page_cooloff_ns",
       [](RunConfig& c) { c.daemon.page_cooloff_ns += 1; }},
      {"daemon.max_migrations_per_page",
       [](RunConfig& c) { c.daemon.max_migrations_per_page += 1; }},
      {"daemon.global_min_interval_ns",
       [](RunConfig& c) { c.daemon.global_min_interval_ns += 1; }},

      {"upm.threshold", [](RunConfig& c) { c.upm.threshold += 0.5; }},
      {"upm.max_critical_pages",
       [](RunConfig& c) { c.upm.max_critical_pages = 10; }},
      {"upm.freeze_bouncing_pages",
       [](RunConfig& c) { c.upm.freeze_bouncing_pages = false; }},
      {"upm.enable_replication",
       [](RunConfig& c) { c.upm.enable_replication = true; }},
      {"upm.replication_min_nodes",
       [](RunConfig& c) { c.upm.replication_min_nodes += 1; }},
      {"upm.replication_min_count",
       [](RunConfig& c) { c.upm.replication_min_count += 1; }},
      {"upm.max_replicas", [](RunConfig& c) { c.upm.max_replicas += 1; }},
      {"upm.busy_retry_limit",
       [](RunConfig& c) { c.upm.busy_retry_limit += 1; }},
      {"upm.busy_backoff_ns",
       [](RunConfig& c) { c.upm.busy_backoff_ns += 1; }},
      {"upm.give_up_freeze_limit",
       [](RunConfig& c) { c.upm.give_up_freeze_limit += 1; }},
      {"upm.hysteresis_passes",
       [](RunConfig& c) { c.upm.hysteresis_passes += 1; }},

      {"workload.iterations", [](RunConfig& c) { c.workload.iterations = 5; }},
      {"workload.compute_scale",
       [](RunConfig& c) { c.workload.compute_scale = 3; }},
      {"workload.serial_init_fraction",
       [](RunConfig& c) { c.workload.serial_init_fraction = 0.5; }},
      {"workload.size_scale",
       [](RunConfig& c) { c.workload.size_scale = 0.5; }},

      {"fault.seed", [](RunConfig& c) { c.fault.seed += 1; }},
      {"fault.counter_rate", [](RunConfig& c) { c.fault.counter_rate = 0.1; }},
      {"fault.migration_busy_rate",
       [](RunConfig& c) { c.fault.migration_busy_rate = 0.1; }},
      {"fault.slowdown_rate",
       [](RunConfig& c) { c.fault.slowdown_rate = 0.1; }},
      {"fault.preemption_rate",
       [](RunConfig& c) { c.fault.preemption_rate = 0.1; }},
      {"fault.counter_scale_percent",
       [](RunConfig& c) { c.fault.counter_scale_percent = 50; }},
      {"fault.busy_pin_attempts",
       [](RunConfig& c) { c.fault.busy_pin_attempts += 1; }},
      {"fault.slowdown_ns", [](RunConfig& c) { c.fault.slowdown_ns += 1; }},
      {"fault.spike_lines", [](RunConfig& c) { c.fault.spike_lines += 1; }},
      {"fault.preemption_ns",
       [](RunConfig& c) { c.fault.preemption_ns += 1; }},
      {"fault.active_from_iteration",
       [](RunConfig& c) { c.fault.active_from_iteration = 2; }},
      {"fault.active_until_iteration",
       [](RunConfig& c) { c.fault.active_until_iteration = 5; }},
  };
  const RunConfig base = coherence_cell("msi");
  const std::uint64_t id = config_identity(base);
  for (const IdentityRow& row : rows) {
    RunConfig changed = base;
    row.perturb(changed);
    if (row.host_only) {
      EXPECT_EQ(config_identity(changed), id) << row.field;
    } else {
      EXPECT_NE(config_identity(changed), id) << row.field;
    }
  }
  EXPECT_NE(config_identity(coherence_cell("")), id);
}

TEST(Checkpoint, EncodeDecodeKeepsCoherenceCounters) {
  const RunConfig config = coherence_cell("mesi");
  const RunResult original = run_benchmark(config);
  ASSERT_TRUE(original.coherence_enabled);
  const std::uint64_t id = config_identity(config);
  RunResult decoded;
  ASSERT_TRUE(decode_result(encode_result(id, original), id, &decoded));
  EXPECT_TRUE(decoded.coherence_enabled);
  const coherence::CoherenceStats& a = original.coherence_totals;
  const coherence::CoherenceStats& b = decoded.coherence_totals;
  EXPECT_EQ(b.hit_lines, a.hit_lines);
  EXPECT_EQ(b.cold_miss_lines, a.cold_miss_lines);
  EXPECT_EQ(b.capacity_miss_lines, a.capacity_miss_lines);
  EXPECT_EQ(b.coherence_miss_lines, a.coherence_miss_lines);
  EXPECT_EQ(b.upgrades, a.upgrades);
  EXPECT_EQ(b.invalidations_sent, a.invalidations_sent);
  EXPECT_EQ(b.invalidations_received, a.invalidations_received);
  EXPECT_EQ(b.writebacks, a.writebacks);
  EXPECT_EQ(b.dirty_fetches, a.dirty_fetches);
  EXPECT_EQ(results_to_json({decoded}), results_to_json({original}));
}

/// `body` with the value of `key`'s line passed through `edit`, or the
/// line dropped when `edit` is null.
std::string edit_line(const std::string& body, const std::string& key,
                      std::string (*edit)(const std::string&)) {
  std::istringstream in(body);
  std::string out;
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.rfind(key + "=", 0) == 0) {
      found = true;
      if (edit == nullptr) {
        continue;
      }
      line = key + "=" + edit(line.substr(key.size() + 1));
    }
    out += line + "\n";
  }
  EXPECT_TRUE(found) << key;
  return out;
}

/// Every key encode_result writes.
const std::vector<std::string> kResultKeys = {
    "version", "identity", "label", "benchmark", "total", "iteration_times",
    "iterations_simulated", "iterations_replayed", "fault_rate",
    "trace_digest", "mem", "kernel", "daemon", "upm",
    "upm_migrations_per_invocation", "fault", "coherence",
    "metric_iteration", "metric_migrations", "metric_queue_p95",
    "metric_faults"};

/// The keys whose values are decimal u64 lists.
const std::vector<std::string> kNumericKeys = {
    "total", "iteration_times", "iterations_simulated",
    "iterations_replayed", "mem", "kernel", "daemon", "upm",
    "upm_migrations_per_invocation", "fault", "coherence",
    "metric_iteration", "metric_migrations", "metric_queue_p95",
    "metric_faults"};

void expect_round_trip(const RunConfig& config, std::size_t iterations) {
  const RunResult original = run_benchmark(config);
  ASSERT_EQ(original.iteration_times.size(), iterations);
  ASSERT_EQ(original.iteration_metrics.size(), iterations);
  const std::uint64_t id = config_identity(config);
  const std::string body = encode_result(id, original);
  RunResult decoded;
  ASSERT_TRUE(decode_result(body, id, &decoded));
  EXPECT_EQ(encode_result(id, decoded), body);
  EXPECT_EQ(results_to_json({decoded}), results_to_json({original}));
}

TEST(Checkpoint, DecodeRoundTripsPaperLengthAndShortResults) {
  RunConfig sp;
  sp.benchmark = "SP";
  sp.placement = "ft";
  sp.iterations = 400;
  sp.workload.size_scale = 0.25;
  sp.trace = true;
  expect_round_trip(sp, 400);

  RunConfig mg = small_config("rr", /*upmlib=*/true);
  mg.benchmark = "MG";
  mg.iterations = 4;
  mg.trace = true;
  mg.fault = uniform_plan(0.02);
  expect_round_trip(mg, 4);
}

TEST(Checkpoint, DecodeRejectsMalformedBodies) {
  RunConfig config = small_config("rr", /*upmlib=*/true);
  config.benchmark = "MG";
  config.iterations = 4;
  config.trace = true;
  config.fault = uniform_plan(0.02);
  const RunResult result = run_benchmark(config);
  ASSERT_FALSE(result.upm_stats.migrations_per_invocation.empty());
  ASSERT_GT(result.fault_rate, 0.0);
  const std::uint64_t id = config_identity(config);
  const std::string body = encode_result(id, result);
  RunResult decoded;
  ASSERT_TRUE(decode_result(body, id, &decoded));

  std::vector<std::pair<std::string, std::string>> bad;
  for (const std::string& key : kResultKeys) {
    bad.emplace_back("missing " + key, edit_line(body, key, nullptr));
  }
  for (const std::string& key : kNumericKeys) {
    // The first token turns non-numeric; the token count stays.
    bad.emplace_back(key + " non-numeric",
                     edit_line(body, key, [](const std::string& v) {
                       return v.empty() ? std::string("x") : "1x" + v.substr(1);
                     }));
    bad.emplace_back(key + " negative",
                     edit_line(body, key, [](const std::string& v) {
                       return "-" + v;
                     }));
  }
  bad.emplace_back("total past 2^64",
                   edit_line(body, "total", [](const std::string&) {
                     return std::string("18446744073709551616");
                   }));
  bad.emplace_back("mem one short", edit_line(body, "mem", [](const std::string& v) {
                     return v.substr(0, v.rfind(' '));
                   }));
  bad.emplace_back("kernel one long",
                   edit_line(body, "kernel", [](const std::string& v) {
                     return v + " 0";
                   }));
  bad.emplace_back("fault_rate trailing characters",
                   edit_line(body, "fault_rate", [](const std::string& v) {
                     return v + "x";
                   }));
  bad.emplace_back("fault_rate trailing space",
                   edit_line(body, "fault_rate", [](const std::string& v) {
                     return v + " ";
                   }));
  bad.emplace_back("fault_rate empty",
                   edit_line(body, "fault_rate", [](const std::string&) {
                     return std::string();
                   }));
  bad.emplace_back("fault_rate out of range",
                   edit_line(body, "fault_rate", [](const std::string&) {
                     return std::string("1e999");
                   }));
  bad.emplace_back("fault_rate subnormal",
                   edit_line(body, "fault_rate", [](const std::string&) {
                     return std::string("1e-310");
                   }));
  bad.emplace_back("metric column one long",
                   edit_line(body, "metric_migrations",
                             [](const std::string& v) { return v + " 7"; }));
  bad.emplace_back("metric column one short",
                   edit_line(body, "metric_faults", [](const std::string& v) {
                     return v.substr(0, v.rfind(' '));
                   }));
  bad.emplace_back("wrong version",
                   edit_line(body, "version", [](const std::string&) {
                     return std::string("4");
                   }));
  bad.emplace_back("padded version",
                   edit_line(body, "version", [](const std::string& v) {
                     return "0" + v;
                   }));
  bad.emplace_back("wrong identity",
                   edit_line(body, "identity", [](const std::string& v) {
                     return std::to_string(std::stoull(v) ^ 1);
                   }));
  bad.emplace_back("padded identity",
                   edit_line(body, "identity", [](const std::string& v) {
                     return "0" + v;
                   }));
  bad.emplace_back("line without '='", "garbage\n" + body);
  bad.emplace_back("empty line", body + "\n");
  bad.emplace_back("empty body", "");
  for (const auto& [what, text] : bad) {
    RunResult untouched;
    untouched.label = "untouched";
    EXPECT_FALSE(decode_result(text, id, &untouched)) << what;
    EXPECT_EQ(untouched.label, "untouched") << what;
  }
  // Unknown keys are ignored, even the retired checkpoint-file `sweep`
  // line with a value that is no number.
  EXPECT_TRUE(decode_result(body + "sweep=1 2\n", id, &decoded));
}

TEST(Checkpoint, ReplayCellsAreKeyedByTraceContent) {
  const std::string dir = temp_dir("replay_content");
  const std::string trace = dir + "/cell.rtrc";
  (void)dump_trace(small_config("ft", false), trace);
  RunConfig config = small_config("ft", false);
  config.replay = trace;
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_dir = dir + "/ckpt";
  const SweepOutcome first = run_sweep({config}, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.results[0].benchmark, "CG");

  // Another benchmark's trace at the same path is another cell.
  RunConfig mg = small_config("ft", false);
  mg.benchmark = "MG";
  (void)dump_trace(mg, trace);
  const SweepOutcome resumed = run_sweep({config}, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.stats.cells_resumed, 0u);
  EXPECT_EQ(resumed.results[0].benchmark, "MG");
  EXPECT_NE(resumed.results[0].total, first.results[0].total);

  // An unreadable trace still has an identity; the cell fails when run.
  config.replay = dir + "/missing.rtrc";
  EXPECT_NO_THROW((void)config_identity(config));
  EXPECT_FALSE(run_sweep({config}, options).ok());
}

// --- atomic writes ---------------------------------------------------------

TEST(AtomicFile, WritesCreatesDirectoriesAndReplaces) {
  const std::string dir = temp_dir("atomic");
  const std::string path = dir + "/nested/deeper/out.json";
  atomic_write_file(path, "first");
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "first");
  }
  atomic_write_file(path, "second, longer content");
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second, longer content");
  }
  // No temporary litter left behind next to the target.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFile, JsonWriterLandsCompleteFile) {
  const std::string dir = temp_dir("json");
  RunConfig config = small_config("ft", false);
  const RunResult result = run_benchmark(config);
  const std::string path = dir + "/BENCH_test.json";
  write_results_json(path, "fault_test", {result});
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"fault_injected_total\""), std::string::npos);
  EXPECT_NE(content.find("\"fault_rate\""), std::string::npos);
  EXPECT_EQ(content.back(), '\n');
}

}  // namespace
}  // namespace repro::harness
