#include "repro/harness/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/common/log.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/result_cache.hpp"

namespace repro::harness {

namespace {

struct CellVerdict {
  RunResult result;
  bool ok = false;
  bool resumed = false;
  bool timeout = false;
  FailureClass cls = FailureClass::kFault;
  std::string message;
};

/// Runs one cell to a verdict: one simulation. Never throws on
/// simulation failure -- every exception becomes part of the verdict
/// so the remaining cells always run.
CellVerdict run_cell(const RunConfig& input, const SweepOptions& options) {
  CellVerdict v;
  RunConfig config = input;
  if (config.cell_timeout_ms == 0) {
    config.cell_timeout_ms = options.cell_timeout_ms;
  }
  try {
    v.result = run_benchmark(config);
    v.ok = true;
  } catch (const CellTimeoutError& e) {
    v.timeout = true;
    v.cls = FailureClass::kTimeout;
    v.message = e.what();
  } catch (const std::exception& e) {
    v.message = e.what();
  } catch (...) {
    v.message = "unknown exception";
  }
  return v;
}

}  // namespace

std::size_t effective_jobs(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const std::int64_t from_env = Env::global().get_int("REPRO_JOBS", 0);
  if (from_env > 0) {
    return static_cast<std::size_t>(from_env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint32_t effective_cell_timeout_ms(std::uint32_t requested) {
  if (requested != 0) {
    return requested;
  }
  // get_int throws ContractViolation on malformed values (the strict
  // parse); range errors get the same treatment here.
  const std::int64_t from_env =
      Env::global().get_int("REPRO_CELL_TIMEOUT_MS", 0);
  REPRO_REQUIRE_MSG(from_env >= 0 && from_env <= INT64_C(0xffffffff),
                    "REPRO_CELL_TIMEOUT_MS out of range [0, 2^32)");
  return static_cast<std::uint32_t>(from_env);
}

const char* failure_class_name(FailureClass cls) {
  switch (cls) {
    case FailureClass::kFault:
      return "fault";
    case FailureClass::kTimeout:
      return "timeout";
    case FailureClass::kCrash:
      return "crash";
  }
  REPRO_UNREACHABLE("unknown FailureClass");
}

int failure_exit_code(FailureClass cls) {
  return 3 + static_cast<int>(cls);
}

int SweepOutcome::exit_code() const {
  if (failures.empty()) {
    return 0;
  }
  FailureClass worst = FailureClass::kFault;
  for (const CellFailure& f : failures) {
    if (static_cast<int>(f.cls) > static_cast<int>(worst)) {
      worst = f.cls;
    }
  }
  return failure_exit_code(worst);
}

std::string CellFailure::describe() const {
  return benchmark + " " + label + " [" + failure_class_name(cls) +
         "]: " + message;
}

std::string SweepError::format(const std::vector<CellFailure>& failures) {
  std::ostringstream os;
  os << failures.size() << (failures.size() == 1 ? " cell" : " cells")
     << " failed:";
  for (const CellFailure& f : failures) {
    os << "\n  [" << f.index << "] " << f.describe();
  }
  return os.str();
}

SweepOutcome run_sweep(const std::vector<RunConfig>& configs,
                       const SweepOptions& options) {
  SweepOutcome out;
  out.results.resize(configs.size());
  out.stats.cells_total = configs.size();
  if (configs.empty()) {
    return out;
  }
  SweepOptions effective = options;
  effective.cell_timeout_ms =
      effective_cell_timeout_ms(options.cell_timeout_ms);
  const std::size_t workers =
      std::min(effective_jobs(effective.jobs), configs.size());

  // Resume: a cell already in the checkpoint directory's cache is
  // decoded here instead of run. A hit that does not decode runs.
  std::vector<CellVerdict> verdicts(configs.size());
  std::optional<ResultCache> cache;
  std::mutex cache_mutex;  // guards `cache` while the workers run
  std::vector<std::uint64_t> ids;
  if (!options.checkpoint_dir.empty()) {
    // No eviction: a checkpoint directory never forgets a cell. No
    // identity is inserted twice, so the journal holds nothing a
    // snapshot would shed.
    cache.emplace(CacheConfig{.dir = options.checkpoint_dir,
                              .capacity = SIZE_MAX,
                              .snapshot_every = 0});
    for (std::size_t i = 0; i < configs.size(); ++i) {
      ids.push_back(config_identity(configs[i]));
      const std::optional<std::string> hit = cache->lookup(ids[i]);
      CellVerdict& v = verdicts[i];
      v.resumed = hit && decode_result(*hit, ids[i], &v.result);
      v.ok = v.resumed;
    }
  }

  // Runs a missing cell and stores its result before the worker takes
  // the next one, so a killed sweep loses only the cells in flight. A
  // cell and its no_fast_forward twin share an identity but not their
  // provenance bytes, which insert() refuses: the first stored stays.
  const auto run = [&](std::size_t i) {
    CellVerdict& v = verdicts[i];
    if (v.resumed) {
      return;
    }
    v = run_cell(configs[i], effective);
    if (!cache || !v.ok) {
      return;
    }
    const std::string payload = encode_result(ids[i], v.result);
    try {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      if (!cache->contains(ids[i])) {
        cache->insert(ids[i], payload);
      }
    } catch (const std::exception& e) {
      v.ok = false;
      v.message = std::string("checkpoint store: ") + e.what();
    }
  };

  if (workers == 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      run(i);
    }
  } else {
    // Work-stealing by atomic counter: cells vary widely in cost (BT
    // 200 iterations vs FT 6), so static striping would leave workers
    // idle. Verdicts land at their input index; nothing escapes a
    // worker, so one bad cell never tears down the pool.
    std::atomic<std::size_t> next{0};
    REPRO_LOG_DEBUG("scheduler: ", configs.size(), " cells on ", workers,
                    " workers");
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= configs.size()) {
            return;
          }
          run(i);
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  for (std::size_t i = 0; i < configs.size(); ++i) {
    CellVerdict& v = verdicts[i];
    if (v.resumed) {
      ++out.stats.cells_resumed;
    }
    if (v.timeout) {
      ++out.stats.watchdog_fires;
    }
    if (v.ok) {
      ++out.stats.cells_ok;
      out.results[i] = std::move(v.result);
    } else {
      ++out.stats.cells_failed;
      CellFailure f;
      f.index = i;
      f.benchmark = configs[i].benchmark;
      f.label = configs[i].label();
      f.message = v.message;
      f.timeout = v.timeout;
      f.cls = v.cls;
      out.failures.push_back(std::move(f));
    }
  }
  return out;
}

std::vector<RunResult> run_experiments(const std::vector<RunConfig>& configs,
                                       const SweepOptions& options) {
  SweepOutcome out = run_sweep(configs, options);
  if (!out.ok()) {
    throw SweepError(std::move(out.failures));
  }
  return std::move(out.results);
}

std::vector<RunResult> run_experiments(const std::vector<RunConfig>& configs,
                                       std::size_t jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return run_experiments(configs, options);
}

}  // namespace repro::harness
