// The untraced benchmark run: one workload, measured in passes.
//
// A pass is a fixed amount of work: set-up (timed as setup_s), the
// measured phase (wall_s, cpu_s) and teardown. Passes repeat until the
// measured phases add up to the requested seconds; the result reports
// the median pass, so one slow pass on a shared host does not move it.
// Every simulated result is verified outside the timed phase against
// perfbench/digests.txt: after its pass, or, on service-grid, in
// batches while the pass's clocks are paused.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "cells.hpp"
#include "digest.hpp"
#include "metrics.hpp"
#include "repro/service/client.hpp"
#include "repro/service/daemon.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Scratch directory (trace dumps, cache dirs, the daemon socket).
  std::string work_dir;
  const DigestBook* book = nullptr;
};

/// Runs `options.workload` untraced and returns its end-to-end metrics.
[[nodiscard]] Outcome run_untraced(const Options& options);

/// Compares `result` with the digest recorded for `key_config` (the
/// direct twin, for a replay cell); counts the attempt and any
/// mismatch in `out`.
void verify(Outcome& out, const DigestBook& book,
            const repro::harness::RunConfig& key_config,
            const repro::harness::RunResult& result);

/// Records `message` as a failure of `out` (the first few are kept as
/// notes).
void fail(Outcome& out, const std::string& message);

/// An in-process SweepDaemon with kServiceWorkers worker processes, serving on
/// `dir`/d.sock with its result cache in `dir`/cache. The constructor
/// returns once the socket is bound; the destructor drains the daemon
/// and reaps its workers.
class ServiceHost {
 public:
  explicit ServiceHost(const std::string& dir);
  ~ServiceHost();

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  [[nodiscard]] std::string cache_dir() const { return dir_ + "/cache"; }

 private:
  std::string dir_;
  std::string socket_;
  std::unique_ptr<repro::service::SweepDaemon> daemon_;
  std::string error_;
  std::thread thread_;
};

/// Submits the service grid as one request; returns the decoded
/// replies (index-aligned with `grid`), unchecked.
[[nodiscard]] repro::service::SweepReply submit_grid(
    const std::string& socket_path, const std::vector<CellSpec>& grid);

/// Verifies every reply of a submit_grid() against its recorded digest;
/// counts the attempts and any failure in `out`.
void check_grid(Outcome& out, const DigestBook& book,
                const std::vector<CellSpec>& grid,
                const repro::service::SweepReply& reply);

}  // namespace perfbench
