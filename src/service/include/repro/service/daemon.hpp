// The sweep service daemon: accepts framed SweepRequests on a Unix-
// domain socket, plans them into cells keyed by config_identity, and
// dispatches the cells to a pool of forked worker processes.
//
// Robustness machinery (all exercised by the chaos suite in
// tests/test_service.cpp):
//  * per-cell deadlines with SIGKILL escalation -- a hung worker costs
//    one slot for deadline_ms, never the daemon;
//  * worker-crash detection via socket EOF + waitpid, with bounded
//    re-dispatch (max_attempts) under exponential backoff;
//  * garbled reply frames (digest fence trips) poison the worker: it
//    is killed and the cell re-dispatched, because a stream that lost
//    sync cannot be trusted for even one more frame;
//  * straggler duplication -- when the pool idles with cells still in
//    flight, the oldest in-flight cell is re-issued once to an idle
//    slot; the first reply wins and the loser's bytes are checked
//    against the winner's (determinism makes the duplicate a free
//    end-to-end validation);
//  * bounded admission -- beyond max_pending_requests concurrent
//    requests, new ones are shed with an explicit kBusy reply instead
//    of queueing without bound;
//  * crash-safe memoized result cache (ResultCache) consulted at
//    admission; in-flight deduplication joins identical cells across
//    requests so a result is computed once and fanned out;
//  * graceful drain -- SIGTERM (via install_signal_handlers) or a
//    kShutdown frame stops admission, finishes every admitted cell,
//    snapshots the cache and reaps every worker before run() returns.
//
// Determinism is what makes the aggressive recovery sound: a cell is
// a pure function of its spec, so re-dispatching after a crash, racing
// a duplicate, or serving from cache are all guaranteed to produce the
// same bytes -- and the service *checks* that where it can.
#pragma once

#include <cstdint>
#include <string>

#include "repro/fault/service.hpp"
#include "repro/harness/result_cache.hpp"

namespace repro::service {

struct DaemonConfig {
  std::string socket_path;
  std::size_t workers = 2;
  /// Admitted-but-unfinished requests beyond this are shed with kBusy.
  std::size_t max_pending_requests = 8;
  /// Wall-clock budget per dispatch before SIGKILL; 0 = no deadline.
  std::uint32_t cell_deadline_ms = 0;
  /// Total dispatch attempts per cell (first + re-dispatches).
  std::uint32_t max_attempts = 3;
  /// Re-dispatch backoff: base * 2^(attempt-1) ms.
  std::uint32_t backoff_base_ms = 10;
  bool straggler_duplication = true;
  harness::CacheConfig cache;
  /// Worker-side chaos (injected in the children, observed here).
  fault::ServiceFaultPlan faults;
};

struct ServiceStats {
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_shed_busy = 0;
  std::uint64_t cells_planned = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_joins = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t straggler_duplicates = 0;
  /// Loser replies whose bytes matched the winner's.
  std::uint64_t straggler_confirmations = 0;
  std::uint64_t straggler_mismatches = 0;
  std::uint64_t worker_crashes = 0;
  std::uint64_t worker_deadline_kills = 0;
  std::uint64_t garbled_frames = 0;
  std::uint64_t workers_spawned = 0;
  std::uint64_t cells_completed = 0;
  std::uint64_t cells_failed = 0;
  std::uint64_t protocol_errors = 0;
};

class SweepDaemon {
 public:
  explicit SweepDaemon(DaemonConfig config);
  ~SweepDaemon();

  SweepDaemon(const SweepDaemon&) = delete;
  SweepDaemon& operator=(const SweepDaemon&) = delete;

  /// Binds the socket, preforks the pool and serves until a drain is
  /// requested and every admitted cell is answered. On return all
  /// workers are reaped, the cache snapshot is flushed and the socket
  /// file removed.
  void run();

  /// Requests a graceful drain; callable from any thread (it writes
  /// one byte to the daemon's wake pipe). install_signal_handlers()
  /// routes SIGTERM/SIGINT here.
  void request_shutdown();

  /// Counters; read after run() returns (or from the run() thread).
  [[nodiscard]] const ServiceStats& stats() const { return stats_; }

  [[nodiscard]] const harness::ResultCache& cache() const { return cache_; }

 private:
  struct Impl;
  friend struct Impl;

  DaemonConfig config_;
  ServiceStats stats_;
  harness::ResultCache cache_;
  int wake_read_ = -1;
  int wake_write_ = -1;
};

/// Installs SIGTERM/SIGINT handlers that request_shutdown() `daemon`
/// (async-signal-safe: the handler only write()s to the wake pipe).
/// Call from repro_sweepd's main only -- the handlers hold a process-
/// global pointer.
void install_signal_handlers(SweepDaemon* daemon);

}  // namespace repro::service
