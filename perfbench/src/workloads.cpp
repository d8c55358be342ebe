#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "repro/coherence/config.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/machine.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using repro::harness::RunResult;
using repro::service::SweepClient;
using repro::service::SweepReply;
using repro::service::SweepRequest;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-up is timed on every pass and then in extra set-up-only rounds
/// until there are at least kMinSetupSamples samples and, for a cheap
/// set-up, kSetupBudgetS seconds of them (at most kMaxSetupSamples).
constexpr std::size_t kMinSetupSamples = 5;
constexpr std::size_t kMaxSetupSamples = 200;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMaxFailureNotes = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The wall and CPU clocks of a pass's measured phase. run_untraced
/// runs them around Session::measure; a session pauses them around work
/// that is the benchmark's own, such as checking results.
class PhaseClock {
 public:
  void resume() {
    wall0_ = Clock::now();
    cpu0_ = cpu_seconds(RUSAGE_SELF);
  }
  void pause() {
    wall_ += seconds_since(wall0_);
    cpu_ += cpu_seconds(RUSAGE_SELF) - cpu0_;
  }
  [[nodiscard]] double wall() const { return wall_; }
  [[nodiscard]] double cpu() const { return cpu_; }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

/// One workload's pass structure; see the header comment.
class Session {
 public:
  virtual ~Session() = default;
  virtual void setup() = 0;
  /// Runs with `clock` running; returns with it running.
  virtual void measure(std::uint32_t pass, PhaseClock& clock) = 0;
  /// Untimed: verification and cleanup of the pass.
  virtual void teardown() = 0;
  /// Workload-specific report metrics, after the last pass.
  virtual void finish(Outcome& /*out*/) {}
};

/// Builds one machine and workload per distinct benchmark of `cells`:
/// the fixed bring-up every cell pays, as a preflight that rejects a
/// bad configuration before the sweep starts. run_sweep has no set-up
/// phase of its own, so this preflight is the benchmark's own addition:
/// it gives paper-daemon and coherence-mix a set-up to time.
void preflight(const std::vector<RunConfig>& cells) {
  std::set<std::string> seen;
  for (const RunConfig& c : cells) {
    if (!seen.insert(c.benchmark + "/" + c.coherence).second) {
      continue;
    }
    auto machine = repro::omp::Machine::create(c.machine);
    machine->set_placement(c.placement, c.seed);
    if (!c.coherence.empty()) {
      repro::coherence::CoherenceConfig cc = c.coherence_config;
      cc.policy = *repro::coherence::parse_policy(c.coherence);
      machine->enable_coherence(cc);
    }
    repro::nas::WorkloadParams params = c.workload;
    params.compute_scale = c.compute_scale;
    repro::nas::make_workload(c.benchmark, params)->setup(*machine);
  }
}

/// paper-daemon, rtrc-replay and coherence-mix: one harness::run_sweep
/// of a fixed cell list on kWorkers threads per pass.
class SweepSession : public Session {
 public:
  /// `key_cells[i]` is the cell `cells[i]`'s result is recorded under.
  SweepSession(Outcome& out, const DigestBook& book,
               std::vector<RunConfig> cells, std::vector<RunConfig> key_cells,
               std::function<void()> setup)
      : out_(out),
        book_(book),
        cells_(std::move(cells)),
        key_cells_(std::move(key_cells)),
        setup_(std::move(setup)) {}

  void setup() override { setup_(); }

  void measure(std::uint32_t /*pass*/, PhaseClock& /*clock*/) override {
    repro::harness::SweepOptions options;
    options.jobs = kWorkers;
    outcome_ = repro::harness::run_sweep(cells_, options);
  }

  void teardown() override {
    if (outcome_.results.size() != cells_.size()) {
      return;  // a set-up-only round
    }
    std::set<std::size_t> failed;
    for (const auto& f : outcome_.failures) {
      failed.insert(f.index);
      fail(out_, f.describe());
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (failed.count(i) == 0) {
        verify(out_, book_, key_cells_[i], outcome_.results[i]);
      }
    }
    outcome_ = {};
  }

 private:
  Outcome& out_;
  const DigestBook& book_;
  std::vector<RunConfig> cells_;
  std::vector<RunConfig> key_cells_;
  std::function<void()> setup_;
  repro::harness::SweepOutcome outcome_;
};

/// service-grid: set-up starts a daemon on a fresh cache; the measured
/// phase is one cold grid request, then a closed single-client loop of
/// one-cell requests (service_loop). Replies are checked with the clock
/// paused: the cold reply at once, the loop's in batches of
/// kCheckBatch, so the pass never holds more than a batch of replies.
class ServiceSession : public Session {
  static constexpr std::size_t kCheckBatch = 500;

 public:
  ServiceSession(Outcome& out, const DigestBook& book, std::string dir,
                 std::uint64_t seed)
      : out_(out),
        book_(book),
        dir_(std::move(dir)),
        seed_(seed),
        grid_(service_grid(seed)) {}

  void setup() override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    host_ = std::make_unique<ServiceHost>(dir_);
  }

  void measure(std::uint32_t pass, PhaseClock& clock) override {
    const auto t0 = Clock::now();
    cold_ = submit_grid(host_->socket_path(), grid_);
    cold_s_.push_back(seconds_since(t0));
    clock.pause();
    check_grid(out_, book_, grid_, cold_);
    cold_digests_.clear();
    for (const auto& cell : cold_.cells) {
      cold_digests_.push_back(result_digest(cell.result));
    }
    const std::vector<Request> loop = service_loop(seed_, pass);
    std::vector<SweepReply> replies;
    double hit_s = 0.0;
    double miss_s = 0.0;
    clock.resume();
    SweepClient client(host_->socket_path(), 5000);
    for (std::size_t i = 0; i < loop.size(); ++i) {
      SweepRequest request;
      request.cells.push_back(spec(loop[i]));
      const auto t1 = Clock::now();
      replies.push_back(client.submit(request));
      const double s = seconds_since(t1);
      const SweepReply& reply = replies.back();
      if (reply.ok() && reply.cells.size() == 1) {
        const bool hit = reply.cells[0].cached;
        (hit ? hit_ms_ : miss_ms_).push_back(s * 1e3);
        (hit ? hit_s : miss_s) += s;
      }
      if (replies.size() == kCheckBatch || i + 1 == loop.size()) {
        clock.pause();
        for (std::size_t k = 0; k < replies.size(); ++k) {
          check(loop[i + 1 - replies.size() + k], replies[k]);
        }
        replies.clear();
        clock.resume();
      }
    }
    std::ostringstream note;
    note << "pass " << pass << ": cold " << cold_s_.back() << " s, misses "
         << miss_s << " s, hits " << hit_s << " s";
    out_.notes.push_back(note.str());
  }

  void teardown() override {
    host_.reset();
    fs::remove_all(dir_);
  }

  void finish(Outcome& out) override {
    out.values["cold_s"] = median(cold_s_);
    const Percentile p50 = tail_percentile(hit_ms_, 50.0);
    const Percentile p99 = tail_percentile(hit_ms_, 99.0);
    const Percentile miss = tail_percentile(miss_ms_, 50.0);
    out.values["hit_p50_ms"] = p50.value;
    out.values["hit_p99_ms"] = p99.value;
    out.values["miss_p50_ms"] = miss.value;
    out.values["hit_ratio"] =
        static_cast<double>(hits_) / static_cast<double>(requests_);
    out.notes.push_back("hit_p50_ms: " + p50.describe());
    out.notes.push_back("hit_p99_ms: " + p99.describe());
    out.notes.push_back("miss_p50_ms: " + miss.describe());
  }

 private:
  [[nodiscard]] CellSpec spec(const Request& r) const {
    return r.grid >= 0 ? grid_[static_cast<std::size_t>(r.grid)] : r.fresh();
  }

  /// A fresh cell must match its recorded digest; a repeat must equal
  /// the cold reply, which check_grid verified against its own.
  void check(const Request& r, const SweepReply& reply) {
    ++requests_;
    if (!reply.ok() || reply.cells.size() != 1) {
      fail(out_, "request " + spec(r).format() + " failed: " + reply.error);
      return;
    }
    const auto& cell = reply.cells[0];
    hits_ += cell.cached ? 1 : 0;
    if (r.grid < 0 || !cold_.ok()) {
      verify(out_, book_, spec(r).to_config(), cell.result);
      return;
    }
    ++out_.attempted;
    const auto g = static_cast<std::size_t>(r.grid);
    if (cell.result.trace_digest != cold_.cells[g].result.trace_digest ||
        result_digest(cell.result) != cold_digests_[g]) {
      fail(out_, "repeat of " + spec(r).format() + " differs from the "
                 "cold reply");
    }
  }

  Outcome& out_;
  const DigestBook& book_;
  std::string dir_;
  std::uint64_t seed_;
  std::vector<CellSpec> grid_;
  std::unique_ptr<ServiceHost> host_;
  SweepReply cold_;
  std::vector<std::string> cold_digests_;
  std::vector<double> cold_s_;
  std::vector<double> hit_ms_;
  std::vector<double> miss_ms_;
  std::uint64_t hits_ = 0;
  std::uint64_t requests_ = 0;
};

std::unique_ptr<Session> make_session(const Options& o, Outcome& out,
                                      const std::string& dir,
                                      double* trace_mb) {
  const DigestBook& book = *o.book;
  if (o.workload == "paper-daemon" || o.workload == "coherence-mix") {
    auto cells = o.workload == "paper-daemon" ? paper_daemon_cells(o.seed)
                                              : coherence_cells();
    auto setup = [cells] { preflight(cells); };
    return std::make_unique<SweepSession>(out, book, cells, cells, setup);
  }
  if (o.workload == "rtrc-replay") {
    std::vector<RunConfig> replays;
    for (const RunConfig& twin : replay_twins()) {
      replays.push_back(replay_config(twin, trace_path(dir, twin.benchmark)));
    }
    auto setup = [dir, trace_mb] {
      fs::create_directories(dir);
      std::uint64_t bytes = 0;
      for (const RunConfig& c : trace_dump_configs()) {
        bytes += repro::harness::dump_trace(c, trace_path(dir, c.benchmark))
                     .bytes;
      }
      *trace_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    return std::make_unique<SweepSession>(out, book, replays, replay_twins(),
                                          setup);
  }
  if (o.workload == "service-grid") {
    return std::make_unique<ServiceSession>(out, book, dir, o.seed);
  }
  throw std::invalid_argument("unknown workload " + o.workload);
}

}  // namespace

void fail(Outcome& out, const std::string& message) {
  ++out.failed;
  if (out.failed <= kMaxFailureNotes) {
    out.notes.push_back("FAILED: " + message);
  }
}

void verify(Outcome& out, const DigestBook& book, const RunConfig& key_config,
            const RunResult& result) {
  ++out.attempted;
  const std::string key = cell_key(key_config);
  const std::string want = book.find(key);
  const std::string got = result_digest(result);
  if (want.empty()) {
    fail(out, "no recorded digest for " + key);
  } else if (want != got) {
    fail(out, key + ": digest " + got + ", recorded " + want);
  }
}

ServiceHost::ServiceHost(const std::string& dir)
    : dir_(dir), socket_(dir + "/d.sock") {
  fs::create_directories(dir_);
  repro::service::DaemonConfig config;
  config.socket_path = socket_;
  config.workers = kServiceWorkers;
  config.cache.dir = cache_dir();
  // A hung worker must not hang the benchmark past its time limit.
  config.cell_deadline_ms = 60000;
  daemon_ = std::make_unique<repro::service::SweepDaemon>(config);
  thread_ = std::thread([this] {
    try {
      daemon_->run();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  });
  // Wait for the bind with a yielding spin, so set-up times the daemon's
  // start rather than the client's 10 ms connect-retry sleep or a
  // sleep's timer granularity.
  const auto bind_deadline = Clock::now() + std::chrono::seconds(10);
  while (!fs::exists(socket_) && Clock::now() < bind_deadline) {
    std::this_thread::yield();
  }
  // The daemon rejects an empty request with "bad sweep request" once
  // its socket is bound and its worker pool spawned: it is serving.
  const SweepReply ready = SweepClient(socket_, 10000).submit(SweepRequest{});
  if (ready.error.rfind("bad sweep request", 0) != 0) {
    daemon_->request_shutdown();
    thread_.join();
    throw std::runtime_error("sweep daemon did not start: " + ready.error +
                             " " + error_);
  }
}

ServiceHost::~ServiceHost() {
  if (!SweepClient(socket_, 1000).shutdown_daemon()) {
    daemon_->request_shutdown();
  }
  thread_.join();
}

SweepReply submit_grid(const std::string& socket_path,
                       const std::vector<CellSpec>& grid) {
  SweepRequest request;
  request.cells = grid;
  return SweepClient(socket_path, 5000).submit(request);
}

void check_grid(Outcome& out, const DigestBook& book,
                const std::vector<CellSpec>& grid, const SweepReply& reply) {
  if (reply.cells.size() != grid.size() || !reply.error.empty() ||
      reply.busy) {
    fail(out, "grid request failed: " + reply.error);
    return;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!reply.cells[i].ok) {
      fail(out, "grid cell " + grid[i].format() + ": " +
                    reply.cells[i].message);
      continue;
    }
    verify(out, book, grid[i].to_config(), reply.cells[i].result);
  }
}

Outcome run_untraced(const Options& o) {
  Outcome out;
  const std::string dir = o.work_dir + "/" + o.workload;
  double trace_mb = 0.0;
  auto session = make_session(o, out, dir, &trace_mb);
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  double measured = 0.0;
  for (std::uint32_t pass = 0; pass == 0 || measured < o.seconds; ++pass) {
    const double children0 = cpu_seconds(RUSAGE_CHILDREN);
    const auto t0 = Clock::now();
    session->setup();
    setup_s.push_back(seconds_since(t0));
    PhaseClock clock;
    clock.resume();
    session->measure(pass, clock);
    clock.pause();
    const double wall = clock.wall();
    const double self = clock.cpu();
    session->teardown();
    // Worker processes are reaped at teardown, so their CPU shows up
    // in RUSAGE_CHILDREN only then.
    const double children = cpu_seconds(RUSAGE_CHILDREN) - children0;
    wall_s.push_back(wall);
    cpu_s.push_back(self + children);
    measured += wall;
    std::ostringstream note;
    note << "pass " << pass << ": setup " << setup_s.back() << " s, wall "
         << wall << " s, cpu " << cpu_s.back() << " s";
    out.notes.push_back(note.str());
  }
  double setup_total = 0.0;
  for (const double s : setup_s) {
    setup_total += s;
  }
  while (setup_s.size() < kMinSetupSamples ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetupSamples)) {
    const auto t0 = Clock::now();
    session->setup();
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
    session->teardown();
  }
  session->finish(out);
  std::error_code ec;
  fs::remove_all(dir, ec);
  out.values["wall_s"] = median(wall_s);
  out.values["cpu_s"] = median(cpu_s);
  out.values["setup_s"] = median(setup_s);
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.values["fail_ratio"] =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  if (o.workload == "rtrc-replay") {
    out.values["trace_mb"] = trace_mb;
  }
  std::ostringstream note;
  note << o.workload << ": " << wall_s.size() << " passes, " << setup_s.size()
       << " set-ups, " << out.attempted << " results verified";
  out.notes.push_back(note.str());
  return out;
}

}  // namespace perfbench
