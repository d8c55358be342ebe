// Sweep-service tests: the RSVC frame protocol (round trips and every
// rejection path), cell-spec wire format, the crash-safe result cache
// (including a torn-tail fuzz that truncates the journal at every byte
// boundary), and end-to-end daemon runs over a real Unix-domain socket
// -- cold/warm cache equivalence against a direct in-process run_sweep,
// bounded admission (kBusy), in-request deduplication, restart
// recovery, worker signal hygiene across fork, a torn-frame worker
// that must never block the poll loop, and a chaos suite that injects
// worker aborts, hangs, garbled and torn reply frames while asserting
// every cell still gets a typed answer and every completed digest
// stays byte-identical.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/fault/service.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/harness/result_cache.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/service/cellspec.hpp"
#include "repro/service/client.hpp"
#include "repro/service/daemon.hpp"
#include "repro/service/protocol.hpp"
#include "repro/service/worker.hpp"

namespace repro::service {
namespace {

using harness::CacheConfig;
using harness::encode_journal_entry;
using harness::ResultCache;

std::string temp_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("repro_service_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A pair of connected stream sockets for protocol tests.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    REPRO_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    close_a();
    close_b();
  }
  void close_a() {
    if (a >= 0) {
      ::close(a);
      a = -1;
    }
  }
  void close_b() {
    if (b >= 0) {
      ::close(b);
      b = -1;
    }
  }
};

void write_raw(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    REPRO_REQUIRE(n > 0);
    off += static_cast<std::size_t>(n);
  }
}

std::string header_bytes(FrameHeader header) {
  std::string out(sizeof(FrameHeader), '\0');
  std::memcpy(out.data(), &header, sizeof(FrameHeader));
  return out;
}

// --- protocol --------------------------------------------------------------

TEST(Protocol, FrameRoundTripOverSocket) {
  SocketPair pair;
  const std::string binary("spec \0 with NUL and \xff bytes", 27);
  write_frame(pair.a, FrameType::kCellTask, binary);
  write_frame(pair.a, FrameType::kSweepDone, "");
  Frame frame;
  ASSERT_EQ(read_frame(pair.b, &frame), ReadResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kCellTask);
  EXPECT_EQ(frame.payload, binary);
  ASSERT_EQ(read_frame(pair.b, &frame), ReadResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kSweepDone);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(Protocol, OrderlyEofAtFrameBoundary) {
  SocketPair pair;
  write_frame(pair.a, FrameType::kBusy, "");
  pair.close_a();
  Frame frame;
  ASSERT_EQ(read_frame(pair.b, &frame), ReadResult::kFrame);
  EXPECT_EQ(read_frame(pair.b, &frame), ReadResult::kEof);
}

TEST(Protocol, EofMidFrameThrows) {
  {
    SocketPair pair;
    write_raw(pair.a, std::string(10, 'x'));  // partial header
    pair.close_a();
    Frame frame;
    EXPECT_THROW(read_frame(pair.b, &frame), ProtocolError);
  }
  {
    SocketPair pair;
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(FrameType::kCellReply);
    header.payload_bytes = 100;
    header.payload_digest = frame_digest("irrelevant");
    write_raw(pair.a, header_bytes(header) + "only twenty bytes...");
    pair.close_a();
    Frame frame;
    EXPECT_THROW(read_frame(pair.b, &frame), ProtocolError);
  }
}

TEST(Protocol, RejectsBadMagicVersionSizeAndDigest) {
  const auto expect_rejected = [](FrameHeader header,
                                  const std::string& payload) {
    SocketPair pair;
    write_raw(pair.a, header_bytes(header) + payload);
    pair.close_a();
    Frame frame;
    EXPECT_THROW(read_frame(pair.b, &frame), ProtocolError);
  };
  FrameHeader header;
  header.type = static_cast<std::uint32_t>(FrameType::kCellReply);
  header.payload_bytes = 2;
  header.payload_digest = frame_digest("ok");

  FrameHeader bad = header;
  bad.magic = 0x12345678;
  expect_rejected(bad, "ok");
  bad = header;
  bad.version = kProtocolVersion + 1;
  expect_rejected(bad, "ok");
  bad = header;
  bad.payload_bytes = kMaxFramePayload + 1;
  expect_rejected(bad, "ok");
  bad = header;
  bad.payload_digest ^= 1;
  expect_rejected(bad, "ok");
}

TEST(Protocol, GarbledFrameTripsTheDigestFence) {
  {
    SocketPair pair;
    write_garbled_frame(pair.a, FrameType::kCellReply, "a healthy payload");
    Frame frame;
    EXPECT_THROW(read_frame(pair.b, &frame), ProtocolError);
  }
  {
    SocketPair pair;
    write_garbled_frame(pair.a, FrameType::kCellReply, "");
    pair.close_a();
    Frame frame;
    EXPECT_THROW(read_frame(pair.b, &frame), ProtocolError);
  }
}

TEST(Protocol, TryExtractFrameNeedsCompleteBytes) {
  FrameHeader header;
  header.type = static_cast<std::uint32_t>(FrameType::kSweepRequest);
  header.payload_bytes = 5;
  header.payload_digest = frame_digest("hello");
  const std::string wire = header_bytes(header) + "hello";

  std::string buffer;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.push_back(wire[i]);
    EXPECT_FALSE(try_extract_frame(&buffer, &frame));
  }
  buffer.push_back(wire.back());
  ASSERT_TRUE(try_extract_frame(&buffer, &frame));
  EXPECT_EQ(frame.type, FrameType::kSweepRequest);
  EXPECT_EQ(frame.payload, "hello");
  EXPECT_TRUE(buffer.empty());

  // Two frames back to back extract in order.
  buffer = wire + wire;
  ASSERT_TRUE(try_extract_frame(&buffer, &frame));
  ASSERT_TRUE(try_extract_frame(&buffer, &frame));
  EXPECT_FALSE(try_extract_frame(&buffer, &frame));

  // A garbled prefix poisons the buffer.
  buffer = std::string(64, 'Z');
  EXPECT_THROW(try_extract_frame(&buffer, &frame), ProtocolError);
}

TEST(Protocol, TornFramePrefixNeverCompletes) {
  SocketPair pair;
  const std::string payload = "torn frame payload bytes";
  write_torn_frame_prefix(pair.a, FrameType::kCellReply, payload);
  pair.close_a();
  // The receiver sees a strict prefix: incremental extraction reports
  // "need more bytes" (never a frame, never an exception) and the
  // stream then ends inside the frame.
  std::string buffer;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(pair.b, buf, sizeof(buf))) > 0) {
    buffer.append(buf, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(n, 0);
  EXPECT_LT(buffer.size(), sizeof(FrameHeader) + payload.size());
  Frame frame;
  EXPECT_FALSE(try_extract_frame(&buffer, &frame));
  EXPECT_FALSE(buffer.empty());

  // An empty payload tears inside the header itself.
  SocketPair empty_pair;
  write_torn_frame_prefix(empty_pair.a, FrameType::kCellReply, "");
  empty_pair.close_a();
  buffer.clear();
  while ((n = ::read(empty_pair.b, buf, sizeof(buf))) > 0) {
    buffer.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_LT(buffer.size(), sizeof(FrameHeader));
  EXPECT_FALSE(try_extract_frame(&buffer, &frame));
}

// --- cell specs ------------------------------------------------------------

TEST(CellSpec, FormatParseRoundTrip) {
  CellSpec spec;
  spec.benchmark = "BT";
  spec.placement = "rr";
  spec.kernel_migration = false;
  spec.upm = "recrep";
  spec.iterations = 7;
  spec.compute_scale = 4;
  spec.size_scale = 0.125;
  spec.seed = 999;
  spec.fault_rate = 0.25;
  spec.fault_seed = 42;

  CellSpec parsed;
  std::string error;
  ASSERT_TRUE(CellSpec::parse(spec.format(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.format(), spec.format());
  EXPECT_EQ(parsed.identity(), spec.identity());

  // All-defaults round trips too.
  const CellSpec defaults;
  ASSERT_TRUE(CellSpec::parse(defaults.format(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.identity(), defaults.identity());
}

TEST(CellSpec, ParseRejectsGarbage) {
  CellSpec parsed;
  std::string error;
  EXPECT_FALSE(CellSpec::parse("benchmark=CG nonsense_key=1", &parsed,
                               &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(CellSpec::parse("iterations=abc", &parsed, &error));
  EXPECT_FALSE(CellSpec::parse("size_scale=half", &parsed, &error));
  EXPECT_FALSE(CellSpec::parse("benchmark", &parsed, &error));
}

TEST(CellSpec, IdentityAgreesWithConfigIdentityAndTracingIsOn) {
  CellSpec spec;
  spec.benchmark = "CG";
  spec.placement = "wc";
  spec.upm = "dist";
  spec.iterations = 3;
  spec.size_scale = 0.25;
  const harness::RunConfig config = spec.to_config();
  EXPECT_TRUE(config.trace);  // digests are the correctness currency
  EXPECT_EQ(spec.identity(), harness::config_identity(config));
  EXPECT_NE(spec.identity(), 0u);
}

TEST(SweepRequest, EncodeDecodeRoundTripAndEmptyRejected) {
  SweepRequest request;
  for (const std::string placement : {"ft", "rr"}) {
    CellSpec spec;
    spec.placement = placement;
    spec.iterations = 2;
    request.cells.push_back(std::move(spec));
  }
  SweepRequest decoded;
  std::string error;
  ASSERT_TRUE(SweepRequest::decode(request.encode(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.cells.size(), 2u);
  EXPECT_EQ(decoded.cells[0].identity(), request.cells[0].identity());
  EXPECT_EQ(decoded.cells[1].identity(), request.cells[1].identity());

  EXPECT_FALSE(SweepRequest::decode("", &decoded, &error));
  EXPECT_FALSE(SweepRequest::decode("placement=ft\ngarbage=1\n", &decoded,
                                    &error));
}

// --- service faults --------------------------------------------------------

TEST(ServiceFaults, DecisionIsPureAndVariesAcrossAttempts) {
  fault::ServiceFaultPlan plan;
  plan.set_rate(0.5);
  plan.validate();
  const std::uint64_t identity = 0x1234abcd5678ef01ull;
  // Pure: the same arguments always answer the same.
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    const bool first = service_fault_fires(
        plan, fault::ServiceFaultClass::kWorkerAbort, identity, attempt);
    const bool again = service_fault_fires(
        plan, fault::ServiceFaultClass::kWorkerAbort, identity, attempt);
    EXPECT_EQ(first, again);
  }
  // A retried dispatch sees an independent draw: at rate 0.5 over 64
  // attempts both outcomes must appear (P(miss) = 2^-63).
  bool saw_fire = false;
  bool saw_skip = false;
  for (std::uint32_t attempt = 0; attempt < 64; ++attempt) {
    if (service_fault_fires(plan, fault::ServiceFaultClass::kWorkerHang,
                            identity, attempt)) {
      saw_fire = true;
    } else {
      saw_skip = true;
    }
  }
  EXPECT_TRUE(saw_fire);
  EXPECT_TRUE(saw_skip);

  fault::ServiceFaultPlan bad;
  bad.abort_rate = 1.5;
  EXPECT_THROW(bad.validate(), ContractViolation);

  fault::ServiceFaultPlan bad_torn;
  bad_torn.torn_rate = -0.5;
  EXPECT_THROW(bad_torn.validate(), ContractViolation);
}

// --- worker processes ------------------------------------------------------

TEST(Worker, ForkedWorkerDiesOnSigtermDespiteDaemonHandlers) {
  // The daemon installs SIGTERM/SIGINT handlers that write() to its
  // wake pipe. A forked worker inherits them but closes the pipe fds;
  // unless the child resets the disposition, a signal to the process
  // group hits a closed (or worse, reused) descriptor. The worker must
  // instead die with the default action.
  const std::string dir = temp_dir("worker_signals");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  SweepDaemon daemon(config);  // never run(): only the handlers matter
  install_signal_handlers(&daemon);

  const WorkerHandle handle = spawn_worker(fault::ServiceFaultPlan{}, nullptr);
  ASSERT_EQ(::kill(handle.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(handle.pid, &status, 0), handle.pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);
  ::close(handle.fd);

  // Restore the default dispositions so later fixtures in this binary
  // start from a clean slate.
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  ::sigaction(SIGTERM, &dfl, nullptr);
  ::sigaction(SIGINT, &dfl, nullptr);
}

// --- result cache ----------------------------------------------------------

TEST(ResultCache, MemoryOnlyLruEviction) {
  CacheConfig config;
  config.capacity = 2;
  ResultCache cache(config);
  cache.insert(1, "one");
  cache.insert(2, "two");
  ASSERT_TRUE(cache.lookup(1).has_value());  // refresh 1; 2 is now LRU
  cache.insert(3, "three");
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, DuplicateInsertDemandsIdenticalBytes) {
  CacheConfig config;
  ResultCache cache(config);
  cache.insert(7, "payload");
  cache.insert(7, "payload");  // byte-identical: recency refresh only
  EXPECT_EQ(cache.size(), 1u);
  // Different bytes for the same identity = the deterministic
  // simulator contradicted itself. Loud failure, not silent update.
  EXPECT_THROW(cache.insert(7, "different"), ContractViolation);
}

TEST(ResultCache, PersistsAcrossReopenViaJournal) {
  const std::string dir = temp_dir("journal");
  CacheConfig config;
  config.dir = dir;
  config.snapshot_every = 0;  // journal only
  {
    ResultCache cache(config);
    cache.insert(10, "ten");
    cache.insert(11, "eleven");
  }
  ResultCache reopened(config);
  EXPECT_EQ(reopened.stats().recovered_entries, 2u);
  EXPECT_EQ(reopened.lookup(10).value_or(""), "ten");
  EXPECT_EQ(reopened.lookup(11).value_or(""), "eleven");
}

TEST(ResultCache, SnapshotTruncatesJournalAndStillRecovers) {
  const std::string dir = temp_dir("snapshot");
  CacheConfig config;
  config.dir = dir;
  config.snapshot_every = 2;
  {
    ResultCache cache(config);
    cache.insert(1, "one");
    cache.insert(2, "two");  // triggers the snapshot + truncation
    EXPECT_EQ(cache.stats().snapshots, 1u);
    EXPECT_EQ(read_file(cache.journal_path()), "");
    cache.insert(3, "three");  // lands in the fresh journal
    EXPECT_NE(read_file(cache.journal_path()), "");
  }
  ResultCache reopened(config);
  EXPECT_EQ(reopened.stats().recovered_entries, 3u);
  EXPECT_EQ(reopened.lookup(1).value_or(""), "one");
  EXPECT_EQ(reopened.lookup(3).value_or(""), "three");
}

TEST(ResultCache, JournalTornTailFuzzEveryByteBoundary) {
  // Three acknowledged entries, then the journal is truncated at every
  // byte boundary. Recovery must keep exactly the entries that are
  // fully contained in the surviving prefix -- an acknowledged entry
  // before the tear is never lost, a torn one is never half-read.
  const std::vector<std::pair<std::uint64_t, std::string>> entries = {
      {100, "first payload"},
      {200, std::string("second\nwith\nnewlines\n\0and NUL", 29)},
      {300, "third"},
  };
  std::string full;
  std::vector<std::size_t> boundaries;  // journal size after each entry
  for (const auto& [identity, payload] : entries) {
    full += encode_journal_entry(identity, payload);
    boundaries.push_back(full.size());
  }

  const std::string dir = temp_dir("torn");
  CacheConfig config;
  config.dir = dir;
  config.snapshot_every = 0;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    write_file(dir + "/journal.log", full.substr(0, cut));
    ResultCache cache(config);
    std::size_t expected = 0;
    while (expected < boundaries.size() && boundaries[expected] <= cut) {
      ++expected;
    }
    ASSERT_EQ(cache.stats().recovered_entries, expected)
        << "journal truncated at byte " << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(cache.lookup(entries[i].first).value_or("<missing>"),
                entries[i].second);
    }
    const bool at_boundary =
        cut == 0 || (expected > 0 && boundaries[expected - 1] == cut);
    if (at_boundary) {
      EXPECT_EQ(cache.stats().dropped_torn_bytes, 0u);
    } else {
      EXPECT_GT(cache.stats().dropped_torn_bytes, 0u);
    }
    // The torn tail is cut off the file, so the next append follows
    // the last intact entry.
    EXPECT_EQ(std::filesystem::file_size(dir + "/journal.log"),
              expected == 0 ? 0u : boundaries[expected - 1])
        << "journal truncated at byte " << cut;
  }
}

// --- end-to-end daemon -----------------------------------------------------

/// The canonical 6-cell CG grid ({ft,rr,wc} x {off,dist}) at the tiny
/// regression size; matches tests/golden/trace_digests.txt CG rows.
SweepRequest six_cell_grid() {
  SweepRequest request;
  for (const std::string placement : {"ft", "rr", "wc"}) {
    for (const std::string upm : {"off", "dist"}) {
      CellSpec spec;
      spec.benchmark = "CG";
      spec.placement = placement;
      spec.upm = upm;
      spec.iterations = 3;
      spec.size_scale = 0.25;
      request.cells.push_back(std::move(spec));
    }
  }
  return request;
}

/// Runs the same grid in-process through run_sweep: the ground truth
/// the service must be byte-compatible with.
std::vector<harness::RunResult> direct_results(const SweepRequest& request) {
  std::vector<harness::RunConfig> configs;
  configs.reserve(request.cells.size());
  for (const CellSpec& spec : request.cells) {
    configs.push_back(spec.to_config());
  }
  harness::SweepOptions options;
  options.jobs = 2;
  const harness::SweepOutcome outcome = harness::run_sweep(configs, options);
  REPRO_REQUIRE(outcome.ok());
  return outcome.results;
}

/// Daemon running on its own thread for the duration of a test.
class DaemonFixture {
 public:
  explicit DaemonFixture(DaemonConfig config)
      : daemon_(std::move(config)),
        thread_([this] { daemon_.run(); }) {}

  ~DaemonFixture() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      daemon_.request_shutdown();
      thread_.join();
    }
  }

  SweepDaemon& daemon() { return daemon_; }

 private:
  SweepDaemon daemon_;
  std::thread thread_;
};

TEST(SweepService, ColdThenWarmMatchesDirectRunSweep) {
  const std::string dir = temp_dir("cold_warm");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 3;
  config.cache.dir = dir + "/cache";
  const SweepRequest request = six_cell_grid();
  const std::vector<harness::RunResult> direct = direct_results(request);

  DaemonFixture fixture(std::move(config));
  SweepClient client(dir + "/sweepd.sock");

  const SweepReply cold = client.submit(request);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.cache_hits, 0u);
  const SweepReply warm = client.submit(request);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.cache_hits, request.cells.size());

  ASSERT_EQ(cold.cells.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    // The correctness currency: service bytes == in-process bytes,
    // and the cached answer == the computed one.
    EXPECT_EQ(cold.cells[i].result.trace_digest, direct[i].trace_digest)
        << "cell " << i << " diverged from the direct run_sweep";
    EXPECT_EQ(warm.cells[i].result.trace_digest, direct[i].trace_digest);
    EXPECT_FALSE(cold.cells[i].cached);
    EXPECT_TRUE(warm.cells[i].cached);
  }
  fixture.stop();
  const ServiceStats& stats = fixture.daemon().stats();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.cells_planned, request.cells.size());
  EXPECT_EQ(stats.cache_hits, request.cells.size());
  EXPECT_EQ(stats.cells_completed, request.cells.size());
  EXPECT_EQ(stats.cells_failed, 0u);
}

TEST(SweepService, DaemonServesASweepCheckpointDir) {
  // One store: a directory run_sweep resumes from is a cache directory
  // the daemon serves, byte for byte.
  const std::string dir = temp_dir("sweep_dir");
  const SweepRequest request = six_cell_grid();
  std::vector<harness::RunConfig> configs;
  for (const CellSpec& spec : request.cells) {
    configs.push_back(spec.to_config());
  }
  harness::SweepOptions options;
  options.jobs = 2;
  options.checkpoint_dir = dir + "/store";
  const harness::SweepOutcome swept = harness::run_sweep(configs, options);
  ASSERT_TRUE(swept.ok());

  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 1;
  config.cache.dir = dir + "/store";
  DaemonFixture fixture(std::move(config));
  SweepClient client(dir + "/sweepd.sock");
  const SweepReply reply = client.submit(request);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.cache_hits, request.cells.size());
  ASSERT_EQ(reply.cells.size(), swept.results.size());
  for (std::size_t i = 0; i < reply.cells.size(); ++i) {
    EXPECT_TRUE(reply.cells[i].cached);
    EXPECT_EQ(reply.cells[i].result.trace_digest,
              swept.results[i].trace_digest);
  }
}

TEST(SweepService, BusyShedBeyondMaxPendingRequests) {
  const std::string dir = temp_dir("busy");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 1;
  config.max_pending_requests = 1;
  config.max_attempts = 1;
  config.cell_deadline_ms = 200;
  config.straggler_duplication = false;
  config.faults.hang_rate = 1.0;  // every dispatch wedges its worker
  DaemonFixture fixture(std::move(config));

  SweepClient client(dir + "/sweepd.sock");
  SweepReply slow_reply;
  std::thread slow([&] { slow_reply = client.submit(six_cell_grid()); });
  // While the first request burns its per-cell deadlines on the single
  // worker, a second request must be shed with an explicit kBusy.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  SweepClient second(dir + "/sweepd.sock");
  const SweepReply shed = second.submit(six_cell_grid());
  EXPECT_TRUE(shed.busy);
  EXPECT_EQ(shed.exit_code(), 2);
  slow.join();

  // The slow request itself: every cell answered with a typed timeout.
  ASSERT_EQ(slow_reply.cells.size(), 6u);
  for (const CellOutcome& cell : slow_reply.cells) {
    EXPECT_TRUE(cell.answered);
    EXPECT_FALSE(cell.ok);
    EXPECT_EQ(cell.cls, harness::FailureClass::kTimeout);
  }
  EXPECT_EQ(slow_reply.exit_code(),
            harness::failure_exit_code(harness::FailureClass::kTimeout));
  fixture.stop();
  EXPECT_GE(fixture.daemon().stats().worker_deadline_kills, 6u);
  EXPECT_EQ(fixture.daemon().stats().requests_shed_busy, 1u);
}

TEST(SweepService, DedupComputesRepeatedCellOnce) {
  const std::string dir = temp_dir("dedup");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 2;
  DaemonFixture fixture(std::move(config));

  // The same cell three times in one request: planned once, fanned out
  // to every index.
  SweepRequest request;
  CellSpec spec;
  spec.benchmark = "CG";
  spec.iterations = 2;
  spec.size_scale = 0.25;
  request.cells = {spec, spec, spec};

  SweepClient client(dir + "/sweepd.sock");
  const SweepReply reply = client.submit(request);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.cells[0].result.trace_digest,
            reply.cells[1].result.trace_digest);
  EXPECT_EQ(reply.cells[0].result.trace_digest,
            reply.cells[2].result.trace_digest);
  fixture.stop();
  EXPECT_EQ(fixture.daemon().stats().cells_planned, 1u);
  EXPECT_EQ(fixture.daemon().stats().dedup_joins, 2u);
  EXPECT_EQ(fixture.daemon().stats().cells_completed, 1u);
}

TEST(SweepService, GarbageBytesGetATypedErrorAndAClosedConnection) {
  const std::string dir = temp_dir("garbage");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 1;
  DaemonFixture fixture(std::move(config));

  // Wait for the socket, then speak garbage at it.
  SweepClient probe(dir + "/sweepd.sock");
  const SweepReply empty_probe = probe.submit(SweepRequest{});
  EXPECT_FALSE(empty_probe.error.empty());  // empty request is rejected

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, (dir + "/sweepd.sock").c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  write_raw(fd, std::string(64, 'Z'));
  Frame frame;
  ASSERT_EQ(read_frame(fd, &frame), ReadResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_NE(frame.payload.find("garbled"), std::string::npos);
  EXPECT_EQ(read_frame(fd, &frame), ReadResult::kEof);
  ::close(fd);
  fixture.stop();
  EXPECT_GE(fixture.daemon().stats().protocol_errors, 1u);
}

TEST(SweepService, CacheSurvivesDaemonRestart) {
  const std::string dir = temp_dir("restart");
  const SweepRequest request = six_cell_grid();
  std::vector<std::string> first_digests;
  {
    DaemonConfig config;
    config.socket_path = dir + "/sweepd.sock";
    config.workers = 3;
    config.cache.dir = dir + "/cache";
    DaemonFixture fixture(std::move(config));
    SweepClient client(dir + "/sweepd.sock");
    const SweepReply cold = client.submit(request);
    ASSERT_TRUE(cold.ok()) << cold.error;
    for (const CellOutcome& cell : cold.cells) {
      first_digests.push_back(cell.result.trace_digest);
    }
  }  // graceful drain: snapshot flushed, workers reaped, socket gone
  EXPECT_FALSE(std::filesystem::exists(dir + "/sweepd.sock"));
  {
    DaemonConfig config;
    config.socket_path = dir + "/sweepd.sock";
    config.workers = 3;
    config.cache.dir = dir + "/cache";
    DaemonFixture fixture(std::move(config));
    SweepClient client(dir + "/sweepd.sock");
    const SweepReply warm = client.submit(request);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_EQ(warm.cache_hits, request.cells.size());
    for (std::size_t i = 0; i < warm.cells.size(); ++i) {
      EXPECT_TRUE(warm.cells[i].cached);
      EXPECT_EQ(warm.cells[i].result.trace_digest, first_digests[i]);
    }
    fixture.stop();
    EXPECT_EQ(fixture.daemon().stats().cells_planned, 0u);
  }
}

TEST(SweepService, TornFrameWorkerNeverBlocksTheDaemon) {
  // Every dispatch tears its reply mid-frame and wedges. The daemon
  // must (a) keep serving other connections while the partial frames
  // sit buffered -- a blocking read on a worker socket would freeze the
  // whole poll loop, including the deadline checks that reclaim the
  // wedged workers -- and (b) eventually answer every cell with a typed
  // timeout after the attempt budget is spent.
  const std::string dir = temp_dir("torn");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 2;
  config.cell_deadline_ms = 300;
  config.max_attempts = 2;
  config.backoff_base_ms = 1;
  config.straggler_duplication = false;
  config.faults.torn_rate = 1.0;
  DaemonFixture fixture(std::move(config));

  SweepRequest request;
  for (const std::string placement : {"ft", "rr"}) {
    CellSpec spec;
    spec.benchmark = "CG";
    spec.placement = placement;
    spec.iterations = 2;
    spec.size_scale = 0.25;
    request.cells.push_back(std::move(spec));
  }
  SweepClient client(dir + "/sweepd.sock");
  SweepReply torn_reply;
  std::thread slow([&] { torn_reply = client.submit(request); });
  // While both workers are wedged mid-frame, the daemon must still
  // answer a new connection promptly (here: reject an empty request).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SweepClient probe(dir + "/sweepd.sock");
  const SweepReply probe_reply = probe.submit(SweepRequest{});
  EXPECT_FALSE(probe_reply.error.empty());
  slow.join();

  ASSERT_EQ(torn_reply.cells.size(), request.cells.size());
  for (const CellOutcome& cell : torn_reply.cells) {
    EXPECT_TRUE(cell.answered);
    EXPECT_FALSE(cell.ok);
    EXPECT_EQ(cell.cls, harness::FailureClass::kTimeout);
  }
  fixture.stop();
  const ServiceStats& stats = fixture.daemon().stats();
  // Two cells x two attempts, each reclaimed only by the deadline kill.
  EXPECT_GE(stats.worker_deadline_kills, 4u);
  EXPECT_EQ(stats.cells_completed, 0u);
  EXPECT_EQ(stats.cells_failed, request.cells.size());
}

TEST(SweepService, ChaosSuiteAnswersEveryCellAndPreservesDigests) {
  const SweepRequest request = six_cell_grid();
  const std::vector<harness::RunResult> direct = direct_results(request);

  const std::string dir = temp_dir("chaos");
  DaemonConfig config;
  config.socket_path = dir + "/sweepd.sock";
  config.workers = 3;
  config.cell_deadline_ms = 2000;
  config.max_attempts = 8;
  config.backoff_base_ms = 1;
  config.faults.abort_rate = 0.3;
  config.faults.hang_rate = 0.2;
  config.faults.garble_rate = 0.3;
  config.faults.torn_rate = 0.2;
  DaemonFixture fixture(std::move(config));

  SweepClient client(dir + "/sweepd.sock");
  const SweepReply reply = client.submit(request);
  EXPECT_FALSE(reply.busy);
  EXPECT_TRUE(reply.error.empty()) << reply.error;
  ASSERT_EQ(reply.cells.size(), request.cells.size());
  std::size_t completed = 0;
  for (std::size_t i = 0; i < reply.cells.size(); ++i) {
    const CellOutcome& cell = reply.cells[i];
    // The contract under chaos: every cell gets an answer -- either
    // the correct bytes or a typed failure. Never silence.
    ASSERT_TRUE(cell.answered) << "cell " << i << " got no answer";
    if (cell.ok) {
      ++completed;
      EXPECT_EQ(cell.result.trace_digest, direct[i].trace_digest)
          << "chaos recovery changed the bytes of cell " << i;
    } else {
      EXPECT_FALSE(cell.message.empty());
      EXPECT_NE(harness::failure_exit_code(cell.cls), 0);
    }
  }
  fixture.stop();

  const ServiceStats& stats = fixture.daemon().stats();
  // The fault rates guarantee the recovery machinery actually ran.
  EXPECT_GT(stats.worker_crashes + stats.garbled_frames +
                stats.worker_deadline_kills,
            0u);
  EXPECT_EQ(stats.cells_completed, completed);
  EXPECT_EQ(stats.cells_completed + stats.cells_failed,
            request.cells.size());
  // Every forked worker was reaped: no zombie children survive the
  // daemon (ECHILD = this process has no children at all).
  int status = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace repro::service
