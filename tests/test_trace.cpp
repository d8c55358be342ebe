// Trace subsystem tests: sink ordering and canonicalization, the two
// exporters, the digest, the derived metrics registry, and the
// zero-perturbation guarantee when tracing is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"
#include "repro/harness/run.hpp"
#include "repro/trace/event.hpp"
#include "repro/trace/export.hpp"
#include "repro/trace/metrics.hpp"
#include "repro/trace/sink.hpp"

namespace repro::trace {
namespace {

TraceEvent at(Ns time, EventKind kind) {
  TraceEvent ev;
  ev.time = time;
  ev.kind = kind;
  return ev;
}

/// The canonical walk collected into a vector.
std::vector<TraceEvent> canonical_events(const TraceSink& sink) {
  std::vector<TraceEvent> events;
  sink.for_each_canonical(
      [&events](const TraceEvent& e) { events.push_back(e); });
  return events;
}

TEST(TraceSink, LaneRegistrationAssignsSequentialIds) {
  TraceSink sink;
  EXPECT_EQ(sink.register_lane("runtime"), 0);
  EXPECT_EQ(sink.register_lane("kernel"), 1);
  EXPECT_EQ(sink.register_lane("upmlib"), 2);
  EXPECT_EQ(sink.num_lanes(), 3u);
  EXPECT_EQ(sink.lane_name(1), "kernel");
  EXPECT_TRUE(sink.empty());
}

TEST(TraceSink, PhaseInterningReservesZeroAndDeduplicates) {
  TraceSink sink;
  EXPECT_EQ(sink.phase_name(0), "");
  const std::uint32_t a = sink.intern_phase("x_solve");
  const std::uint32_t b = sink.intern_phase("y_solve");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(sink.intern_phase("x_solve"), a);
  EXPECT_EQ(sink.num_phases(), 3u);
  EXPECT_EQ(sink.phase_name(a), "x_solve");
}

TEST(TraceSink, EmitStampsContextAndPerLaneSeq) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("test");
  sink.set_iteration(7);
  sink.set_phase(sink.intern_phase("z_solve"));
  sink.emit(lane, at(100, EventKind::kPageMigration));
  sink.emit(lane, at(200, EventKind::kPageMigration));
  const std::vector<TraceEvent>& events = sink.lane_events(lane);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[0].lane, lane);
  EXPECT_EQ(events[0].iteration, 7u);
  EXPECT_EQ(events[0].phase, 1u);
}

TEST(TraceSink, EmitNowUsesSinkClock) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("test");
  sink.set_now(12345);
  sink.emit_now(lane, at(0, EventKind::kDaemonScan));
  EXPECT_EQ(sink.lane_events(lane)[0].time, 12345u);
}

TEST(TraceSink, CanonicalOrderSortsByTimeThenLaneThenSeq) {
  TraceSink sink;
  const std::uint16_t l0 = sink.register_lane("first");
  const std::uint16_t l1 = sink.register_lane("second");
  // Emitted across lanes "out of order" on purpose: lane 1 gets its
  // events first (as a later-scheduled host thread would), and times
  // interleave across the lanes.
  sink.emit(l1, at(10, EventKind::kBarrierWait));
  sink.emit(l1, at(50, EventKind::kRegionBegin));
  sink.emit(l1, at(50, EventKind::kRegionEnd));
  sink.emit(l0, at(5, EventKind::kQueueSample));
  sink.emit(l0, at(50, EventKind::kPageMigration));
  const std::vector<TraceEvent> events = canonical_events(sink);
  ASSERT_EQ(events.size(), 5u);
  // (5, l0), (10, l1), then the time-50 tie broken by lane, then by
  // per-lane seq within lane 1.
  EXPECT_EQ(events[0].kind, EventKind::kQueueSample);
  EXPECT_EQ(events[1].kind, EventKind::kBarrierWait);
  EXPECT_EQ(events[2].kind, EventKind::kPageMigration);
  EXPECT_EQ(events[3].kind, EventKind::kRegionBegin);
  EXPECT_EQ(events[4].kind, EventKind::kRegionEnd);
  EXPECT_LT(events[3].seq, events[4].seq);
}

TEST(TraceSink, HostEmissionOrderDoesNotChangeCanonicalOrder) {
  // The same simulated events appended in two different host orders
  // (serial vs "work-stolen") must canonicalize identically. This is
  // the property the --jobs determinism suite leans on.
  const auto build = [](bool swap_host_order) {
    auto sink = std::make_unique<TraceSink>();
    const std::uint16_t a = sink->register_lane("a");
    const std::uint16_t b = sink->register_lane("b");
    if (swap_host_order) {
      sink->emit(b, at(20, EventKind::kRegionEnd));
      sink->emit(a, at(10, EventKind::kRegionBegin));
      sink->emit(a, at(20, EventKind::kPageMigration));
    } else {
      sink->emit(a, at(10, EventKind::kRegionBegin));
      sink->emit(a, at(20, EventKind::kPageMigration));
      sink->emit(b, at(20, EventKind::kRegionEnd));
    }
    return sink;
  };
  const auto serial = build(false);
  const auto stolen = build(true);
  EXPECT_EQ(canonical_dump(*serial), canonical_dump(*stolen));
  EXPECT_EQ(digest(*serial), digest(*stolen));
}

TEST(TraceSink, CanonicalWalkEqualsSortOnRandomLaneStreams) {
  // Random streams, each lane in time order, appended in a random host
  // interleaving: the merge walk must equal a stable (time, lane) sort
  // of the lanes laid end to end, i.e. the (time, lane, seq) order.
  // Small time steps make cross-lane ties common; lane counts 0..8
  // cover no lanes, a single lane and registered lanes left empty.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    TraceSink sink;
    const auto lanes = static_cast<std::uint16_t>(trial % 9);
    std::vector<std::size_t> remaining(lanes);
    std::vector<Ns> clock(lanes, 0);
    for (std::uint16_t l = 0; l < lanes; ++l) {
      sink.register_lane("lane" + std::to_string(l));
      remaining[l] = rng() % 4 == 0 ? 0 : rng() % 40;  // some stay empty
    }
    std::uint64_t tag = 0;
    for (bool more = true; more;) {
      more = false;
      for (std::uint16_t l = 0; l < lanes; ++l) {
        if (remaining[l] == 0 || rng() % 2 == 0) {
          more = more || remaining[l] != 0;
          continue;
        }
        clock[l] += rng() % 3;  // 0: a same-lane tie
        TraceEvent ev = at(clock[l], EventKind::kPageMigration);
        ev.page = tag++;
        sink.emit(l, ev);
        more = more || --remaining[l] != 0;
      }
    }
    std::vector<TraceEvent> sorted;
    for (std::uint16_t l = 0; l < lanes; ++l) {
      const std::vector<TraceEvent>& events = sink.lane_events(l);
      sorted.insert(sorted.end(), events.begin(), events.end());
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& x, const TraceEvent& y) {
                       return x.time != y.time ? x.time < y.time
                                               : x.lane < y.lane;
                     });
    const std::vector<TraceEvent> walked = canonical_events(sink);
    ASSERT_EQ(walked.size(), sorted.size()) << "trial " << trial;
    for (std::size_t i = 0; i < walked.size(); ++i) {
      ASSERT_EQ(walked[i].page, sorted[i].page)
          << "trial " << trial << " event " << i;
    }
  }
}

TEST(TraceSink, AppendingAnEarlierTimeToALaneThrows) {
  TraceSink sink;
  const std::uint16_t l0 = sink.register_lane("a");
  const std::uint16_t l1 = sink.register_lane("b");
  sink.emit(l0, at(10, EventKind::kRegionBegin));
  sink.emit(l0, at(10, EventKind::kRegionEnd));  // equal time is fine
  sink.emit(l1, at(5, EventKind::kRegionBegin));  // other lanes are free
  EXPECT_THROW(sink.emit(l0, at(9, EventKind::kRegionBegin)),
               ContractViolation);
  EXPECT_THROW(sink.append_replayed(l0, at(9, EventKind::kRegionBegin)),
               ContractViolation);
  EXPECT_EQ(sink.lane_events(l0).size(), 2u);
  sink.append_replayed(l1, at(5, EventKind::kRegionEnd));
  sink.clear();  // an emptied lane starts over
  sink.emit(l0, at(1, EventKind::kRegionBegin));
  EXPECT_EQ(sink.size(), 1u);
}

TEST(TraceSink, ClearDropsEventsButKeepsLanesAndPhases) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("test");
  const std::uint32_t phase = sink.intern_phase("cold");
  sink.emit(lane, at(1, EventKind::kRegionBegin));
  ASSERT_EQ(sink.size(), 1u);
  sink.clear();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.num_lanes(), 1u);
  EXPECT_EQ(sink.phase_name(phase), "cold");
}

TEST(EventKindNames, StableLowercaseIdentifiers) {
  EXPECT_STREQ(event_kind_name(EventKind::kRegionBegin), "region_begin");
  EXPECT_STREQ(event_kind_name(EventKind::kPageMigration),
               "page_migration");
  EXPECT_STREQ(event_kind_name(EventKind::kUpmCall), "upm_call");
  EXPECT_STREQ(event_kind_name(EventKind::kIterationEnd), "iteration_end");
}

TEST(CanonicalDump, RendersHeaderTablesAndEventLines) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("kernel");
  sink.set_phase(sink.intern_phase("z_solve"));
  sink.set_iteration(2);
  TraceEvent ev = at(1500, EventKind::kPageMigration);
  ev.page = 42;
  ev.src = 0;
  ev.dst = 3;
  ev.cost = 25000;
  sink.emit(lane, ev);

  const std::string dump = canonical_dump(sink);
  EXPECT_EQ(dump,
            "# repro-trace v1\n"
            "lane 0 kernel\n"
            "phase 1 z_solve\n"
            "1500 page_migration lane=0 seq=0 it=2 ph=1 node=-1 src=0 "
            "dst=3 page=42 a=0 b=0 cost=25000\n");
}

TEST(CanonicalDump, RoundTripsThroughWriteCanonical) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("test");
  sink.emit(lane, at(7, EventKind::kQueueSample));
  std::ostringstream os;
  write_canonical(os, sink);
  EXPECT_EQ(os.str(), canonical_dump(sink));
}

TEST(Digest, MatchesFnv1aReferenceValues) {
  // FNV-1a 64 reference vectors (offset basis, and the published "a").
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
}

TEST(Digest, SixteenHexDigitsStableAndSensitive) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("test");
  sink.emit(lane, at(10, EventKind::kPageMigration));
  const std::string d1 = digest(sink);
  EXPECT_EQ(d1.size(), 16u);
  EXPECT_EQ(d1.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(digest(sink), d1);  // stable across calls

  TraceSink other;
  const std::uint16_t olane = other.register_lane("test");
  TraceEvent ev = at(10, EventKind::kPageMigration);
  ev.page = 1;  // one payload field differs
  other.emit(olane, ev);
  EXPECT_NE(digest(other), d1);
}

/// Re-encodes a canonical dump from its text alone into the digest's
/// word stream (export.hpp's v2 layout), and hashes it.
std::string digest_of_dump_text(const std::string& dump) {
  std::istringstream in(dump);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# repro-trace v1");
  std::vector<std::string> lanes;
  std::vector<std::string> phases;
  std::vector<std::uint64_t> words;
  const auto field = [](std::istringstream& ls, const char* key) {
    std::string token;
    ls >> token;
    EXPECT_EQ(token.substr(0, token.find('=')), key);
    return token.substr(token.find('=') + 1);
  };
  const auto pack = [](std::int64_t low, std::uint64_t high) {
    return static_cast<std::uint32_t>(low) | high << 32;
  };
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == "lane" || head == "phase") {
      std::size_t id = 0;
      ls >> id;
      (head == "lane" ? lanes : phases).push_back(line.substr(
          line.find(' ', head.size() + 1) + 1));
      continue;
    }
    std::string kind_name;
    ls >> kind_name;
    std::uint64_t kind = kNumEventKinds;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      if (kind_name == event_kind_name(static_cast<EventKind>(k))) {
        kind = k;
      }
    }
    EXPECT_LT(kind, kNumEventKinds) << line;
    const std::uint64_t lane = std::stoull(field(ls, "lane"));
    const std::uint64_t seq = std::stoull(field(ls, "seq"));
    const std::uint64_t it = std::stoull(field(ls, "it"));
    const std::uint64_t ph = std::stoull(field(ls, "ph"));
    const std::int64_t node = std::stoll(field(ls, "node"));
    const std::int64_t src = std::stoll(field(ls, "src"));
    const std::int64_t dst = std::stoll(field(ls, "dst"));
    const std::uint64_t page = std::stoull(field(ls, "page"));
    const std::uint64_t a = std::stoull(field(ls, "a"));
    const std::uint64_t b = std::stoull(field(ls, "b"));
    const std::uint64_t cost = std::stoull(field(ls, "cost"));
    for (const std::uint64_t w : std::initializer_list<std::uint64_t>{
             std::stoull(head), page, a, b, cost,
          pack(node, static_cast<std::uint32_t>(src)),
          pack(dst, kind | lane << 16), pack(static_cast<std::int64_t>(seq), it),
          ph}) {
      words.push_back(w);
    }
  }
  WordHash hash;
  hash.add(2);
  hash.add(lanes.size());
  for (const std::string& name : lanes) {
    hash.add_bytes(name);
  }
  hash.add(phases.size());
  for (const std::string& name : phases) {
    hash.add_bytes(name);
  }
  for (const std::uint64_t w : words) {
    hash.add(w);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash.finish()));
  return hex;
}

TEST(Digest, EqualsWordHashOfTheDumpReencodedFromItsText) {
  // The dump and the digest carry the same fields: re-encoding the
  // dump's text must give the digest. The sink covers every event kind
  // on three lanes, equal-time ties across lanes (and within one lane),
  // negative node ids, all-ones 64-bit payloads, several phases and
  // iterations, and lane names longer than one word.
  TraceSink sink;
  const std::uint16_t lanes[] = {sink.register_lane("runtime"),
                                 sink.register_lane("kernel-migrations"),
                                 sink.register_lane("upmlib")};
  const std::uint32_t phases[] = {0, sink.intern_phase("x_solve"),
                                  sink.intern_phase("y_solve"),
                                  sink.intern_phase("conj_grad")};
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    for (const std::uint16_t lane : lanes) {
      sink.set_iteration(static_cast<std::uint32_t>(k % 5));
      sink.set_phase(phases[(k + lane) % 4]);
      TraceEvent ev = at(static_cast<Ns>(k / 3) * 1000,
                         static_cast<EventKind>(k));
      ev.node = -1 - static_cast<std::int32_t>(lane);
      ev.src = k % 2 == 0 ? -7 : static_cast<std::int32_t>(k);
      ev.dst = k % 3 == 0 ? INT32_MIN : INT32_MAX;
      ev.page = k % 2 == 0 ? UINT64_MAX : k;
      ev.a = UINT64_MAX;
      ev.b = UINT64_MAX - k;
      ev.cost = k % 4 == 0 ? UINT64_MAX : 0;
      sink.emit(lane, ev);
      if (lane == lanes[1]) {
        sink.emit(lane, ev);  // same-lane tie: seq decides
      }
    }
  }
  const std::string dump = canonical_dump(sink);
  ASSERT_NE(dump.find("node=-3"), std::string::npos);
  ASSERT_NE(dump.find("a=18446744073709551615"), std::string::npos);
  EXPECT_EQ(digest(sink), digest_of_dump_text(dump));

  TraceSink empty;
  EXPECT_EQ(digest(empty), digest_of_dump_text(canonical_dump(empty)));
}

TEST(Digest, WordHashReferenceValues) {
  // Pinned: any change re-records every golden digest.
  EXPECT_EQ(WordHash{}.finish(), 0xb992b056e7d8a844ull);
  EXPECT_EQ(word_hash(""), 0x56114e985901af76ull);
  EXPECT_EQ(word_hash("a"), 0x5d0baf05a27351a9ull);
  WordHash words;
  for (const std::uint64_t w :
       std::initializer_list<std::uint64_t>{0, 1, UINT64_MAX}) {
    words.add(w);
  }
  EXPECT_EQ(words.finish(), 0xf6317333b8893a6bull);
  // add_bytes: the length word, then little-endian words, zero-padded.
  WordHash manual;
  manual.add(9);
  manual.add(0x6867666564636261ull);  // "abcdefgh"
  manual.add(0x69);                   // "i"
  EXPECT_EQ(word_hash("abcdefghi"), manual.finish());
  EXPECT_NE(word_hash("a"), word_hash(std::string_view("a\0", 2)));
}

TEST(ChromeTrace, EmitsRegionBarrierCounterAndInstantEvents) {
  TraceSink sink;
  const std::uint16_t lane = sink.register_lane("runtime");
  sink.set_phase(sink.intern_phase("conj_grad"));
  sink.emit(lane, at(1000, EventKind::kRegionBegin));
  TraceEvent wait = at(5000, EventKind::kBarrierWait);
  wait.node = 2;
  wait.a = 3000;
  sink.emit(lane, wait);
  TraceEvent idle = at(5000, EventKind::kBarrierWait);
  idle.node = 3;
  idle.a = 0;  // zero-length waits are dropped from the viewer
  sink.emit(lane, idle);
  TraceEvent queue = at(5000, EventKind::kQueueSample);
  queue.node = 1;
  queue.a = 250;
  sink.emit(lane, queue);
  sink.emit(lane, at(5000, EventKind::kRegionEnd));
  TraceEvent mig = at(6000, EventKind::kPageMigration);
  mig.page = 9;
  sink.emit(lane, mig);

  std::ostringstream os;
  write_chrome_trace(os, sink);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"conj_grad\""), std::string::npos);
  // Barrier slice: starts at end - wait = 2000 ns = 2 us, tid = node+1.
  EXPECT_NE(json.find("\"ph\": \"X\", \"pid\": 0, \"tid\": 3, "
                      "\"ts\": 2, \"dur\": 3"),
            std::string::npos);
  EXPECT_EQ(json.find("\"tid\": 4"), std::string::npos);  // idle dropped
  EXPECT_NE(json.find("\"queue_backlog_node1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"page_migration\""), std::string::npos);
  // Crude well-formedness: balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Percentile95, NearestRank) {
  EXPECT_EQ(percentile95({}), 0u);
  EXPECT_EQ(percentile95({42}), 42u);
  // n = 20: rank = ceil(0.95 * 20) = 19 -> second largest.
  std::vector<Ns> twenty;
  for (Ns i = 1; i <= 20; ++i) {
    twenty.push_back(i * 10);
  }
  EXPECT_EQ(percentile95(twenty), 190u);
  // Order must not matter (the function sorts its copy).
  EXPECT_EQ(percentile95({30, 10, 20}), 30u);
}

TEST(MetricsRegistry, DerivesPerIterationRowsFromHandBuiltStream) {
  TraceSink sink;
  const std::uint16_t kernel = sink.register_lane("kernel");
  const std::uint16_t upm = sink.register_lane("upmlib");
  const std::uint16_t harness = sink.register_lane("harness");

  sink.set_iteration(1);
  TraceEvent mig = at(100, EventKind::kPageMigration);
  mig.cost = 25000;
  sink.emit(kernel, mig);
  sink.emit(kernel, mig);
  TraceEvent rep = at(150, EventKind::kPageReplication);
  sink.emit(kernel, rep);
  TraceEvent freeze = at(160, EventKind::kPageFreeze);
  sink.emit(upm, freeze);
  TraceEvent call = at(200, EventKind::kUpmCall);
  call.b = 2;  // migrations performed by the call
  call.cost = 60000;
  sink.emit(upm, call);
  TraceEvent wait = at(210, EventKind::kBarrierWait);
  wait.a = 500;
  sink.emit(kernel, wait);
  sink.emit(kernel, wait);
  for (const Ns backlog : {Ns{100}, Ns{200}, Ns{300}}) {
    TraceEvent sample = at(220, EventKind::kQueueSample);
    sample.a = backlog;
    sink.emit(kernel, sample);
  }
  TraceEvent end = at(250, EventKind::kIterationEnd);
  end.a = 30;  // remote miss lines
  end.b = 70;  // local miss lines
  sink.emit(harness, end);

  sink.set_iteration(2);
  TraceEvent scan = at(300, EventKind::kDaemonScan);
  scan.a = static_cast<std::uint64_t>(DaemonDecision::kMigrated);
  sink.emit(kernel, scan);
  TraceEvent suppressed = at(310, EventKind::kDaemonScan);
  suppressed.a =
      static_cast<std::uint64_t>(DaemonDecision::kSuppressedFrozen);
  sink.emit(kernel, suppressed);
  TraceEvent end2 = at(350, EventKind::kIterationEnd);
  end2.a = 10;
  end2.b = 90;
  sink.emit(harness, end2);

  const MetricsRegistry registry(sink);
  ASSERT_EQ(registry.per_iteration().size(), 2u);
  const IterationMetrics& it1 = registry.per_iteration()[0];
  EXPECT_EQ(it1.iteration, 1u);
  EXPECT_EQ(it1.migrations, 2u);
  EXPECT_EQ(it1.migration_cost, 50000u);
  EXPECT_EQ(it1.upm_migrations, 2u);
  EXPECT_EQ(it1.daemon_migrations, 0u);
  EXPECT_EQ(it1.replications, 1u);
  EXPECT_EQ(it1.freezes, 1u);
  EXPECT_EQ(it1.barrier_wait, 1000u);
  EXPECT_EQ(it1.queue_backlog_p95, 300u);
  EXPECT_EQ(it1.remote_miss_lines, 30u);
  EXPECT_EQ(it1.local_miss_lines, 70u);
  EXPECT_DOUBLE_EQ(it1.remote_ratio(), 0.3);

  const IterationMetrics& it2 = registry.per_iteration()[1];
  EXPECT_EQ(it2.iteration, 2u);
  EXPECT_EQ(it2.migrations, 0u);
  // Only the kMigrated decision counts; suppressions do not.
  EXPECT_EQ(it2.daemon_migrations, 1u);
  EXPECT_EQ(it2.queue_backlog_p95, 0u);
  EXPECT_DOUBLE_EQ(it2.remote_ratio(), 0.1);

  const IterationMetrics totals = registry.totals();
  EXPECT_EQ(totals.migrations, 2u);
  EXPECT_EQ(totals.daemon_migrations, 1u);
  EXPECT_EQ(totals.remote_miss_lines, 40u);
  EXPECT_EQ(totals.local_miss_lines, 160u);

  EXPECT_EQ(registry.migrations_per_timed_iteration(),
            (std::vector<std::uint64_t>{2, 0}));
}

TEST(MetricsRegistry, EmptyTraceYieldsNoRows) {
  TraceSink sink;
  sink.register_lane("test");
  const MetricsRegistry registry(sink);
  EXPECT_TRUE(registry.per_iteration().empty());
  EXPECT_TRUE(registry.migrations_per_timed_iteration().empty());
  EXPECT_EQ(registry.totals().migrations, 0u);
  EXPECT_DOUBLE_EQ(registry.totals().remote_ratio(), 0.0);
}

harness::RunConfig tiny_config(const std::string& benchmark) {
  harness::RunConfig config;
  config.benchmark = benchmark;
  config.iterations = 2;
  config.workload.size_scale = 0.25;
  return config;
}

/// The reference derivation: bucket the canonical (time, lane, seq)
/// stream by iteration, one sample vector per iteration plus one for
/// the totals. MetricsRegistry must agree with it whatever order it
/// walks the events in.
struct ReferenceMetrics {
  std::vector<IterationMetrics> rows;
  IterationMetrics totals;
};

ReferenceMetrics reference_metrics(const TraceSink& sink) {
  std::map<std::uint32_t, IterationMetrics> buckets;
  std::map<std::uint32_t, std::vector<Ns>> samples;
  std::vector<Ns> all_samples;
  for (const TraceEvent& e : canonical_events(sink)) {
    IterationMetrics& m = buckets[e.iteration];
    m.iteration = e.iteration;
    switch (e.kind) {
      case EventKind::kPageMigration:
        ++m.migrations;
        m.migration_cost += e.cost;
        break;
      case EventKind::kUpmCall:
        m.upm_migrations += e.b;
        break;
      case EventKind::kDaemonScan:
        if (e.a == static_cast<std::uint64_t>(DaemonDecision::kMigrated)) {
          ++m.daemon_migrations;
        }
        break;
      case EventKind::kPageReplication:
        ++m.replications;
        break;
      case EventKind::kPageFreeze:
        ++m.freezes;
        break;
      case EventKind::kBarrierWait:
        m.barrier_wait += e.a;
        break;
      case EventKind::kQueueSample:
        samples[e.iteration].push_back(e.a);
        all_samples.push_back(e.a);
        break;
      case EventKind::kIterationEnd:
        m.remote_miss_lines += e.a;
        m.local_miss_lines += e.b;
        break;
      case EventKind::kFaultInjection:
        ++m.faults_injected;
        break;
      case EventKind::kLineFill:
        m.line_fills += e.a;
        m.coherence_misses += (e.b >> 32) & 0xffffu;
        break;
      case EventKind::kLineInvalidate:
        m.line_invalidations += e.b;
        break;
      case EventKind::kLineUpgrade:
        m.line_upgrades += e.a;
        break;
      case EventKind::kLineWriteback:
        m.line_writebacks += e.a;
        break;
      default:
        break;
    }
  }
  ReferenceMetrics out;
  for (auto& [iteration, m] : buckets) {
    m.queue_backlog_p95 = percentile95(std::move(samples[iteration]));
    out.rows.push_back(m);
    IterationMetrics& t = out.totals;
    t.migrations += m.migrations;
    t.upm_migrations += m.upm_migrations;
    t.daemon_migrations += m.daemon_migrations;
    t.replications += m.replications;
    t.freezes += m.freezes;
    t.migration_cost += m.migration_cost;
    t.barrier_wait += m.barrier_wait;
    t.remote_miss_lines += m.remote_miss_lines;
    t.local_miss_lines += m.local_miss_lines;
    t.faults_injected += m.faults_injected;
    t.line_fills += m.line_fills;
    t.coherence_misses += m.coherence_misses;
    t.line_invalidations += m.line_invalidations;
    t.line_upgrades += m.line_upgrades;
    t.line_writebacks += m.line_writebacks;
  }
  out.totals.queue_backlog_p95 = percentile95(std::move(all_samples));
  return out;
}

void expect_same_metrics(const IterationMetrics& got,
                         const IterationMetrics& want,
                         const std::string& where) {
  EXPECT_EQ(got.iteration, want.iteration) << where;
  EXPECT_EQ(got.migrations, want.migrations) << where;
  EXPECT_EQ(got.upm_migrations, want.upm_migrations) << where;
  EXPECT_EQ(got.daemon_migrations, want.daemon_migrations) << where;
  EXPECT_EQ(got.replications, want.replications) << where;
  EXPECT_EQ(got.freezes, want.freezes) << where;
  EXPECT_EQ(got.migration_cost, want.migration_cost) << where;
  EXPECT_EQ(got.barrier_wait, want.barrier_wait) << where;
  EXPECT_EQ(got.remote_miss_lines, want.remote_miss_lines) << where;
  EXPECT_EQ(got.local_miss_lines, want.local_miss_lines) << where;
  EXPECT_EQ(got.queue_backlog_p95, want.queue_backlog_p95) << where;
  EXPECT_EQ(got.faults_injected, want.faults_injected) << where;
  EXPECT_EQ(got.line_fills, want.line_fills) << where;
  EXPECT_EQ(got.coherence_misses, want.coherence_misses) << where;
  EXPECT_EQ(got.line_invalidations, want.line_invalidations) << where;
  EXPECT_EQ(got.line_upgrades, want.line_upgrades) << where;
  EXPECT_EQ(got.line_writebacks, want.line_writebacks) << where;
}

TEST(MetricsRegistry, LaneWalkMatchesCanonicalWalk) {
  // One traced cell per emitting engine: UPMlib distribution, the
  // kernel daemon, record-replay, line-grain coherence and injected
  // faults.
  std::vector<harness::RunConfig> configs;
  configs.reserve(5);  // cell() hands out pointers into the vector
  const auto cell = [&configs](const std::string& benchmark,
                               const std::string& placement) {
    harness::RunConfig config;
    config.benchmark = benchmark;
    config.placement = placement;
    config.iterations = 3;
    config.workload.size_scale = 0.25;
    config.trace = true;
    configs.push_back(config);
    return &configs.back();
  };
  cell("CG", "rr")->upm_mode = nas::UpmMode::kDistribution;
  cell("CG", "rr")->kernel_migration = true;
  cell("BT", "ft")->upm_mode = nas::UpmMode::kRecordReplay;
  cell("FS", "ft")->coherence = "msi";
  harness::RunConfig* faulty = cell("CG", "rr");
  faulty->upm_mode = nas::UpmMode::kDistribution;
  faulty->fault.counter_rate = 0.2;
  faulty->fault.migration_busy_rate = 0.2;
  faulty->fault.slowdown_rate = 0.01;
  faulty->fault.preemption_rate = 0.1;

  for (const harness::RunConfig& config : configs) {
    const harness::RunResult result = harness::run_benchmark(config);
    const std::string where = result.benchmark + " " + result.label;
    ASSERT_NE(result.trace, nullptr) << where;
    const MetricsRegistry registry(*result.trace);
    const ReferenceMetrics want = reference_metrics(*result.trace);
    ASSERT_FALSE(want.rows.empty()) << where;
    ASSERT_EQ(registry.per_iteration().size(), want.rows.size()) << where;
    for (std::size_t i = 0; i < want.rows.size(); ++i) {
      expect_same_metrics(registry.per_iteration()[i], want.rows[i],
                          where + " row " + std::to_string(i));
    }
    expect_same_metrics(registry.totals(), want.totals, where + " totals");
  }
}

TEST(TracingOff, NoSinkNoDigestNoMetrics) {
  const harness::RunResult result = run_benchmark(tiny_config("CG"));
  EXPECT_EQ(result.trace, nullptr);
  EXPECT_TRUE(result.trace_digest.empty());
  EXPECT_TRUE(result.iteration_metrics.empty());
}

TEST(TracingOn, DoesNotPerturbTheSimulation) {
  // Tracing must be pure observation: the simulated timeline with the
  // sink attached is bit-identical to the untraced run.
  harness::RunConfig config = tiny_config("CG");
  config.upm_mode = nas::UpmMode::kDistribution;
  const harness::RunResult off = run_benchmark(config);
  config.trace = true;
  const harness::RunResult on = run_benchmark(config);
  EXPECT_EQ(off.total, on.total);
  EXPECT_EQ(off.iteration_times, on.iteration_times);
  EXPECT_EQ(off.memory_totals.remote_miss_lines,
            on.memory_totals.remote_miss_lines);
  ASSERT_NE(on.trace, nullptr);
  EXPECT_FALSE(on.trace->empty());
  EXPECT_EQ(on.trace_digest.size(), 16u);
  EXPECT_FALSE(on.iteration_metrics.empty());
}

TEST(TracingOn, DigestIdenticalAcrossConsecutiveRuns) {
  harness::RunConfig config = tiny_config("BT");
  config.trace = true;
  const harness::RunResult a = run_benchmark(config);
  const harness::RunResult b = run_benchmark(config);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_EQ(canonical_dump(*a.trace), canonical_dump(*b.trace));
}

TEST(TracingOn, IterationMetricsCoverTimedIterations) {
  harness::RunConfig config = tiny_config("MG");
  config.trace = true;
  const harness::RunResult result = run_benchmark(config);
  ASSERT_FALSE(result.iteration_metrics.empty());
  // The cold start is cleared, so the first row is timed iteration 1.
  EXPECT_GE(result.iteration_metrics.front().iteration, 1u);
  EXPECT_EQ(result.iteration_metrics.back().iteration, 2u);
  std::uint64_t miss_lines = 0;
  for (const IterationMetrics& m : result.iteration_metrics) {
    miss_lines += m.remote_miss_lines + m.local_miss_lines;
  }
  EXPECT_GT(miss_lines, 0u);
}

}  // namespace
}  // namespace repro::trace
