// Coherence-invariant suite for the line-grain MSI/MESI model.
//
// Four layers, mirroring DESIGN.md §15:
//
//  * CoherenceFuzz -- randomized seeded access streams driven directly
//    into CoherenceModel and checked after *every* access against an
//    independent flat-memory version oracle (a write is globally
//    visible the moment it completes; SWMR means no observer can ever
//    read a stale version) and the structural audit(), plus an
//    MSI-vs-MESI differential on one stream (identical values, sharer
//    sets and miss classification; MESI may only *reduce* upgrades),
//    the model's exact-state digest pinned after the fuzz streams, and
//    its behavioural (fast-forward) digest held to LRU ranks, way
//    states and history bits rather than stamps and versions. A
//    geometry table repeats the oracle and audit over 180 shapes (ways
//    1-16, sets 1-64, coherence lines finer and coarser than the
//    machine line, one and two sharer words, both protocols), each
//    row's final digest and statistics pinned in
//    coherence_geometry_pins.inc; CoherenceConfig covers the geometry
//    contract.
//
//  * CoherenceInvariants -- directed state-machine walks: protocol
//    transitions, inclusion/eviction behaviour (dirty evictions write
//    back, evicted lines leave the directory sharer set), and
//    flush_page semantics (drops copies, preserves values, forces cold
//    misses).
//
//  * CoherenceGolden -- an end-to-end golden grid (FS x {ft, rr} x
//    {base, upmlib} x {msi, mesi}) whose trace digests and
//    per-iteration invalidation vectors are pinned in
//    tests/golden/coherence_digests.txt and required byte-identical
//    across --jobs counts; CG ft x {msi, mesi} (the capacity-miss,
//    writeback and Exclusive-fill path) pinned the same way in
//    tests/golden/coherence_cg_digests.txt; plus a coherence-off cell
//    byte-compared against the pre-existing page-grain golden (the
//    model off is indistinguishable from a build without it).
//
//  * CoherenceAnalyzer -- the analysis.false-sharing rule scored
//    against simulation ground truth: predicted (page, line) pairs
//    must match the traced invalidation ping-pong set exactly on FS
//    (precision = recall = 1), and the padded twin FSP must be clean
//    and quiet.
//
// Regenerate both golden files after an intentional change with:
//
//   REPRO_UPDATE_GOLDEN=1 ./build/tests/test_coherence
//
// then bump harness::kModelVersion and re-pin
// GoldenTrace.ModelVersionPinsTheGoldenFiles (test_golden_trace.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "repro/coherence/config.hpp"
#include "repro/coherence/model.hpp"
#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/memsys/config.hpp"
#include "repro/trace/ground_truth.hpp"
#include "repro/trace/metrics.hpp"

namespace repro::coherence {
namespace {

using LineState = CoherenceModel::LineState;

/// Four processors, tiny caches (2 sets x 2 ways = 4 lines per proc)
/// so a handful of lines already forces capacity evictions and
/// writebacks.
memsys::MachineConfig fuzz_machine() {
  memsys::MachineConfig machine;
  machine.num_nodes = 4;
  machine.procs_per_node = 1;
  return machine;
}

CoherenceConfig fuzz_config(Policy policy) {
  CoherenceConfig config;
  config.policy = policy;
  config.sets = 2;
  config.ways = 2;
  return config;
}

/// The independent flat-memory oracle: the version every observer must
/// see for a line. Replicates the model's contract -- each written
/// line is stamped from one monotone counter, in line order within an
/// access -- without sharing any model state.
struct VersionOracle {
  std::map<std::uint64_t, std::uint64_t> versions;
  std::uint64_t counter = 0;

  void write(std::uint64_t line) { versions[line] = ++counter; }
  [[nodiscard]] std::uint64_t read(std::uint64_t line) const {
    const auto it = versions.find(line);
    return it == versions.end() ? 0 : it->second;
  }
};

struct FuzzOp {
  std::uint32_t proc = 0;
  std::uint64_t page = 0;
  std::uint32_t line_begin = 0;
  std::uint32_t lines = 1;
  bool write = false;
  bool flush = false;  ///< flush_page(page) instead of an access
  bool clear = false;  ///< clear() the whole model instead of an access
};

/// Deterministic stream over 2 pages x 8 line positions: 16-ish hot
/// lines against 4-line caches, so hits, cold misses, capacity
/// evictions, upgrades, invalidations and dirty fetches all occur.
std::vector<FuzzOp> fuzz_stream(std::uint64_t seed, std::size_t n,
                                bool with_flushes) {
  std::mt19937_64 rng(seed);
  std::vector<FuzzOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FuzzOp op;
    op.proc = static_cast<std::uint32_t>(rng() % 4);
    op.page = rng() % 2;
    op.line_begin = static_cast<std::uint32_t>(rng() % 8);
    op.lines = 1 + static_cast<std::uint32_t>(rng() % 4);
    op.write = (rng() % 2) == 1;
    op.flush = with_flushes && (rng() % 97) == 0;
    ops.push_back(op);
  }
  return ops;
}

/// A far page (the directory's page table grows when it first
/// appears) and a page no access ever touches (only flushed).
constexpr std::uint64_t kFarPage = 4097;
constexpr std::uint64_t kUntouchedPage = 2;

/// The page-layout input: fuzz_stream's mix, except that from a third
/// of the way in a third of the accesses move to kFarPage, the whole
/// model is cleared (and reused) halfway through, and every 1000th op
/// flushes kUntouchedPage -- beyond the touched pages before the far
/// page arrives, between them after.
std::vector<FuzzOp> layout_stream(std::uint64_t seed, std::size_t n) {
  std::vector<FuzzOp> ops = fuzz_stream(seed, n, /*with_flushes=*/true);
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  for (std::size_t i = n / 3; i < n; ++i) {
    if (rng() % 3 == 0) {
      ops[i].page = kFarPage;
    }
  }
  for (std::size_t i = 500; i < n; i += 1000) {
    ops[i].flush = true;
    ops[i].page = kUntouchedPage;
  }
  ops[n / 2] = FuzzOp{};
  ops[n / 2].clear = true;
  return ops;
}

/// Applies one op to a model and the oracle (oracle optional so the
/// differential test can drive two models off one oracle update).
void apply(CoherenceModel& model, const FuzzOp& op, VersionOracle* oracle) {
  if (op.clear) {
    // clear() drops memory contents with the caches (flush_all), so
    // versions restart from zero and the oracle restarts with them.
    model.clear();
    if (oracle != nullptr) {
      *oracle = VersionOracle{};
    }
    return;
  }
  if (op.flush) {
    model.flush_page(VPage(op.page));
    return;
  }
  memsys::LineAccess access;
  access.proc = ProcId(op.proc);
  access.page = VPage(op.page);
  access.line_begin = op.line_begin;
  access.lines = op.lines;
  access.write = op.write;
  const memsys::LineOutcome out = model.on_access(0, access);
  ASSERT_EQ(out.hit_lines + out.miss_lines, op.lines);
  if (oracle == nullptr) {
    return;
  }
  for (std::uint32_t k = 0; k < op.lines; ++k) {
    const auto index = (op.line_begin + k) % model.lines_per_page();
    const std::uint64_t line = model.line_id(VPage(op.page), index);
    if (op.write) {
      oracle->write(line);
    }
    // The accessor observes the globally latest version, write or
    // read: SWMR guarantees no stale copy can have survived.
    EXPECT_EQ(model.probe_version(ProcId(op.proc), line), oracle->read(line))
        << (op.write ? "write" : "read") << " by proc " << op.proc
        << " of line " << line;
  }
}

/// A page nobody touched has no sharers and reads memory's initial 0.
void expect_untouched(const CoherenceModel& model, VPage page) {
  for (std::uint32_t index = 0; index < model.lines_per_page(); ++index) {
    const std::uint64_t line = model.line_id(page, index);
    EXPECT_TRUE(model.sharers_of(line).empty()) << "line " << line;
    for (std::uint32_t p = 0; p < 4; ++p) {
      EXPECT_EQ(model.probe_version(ProcId(p), line), 0u) << "line " << line;
    }
  }
}

TEST(CoherenceFuzz, RandomStreamMatchesFlatMemoryOracle) {
  for (const Policy policy : {Policy::kMsi, Policy::kMesi}) {
    const std::uint64_t seed = 0xC0FFEE + static_cast<int>(policy);
    const std::vector<std::vector<FuzzOp>> inputs = {
        fuzz_stream(seed, /*n=*/20000, /*with_flushes=*/true),
        layout_stream(seed, /*n=*/20000)};
    for (std::size_t input = 0; input < inputs.size(); ++input) {
      const std::vector<FuzzOp>& ops = inputs[input];
      CoherenceModel model(fuzz_machine(), fuzz_config(policy));
      VersionOracle oracle;
      std::uint64_t touched = 0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        apply(model, ops[i], &oracle);
        if (!ops[i].flush && !ops[i].clear) {
          touched += ops[i].lines;
        }
        if (ops[i].flush && ops[i].page == kUntouchedPage) {
          expect_untouched(model, VPage(kUntouchedPage));
        }
        ASSERT_NO_THROW(model.audit()) << "input " << input << " op " << i;
      }

      // Accounting: every touched line is exactly one of hit / cold /
      // capacity / coherence (clear() keeps the statistics).
      const CoherenceStats totals = model.total_stats();
      EXPECT_EQ(totals.hit_lines + totals.miss_lines(), touched);
      EXPECT_GT(totals.cold_miss_lines, 0u);
      EXPECT_GT(totals.capacity_miss_lines, 0u);
      EXPECT_GT(totals.coherence_miss_lines, 0u);
      EXPECT_GT(totals.writebacks, 0u);
      EXPECT_EQ(totals.invalidations_sent, totals.invalidations_received);
    }
  }
}

// The exact-state digest (every version, stamp and directory record;
// the fast-forward gates on the behavioural digest() instead) is pinned
// here: the state after each fuzz input, per protocol.
// exact_state_digest() mixes directory entries in ascending global line
// id whatever the directory's layout, and these constants come from a
// different layout (a hash keyed by line id, walked in sorted-key
// order). One more access must move the digest.
TEST(CoherenceFuzz, DigestAfterRandomStreamIsPinned) {
  struct Pin {
    Policy policy;
    bool layout;  ///< layout_stream instead of fuzz_stream
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {Policy::kMsi, false, 0xadd30e747e4985c3ull},
      {Policy::kMesi, false, 0x2617940ceb31fd94ull},
      {Policy::kMsi, true, 0xd620b716b8085995ull},
      {Policy::kMesi, true, 0x7eb6ce50ab12d811ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t seed = 0xC0FFEE + static_cast<int>(pin.policy);
    CoherenceModel model(fuzz_machine(), fuzz_config(pin.policy));
    for (const FuzzOp& op :
         pin.layout ? layout_stream(seed, /*n=*/20000)
                    : fuzz_stream(seed, /*n=*/20000, /*with_flushes=*/true)) {
      apply(model, op, nullptr);
    }
    StateHash before;
    model.exact_state_digest(before);
    EXPECT_EQ(before.value(), pin.digest)
        << std::hex << "0x" << before.value() << " for "
        << policy_name(pin.policy) << (pin.layout ? " layout" : " fuzz");

    FuzzOp read;
    read.proc = 3;
    read.page = 1;
    read.line_begin = 7;
    apply(model, read, nullptr);
    StateHash after;
    model.exact_state_digest(after);
    EXPECT_NE(after.value(), before.value());
  }
}

// The fast-forward's behavioural digest: equal for states that differ
// only in LRU stamps and versions, different wherever the protocol's
// future differs -- a way's state, the LRU order, the history bits.
TEST(CoherenceFuzz, BehaviouralDigestCoversBehaviourNotStamps) {
  const auto digest_of = [](const CoherenceModel& model) {
    StateHash hash;
    model.digest(hash);
    return hash.value();
  };
  const auto exact_of = [](const CoherenceModel& model) {
    StateHash hash;
    model.exact_state_digest(hash);
    return hash.value();
  };
  const auto touch = [](CoherenceModel& model, std::uint32_t proc,
                        std::uint64_t page, std::uint32_t line, bool write) {
    FuzzOp op;
    op.proc = proc;
    op.page = page;
    op.line_begin = line;
    op.write = write;
    apply(model, op, nullptr);
  };

  // Lines 0 and 2 fill both ways of proc 0's set 0. Writing the most
  // recent one again moves its stamp and version, not its rank.
  CoherenceModel model(fuzz_machine(), fuzz_config(Policy::kMsi));
  touch(model, 0, 0, 0, true);
  touch(model, 0, 0, 2, true);
  const std::uint64_t digest = digest_of(model);
  const std::uint64_t exact = exact_of(model);
  touch(model, 0, 0, 2, true);
  EXPECT_EQ(digest_of(model), digest);
  EXPECT_NE(exact_of(model), exact);
  // Touching the older line reorders the set: the next victim changes.
  touch(model, 0, 0, 0, false);
  EXPECT_NE(digest_of(model), digest);

  // One way's state alone: a read fill (Shared) against a write fill
  // (Modified) of the same line by the same processor.
  CoherenceModel reader(fuzz_machine(), fuzz_config(Policy::kMsi));
  CoherenceModel writer(fuzz_machine(), fuzz_config(Policy::kMsi));
  touch(reader, 1, 0, 5, false);
  touch(writer, 1, 0, 5, true);
  EXPECT_NE(digest_of(reader), digest_of(writer));

  // The history bits alone: page 1's line 0 (set 0) is evicted by two
  // later fills of set 0, so no way holds it, but its ever-filled bit
  // still makes the next miss a capacity miss. Flushing page 1 touches
  // no way and forgets that bit.
  CoherenceModel evicted(fuzz_machine(), fuzz_config(Policy::kMsi));
  touch(evicted, 2, 1, 0, false);
  touch(evicted, 2, 0, 0, false);
  touch(evicted, 2, 0, 2, false);
  ASSERT_EQ(evicted.state_of(ProcId(2), evicted.line_id(VPage(1), 0)),
            LineState::kInvalid);
  const std::uint64_t before_flush = digest_of(evicted);
  evicted.flush_page(VPage(1));
  EXPECT_NE(digest_of(evicted), before_flush);
  ASSERT_NO_THROW(evicted.audit());
}

/// One row of the geometry table: a private-cache shape, a coherence
/// line against the machine's 128 B line, and a processor count (4 fit
/// one sharer word, 128 need two).
struct Geometry {
  std::size_t ways;
  std::size_t sets;
  Bytes line_size;
  std::uint32_t procs;
  Policy policy;
};

/// Every combination of ways {1, 2, 4, 8, 16}, sets {1, 2, 64}, line
/// {64, 128, 256} B, procs {4, 128} and {MSI, MESI}, in that nesting
/// order (ways outermost); the pins below follow it.
std::vector<Geometry> geometry_table() {
  std::vector<Geometry> table;
  for (const std::size_t ways : {1u, 2u, 4u, 8u, 16u}) {
    for (const std::size_t sets : {1u, 2u, 64u}) {
      for (const Bytes line_size : {64u, 128u, 256u}) {
        for (const std::uint32_t procs : {4u, 128u}) {
          for (const Policy policy : {Policy::kMsi, Policy::kMesi}) {
            table.push_back({ways, sets, line_size, procs, policy});
          }
        }
      }
    }
  }
  return table;
}

constexpr std::size_t kGeometryOps = 1500;

/// kGeometryOps ops over every processor: three hot pages at eight line
/// positions (sharing, upgrades, dirty fetches, coherence misses), a
/// quarter of the accesses scattered over 1024 far pages (their blocks
/// fill a directory several chunks long at every line size), whole-
/// page sweeps that wrap past the page's last line, flushes, and one
/// clear() two thirds of the way in.
std::vector<FuzzOp> geometry_stream(std::uint64_t seed, std::uint32_t procs,
                                    std::uint32_t lpp) {
  std::mt19937_64 rng(seed);
  std::vector<FuzzOp> ops(kGeometryOps);
  for (FuzzOp& op : ops) {
    op.proc = static_cast<std::uint32_t>(rng() % procs);
    op.write = rng() % 2 == 1;
    if (rng() % 4 == 0) {
      op.page = 3 + rng() % 1024;
      op.line_begin = static_cast<std::uint32_t>(rng() % lpp);
    } else {
      op.page = rng() % 3;
      op.line_begin = static_cast<std::uint32_t>(rng() % 8);
    }
    op.lines = 1 + static_cast<std::uint32_t>(rng() % 4);
    if (rng() % 64 == 0) {
      op.lines = lpp + static_cast<std::uint32_t>(rng() % 8);
    }
    op.flush = rng() % 97 == 0;
  }
  ops[2 * kGeometryOps / 3] = FuzzOp{};
  ops[2 * kGeometryOps / 3].clear = true;
  return ops;
}

/// apply() for any line ratio: machine line m touches coherence lines
/// m*fine .. m*fine+fine-1 when the coherence line is finer, and line
/// m/coarse when it is coarser. Adds the coherence lines touched to
/// `touched`.
::testing::AssertionResult apply_mapped(CoherenceModel& model,
                                        const memsys::MachineConfig& machine,
                                        const FuzzOp& op,
                                        VersionOracle& oracle,
                                        std::uint64_t& touched) {
  if (op.clear) {
    model.clear();
    oracle = VersionOracle{};
    return ::testing::AssertionSuccess();
  }
  if (op.flush) {
    model.flush_page(VPage(op.page));
    return ::testing::AssertionSuccess();
  }
  memsys::LineAccess access;
  access.proc = ProcId(op.proc);
  access.page = VPage(op.page);
  access.line_begin = op.line_begin;
  access.lines = op.lines;
  access.write = op.write;
  const memsys::LineOutcome out = model.on_access(0, access);
  const Bytes line_size = model.config().line_size;
  const auto fine = static_cast<std::uint32_t>(
      std::max<Bytes>(1, machine.cache_line / line_size));
  const auto coarse = static_cast<std::uint32_t>(
      std::max<Bytes>(1, line_size / machine.cache_line));
  std::vector<std::uint64_t> lines;
  for (std::uint32_t k = 0; k < op.lines; ++k) {
    const std::uint32_t m = (op.line_begin + k) % machine.lines_per_page();
    for (std::uint32_t f = 0; f < fine; ++f) {
      lines.push_back(
          model.line_id(VPage(op.page), fine > 1 ? m * fine + f : m / coarse));
      if (op.write) {
        oracle.write(lines.back());
      }
    }
  }
  touched += lines.size();
  if (out.hit_lines + out.miss_lines != lines.size()) {
    return ::testing::AssertionFailure()
           << out.hit_lines << " hits + " << out.miss_lines
           << " misses for " << lines.size() << " line touches";
  }
  // Checked once the whole access is done: a run past the page's last
  // line wraps and touches its first lines twice.
  for (const std::uint64_t line : lines) {
    const std::uint64_t seen = model.probe_version(ProcId(op.proc), line);
    if (seen != oracle.read(line)) {
      return ::testing::AssertionFailure()
             << (op.write ? "write" : "read") << " by proc " << op.proc
             << " of line " << line << " sees version " << seen
             << ", the oracle " << oracle.read(line);
    }
  }
  // The line touched last is still cached, and the directory lists the
  // accessor (in the second sharer word past 64 processors).
  const std::vector<std::uint32_t> sharers = model.sharers_of(lines.back());
  if (model.state_of(ProcId(op.proc), lines.back()) == LineState::kInvalid ||
      std::find(sharers.begin(), sharers.end(), op.proc) == sharers.end()) {
    return ::testing::AssertionFailure()
           << "proc " << op.proc << " lost line " << lines.back()
           << " it touched last";
  }
  return ::testing::AssertionSuccess();
}

std::uint64_t stats_hash(const CoherenceStats& s) {
  StateHash hash;
  for (const std::uint64_t v :
       {s.hit_lines, s.cold_miss_lines, s.capacity_miss_lines,
        s.coherence_miss_lines, s.upgrades, s.invalidations_sent,
        s.invalidations_received, s.writebacks, s.dirty_fetches}) {
    hash.mix(v);
  }
  return hash.value();
}

// The oracle and audit over every geometry, with the final
// exact_state_digest() and a hash of total_stats() pinned per row
// (recorded before the way walk was specialised per way count and the
// directory chunked).
TEST(CoherenceFuzz, GeometryTableMatchesOracleAndPins) {
  struct Pin {
    std::uint64_t digest;
    std::uint64_t stats;
  };
  const Pin pins[] = {
#include "coherence_geometry_pins.inc"
  };
  const std::vector<Geometry> table = geometry_table();
  ASSERT_EQ(std::size(pins), table.size());
  CoherenceStats all;
  for (std::size_t row = 0; row < table.size(); ++row) {
    const Geometry& g = table[row];
    const std::string name = "w" + std::to_string(g.ways) + " s" +
                             std::to_string(g.sets) + " l" +
                             std::to_string(g.line_size) + " p" +
                             std::to_string(g.procs) + " " +
                             policy_name(g.policy);
    memsys::MachineConfig machine;
    machine.num_nodes = g.procs;
    machine.procs_per_node = 1;
    CoherenceConfig config;
    config.policy = g.policy;
    config.line_size = g.line_size;
    config.sets = g.sets;
    config.ways = g.ways;
    CoherenceModel model(machine, config);
    VersionOracle oracle;
    std::uint64_t touched = 0;
    const std::vector<FuzzOp> ops =
        geometry_stream(0x6E0E0000 + row, g.procs, machine.lines_per_page());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(apply_mapped(model, machine, ops[i], oracle, touched))
          << name << " op " << i;
      if (i % 250 == 249) {
        ASSERT_NO_THROW(model.audit()) << name << " op " << i;
      }
    }
    ASSERT_NO_THROW(model.audit()) << name;
    const CoherenceStats totals = model.total_stats();
    EXPECT_EQ(totals.hit_lines + totals.miss_lines(), touched) << name;
    EXPECT_EQ(totals.invalidations_sent, totals.invalidations_received)
        << name;
    StateHash digest;
    model.exact_state_digest(digest);
    EXPECT_TRUE(digest.value() == pins[row].digest &&
                stats_hash(totals) == pins[row].stats)
        << "pin row " << row << ": {0x" << std::hex << digest.value()
        << "ull, 0x" << stats_hash(totals) << "ull},  // " << name;
    all.coherence_miss_lines += totals.coherence_miss_lines;
    all.capacity_miss_lines += totals.capacity_miss_lines;
    all.upgrades += totals.upgrades;
    all.writebacks += totals.writebacks;
    all.dirty_fetches += totals.dirty_fetches;
  }
  // The streams reach every protocol path somewhere in the table.
  EXPECT_GT(all.coherence_miss_lines, 0u);
  EXPECT_GT(all.capacity_miss_lines, 0u);
  EXPECT_GT(all.upgrades, 0u);
  EXPECT_GT(all.writebacks, 0u);
  EXPECT_GT(all.dirty_fetches, 0u);
}

TEST(CoherenceConfig, RejectsUnsupportedGeometry) {
  // The set index is a mask and the way walk is instantiated per way
  // count, so sets must be a power of two and ways one of five counts.
  for (const std::size_t sets : {0u, 3u, 48u}) {
    CoherenceConfig config;
    config.sets = sets;
    EXPECT_THROW(config.validate(), ContractViolation) << sets << " sets";
  }
  for (const std::size_t ways : {0u, 3u, 6u, 32u}) {
    CoherenceConfig config;
    config.ways = ways;
    EXPECT_THROW(config.validate(), ContractViolation) << ways << " ways";
  }
  // The default, the identity table's perturbations (128 sets, 4 ways)
  // and the fuzz shapes.
  const std::pair<std::size_t, std::size_t> accepted[] = {
      {64, 8}, {128, 4}, {128, 8}, {64, 4}, {2, 2}, {1, 2}};
  for (const auto& [sets, ways] : accepted) {
    CoherenceConfig config;
    config.sets = sets;
    config.ways = ways;
    EXPECT_NO_THROW(config.validate()) << sets << " x " << ways;
    EXPECT_NO_THROW({ CoherenceModel model(fuzz_machine(), config); })
        << sets << " x " << ways;
  }
}

TEST(CoherenceFuzz, MsiMesiDifferentialOnOneStream) {
  const memsys::MachineConfig machine = fuzz_machine();
  CoherenceModel msi(machine, fuzz_config(Policy::kMsi));
  CoherenceModel mesi(machine, fuzz_config(Policy::kMesi));
  // No flushes: flush_page is value-preserving but state-dropping, so
  // including it would only mask protocol divergence.
  const std::vector<FuzzOp> ops =
      fuzz_stream(/*seed=*/0x5EED, /*n=*/20000, /*with_flushes=*/false);
  VersionOracle oracle;
  for (const FuzzOp& op : ops) {
    apply(msi, op, &oracle);
    apply(mesi, op, nullptr);
    // Both protocols observe identical values at every step.
    for (std::uint32_t k = 0; k < op.lines; ++k) {
      const auto index = (op.line_begin + k) % msi.lines_per_page();
      const std::uint64_t line = msi.line_id(VPage(op.page), index);
      ASSERT_EQ(msi.probe_version(ProcId(op.proc), line),
                mesi.probe_version(ProcId(op.proc), line))
          << "line " << line;
    }
  }
  ASSERT_NO_THROW(msi.audit());
  ASSERT_NO_THROW(mesi.audit());

  // Identical sharer sets and final values everywhere; states may
  // differ only where MESI holds Exclusive and MSI holds Shared.
  for (std::uint64_t page = 0; page < 2; ++page) {
    for (std::uint32_t index = 0; index < 12; ++index) {
      const std::uint64_t line = msi.line_id(VPage(page), index);
      EXPECT_EQ(msi.sharers_of(line), mesi.sharers_of(line));
      for (std::uint32_t p = 0; p < 4; ++p) {
        EXPECT_EQ(msi.probe_version(ProcId(p), line),
                  mesi.probe_version(ProcId(p), line));
        const LineState ms = msi.state_of(ProcId(p), line);
        const LineState es = mesi.state_of(ProcId(p), line);
        if (es == LineState::kExclusive) {
          EXPECT_EQ(ms, LineState::kShared);
        } else {
          EXPECT_EQ(ms, es);
        }
      }
    }
  }

  // MESI differs from MSI in exactly one observable: Exclusive write
  // hits upgrade silently, so it may only *reduce* upgrade traffic.
  // Misses, invalidations, writebacks and dirty fetches are identical.
  for (std::uint32_t p = 0; p < 4; ++p) {
    const CoherenceStats& a = msi.stats(ProcId(p));
    const CoherenceStats& b = mesi.stats(ProcId(p));
    EXPECT_EQ(a.hit_lines, b.hit_lines) << "proc " << p;
    EXPECT_EQ(a.cold_miss_lines, b.cold_miss_lines) << "proc " << p;
    EXPECT_EQ(a.capacity_miss_lines, b.capacity_miss_lines) << "proc " << p;
    EXPECT_EQ(a.coherence_miss_lines, b.coherence_miss_lines)
        << "proc " << p;
    EXPECT_EQ(a.invalidations_sent, b.invalidations_sent) << "proc " << p;
    EXPECT_EQ(a.writebacks, b.writebacks) << "proc " << p;
    EXPECT_EQ(a.dirty_fetches, b.dirty_fetches) << "proc " << p;
    EXPECT_LE(b.upgrades, a.upgrades) << "proc " << p;
  }
  EXPECT_LT(mesi.total_stats().upgrades, msi.total_stats().upgrades);
}

TEST(CoherenceInvariants, ProtocolStateTransitions) {
  const memsys::MachineConfig machine = fuzz_machine();
  for (const Policy policy : {Policy::kMsi, Policy::kMesi}) {
    CoherenceModel model(machine, fuzz_config(policy));
    const std::uint64_t line = model.line_id(VPage(0), 3);
    const auto touch = [&](std::uint32_t proc, bool write) {
      FuzzOp op;
      op.proc = proc;
      op.page = 0;
      op.line_begin = 3;
      op.write = write;
      apply(model, op, nullptr);
    };

    // Cold read: MESI fills Exclusive (sole copy), MSI Shared.
    touch(0, /*write=*/false);
    EXPECT_EQ(model.state_of(ProcId(0), line),
              policy == Policy::kMesi ? LineState::kExclusive
                                      : LineState::kShared);
    EXPECT_EQ(model.stats(ProcId(0)).cold_miss_lines, 1u);

    // Second reader: both drop to Shared.
    touch(1, /*write=*/false);
    EXPECT_EQ(model.state_of(ProcId(0), line), LineState::kShared);
    EXPECT_EQ(model.state_of(ProcId(1), line), LineState::kShared);
    EXPECT_EQ(model.sharers_of(line), (std::vector<std::uint32_t>{0, 1}));

    // Writer upgrades: SWMR -- the other copy dies first.
    touch(0, /*write=*/true);
    EXPECT_EQ(model.state_of(ProcId(0), line), LineState::kModified);
    EXPECT_EQ(model.state_of(ProcId(1), line), LineState::kInvalid);
    EXPECT_EQ(model.sharers_of(line), (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(model.stats(ProcId(0)).upgrades, 1u);
    EXPECT_EQ(model.stats(ProcId(0)).invalidations_sent, 1u);
    EXPECT_EQ(model.stats(ProcId(1)).invalidations_received, 1u);

    // The invalidated reader returns: a *coherence* miss served by the
    // dirty owner (intervention), both settle in Shared.
    touch(1, /*write=*/false);
    EXPECT_EQ(model.stats(ProcId(1)).coherence_miss_lines, 1u);
    EXPECT_EQ(model.stats(ProcId(1)).dirty_fetches, 1u);
    EXPECT_EQ(model.state_of(ProcId(0), line), LineState::kShared);
    EXPECT_EQ(model.state_of(ProcId(1), line), LineState::kShared);
    EXPECT_EQ(model.probe_version(ProcId(1), line),
              model.probe_version(ProcId(0), line));

    // Ping-pong back: now the *first* writer takes the coherence miss.
    touch(1, /*write=*/true);
    touch(0, /*write=*/false);
    EXPECT_EQ(model.stats(ProcId(0)).coherence_miss_lines, 1u);
    ASSERT_NO_THROW(model.audit());
  }
}

TEST(CoherenceInvariants, DirtyEvictionWritesBackAndLeavesDirectory) {
  memsys::MachineConfig machine = fuzz_machine();
  CoherenceConfig config = fuzz_config(Policy::kMsi);
  config.sets = 1;  // every line contends for the same 2 ways
  CoherenceModel model(machine, config);
  const auto write_line = [&](std::uint32_t proc, std::uint32_t index) {
    FuzzOp op;
    op.proc = proc;
    op.line_begin = index;
    op.write = true;
    apply(model, op, nullptr);
  };

  write_line(0, 0);
  write_line(0, 1);
  const std::uint64_t first = model.line_id(VPage(0), 0);
  EXPECT_EQ(model.state_of(ProcId(0), first), LineState::kModified);

  // Third distinct line evicts the LRU dirty victim: one writeback,
  // the victim leaves both the cache and the directory sharer set...
  write_line(0, 2);
  EXPECT_EQ(model.stats(ProcId(0)).writebacks, 1u);
  EXPECT_EQ(model.state_of(ProcId(0), first), LineState::kInvalid);
  EXPECT_TRUE(model.sharers_of(first).empty());

  // ...but its value survives in memory: a later reader (capacity
  // miss for the evictor, cold for a stranger) sees the written
  // version, not zero.
  const std::uint64_t evicted_version = model.probe_version(ProcId(0), first);
  EXPECT_GT(evicted_version, 0u);
  FuzzOp read;
  read.proc = 1;
  read.line_begin = 0;
  apply(model, read, nullptr);
  EXPECT_EQ(model.probe_version(ProcId(1), first), evicted_version);
  EXPECT_EQ(model.stats(ProcId(1)).cold_miss_lines, 1u);

  // The evictor re-reads its own evicted line: a capacity miss (it
  // has been here before and was never invalidated).
  read.proc = 0;
  apply(model, read, nullptr);
  EXPECT_EQ(model.stats(ProcId(0)).capacity_miss_lines, 1u);
  ASSERT_NO_THROW(model.audit());
}

TEST(CoherenceInvariants, FlushDropsCopiesButPreservesValues) {
  CoherenceModel model(fuzz_machine(), fuzz_config(Policy::kMesi));
  FuzzOp op;
  op.proc = 2;
  op.line_begin = 5;
  op.lines = 3;
  op.write = true;
  apply(model, op, nullptr);
  const std::uint64_t line = model.line_id(VPage(0), 6);
  EXPECT_EQ(model.state_of(ProcId(2), line), LineState::kModified);
  const std::uint64_t version = model.probe_version(ProcId(2), line);

  model.flush_page(VPage(0));
  EXPECT_EQ(model.state_of(ProcId(2), line), LineState::kInvalid);
  EXPECT_TRUE(model.sharers_of(line).empty());
  EXPECT_EQ(model.probe_version(ProcId(2), line), version);

  // Re-touch is a *cold* miss again (flush forgets access history,
  // matching the page-grain flush semantics).
  const std::uint64_t cold_before = model.stats(ProcId(2)).cold_miss_lines;
  op.lines = 1;
  op.line_begin = 6;
  op.write = false;
  apply(model, op, nullptr);
  EXPECT_EQ(model.stats(ProcId(2)).cold_miss_lines, cold_before + 1);
  ASSERT_NO_THROW(model.audit());
}

}  // namespace
}  // namespace repro::coherence

namespace repro::harness {
namespace {

constexpr const char* kCoherenceGoldenFile =
    GOLDEN_DIR "/coherence_digests.txt";
constexpr const char* kCoherenceCgGoldenFile =
    GOLDEN_DIR "/coherence_cg_digests.txt";
constexpr const char* kPageGrainGoldenFile = GOLDEN_DIR "/trace_digests.txt";

/// The golden coherence grid: the false-sharing workload under both
/// protocols, two placements, base vs UPMlib (8 cells).
std::vector<RunConfig> coherence_grid() {
  std::vector<RunConfig> configs;
  for (const std::string policy : {"msi", "mesi"}) {
    for (const std::string placement : {"ft", "rr"}) {
      for (const bool upmlib : {false, true}) {
        RunConfig config;
        config.benchmark = "FS";
        config.placement = placement;
        config.coherence = policy;
        config.iterations = 4;
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

/// CG under first-touch at quarter size: sweeps far larger than the
/// 64 KiB private caches, so nearly every line is a capacity miss and
/// every written line a dirty eviction, and MESI's read fills are
/// Exclusive. No line is ever written while another copy exists.
std::vector<RunConfig> coherence_cg_cells() {
  std::vector<RunConfig> configs;
  for (const std::string policy : {"msi", "mesi"}) {
    RunConfig config;
    config.benchmark = "CG";
    config.placement = "ft";
    config.coherence = policy;
    config.iterations = 3;
    config.workload.size_scale = 0.25;
    config.trace = true;
    configs.push_back(std::move(config));
  }
  return configs;
}

std::string key_of(const RunResult& result) {
  return result.benchmark + " " + result.label;
}

/// One per-iteration coherence counter over the timed iterations (the
/// coherence analogue of the page-grain suite's migration vector).
std::vector<std::uint64_t> per_iteration(
    const RunResult& result,
    std::uint64_t trace::IterationMetrics::*counter) {
  std::vector<std::uint64_t> out;
  for (const trace::IterationMetrics& m : result.iteration_metrics) {
    if (m.iteration >= 1) {
      out.push_back(m.*counter);
    }
  }
  return out;
}

std::vector<std::uint64_t> invalidation_vector(const RunResult& result) {
  return per_iteration(result, &trace::IterationMetrics::line_invalidations);
}

std::vector<std::uint64_t> fill_vector(const RunResult& result) {
  return per_iteration(result, &trace::IterationMetrics::line_fills);
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

/// One golden row: the canonical-dump digest and one rendered
/// per-iteration vector (invalidations for FS, line fills for CG).
struct GoldenEntry {
  std::string digest;
  std::string per_iteration;
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
    fields >> benchmark >> label >> entry.digest >> entry.per_iteration;
    goldens[benchmark + " " + label] = entry;
  }
  return goldens;
}

using VectorOf = std::vector<std::uint64_t> (*)(const RunResult&);

void write_goldens(const char* path, const char* header,
                   const std::vector<RunResult>& results, VectorOf vector) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << header;
  for (const RunResult& r : results) {
    out << key_of(r) << ' ' << r.trace_digest << ' '
        << render_vector(vector(r)) << '\n';
  }
  std::cout << "[  UPDATED ] " << path << " (" << results.size()
            << " entries)\n";
}

/// Compares `results` row by row against the golden file at `path`,
/// which must hold exactly one entry per result.
void expect_goldens(const char* path, const std::vector<RunResult>& results,
                    VectorOf vector) {
  const std::map<std::string, GoldenEntry> goldens = load_goldens(path);
  ASSERT_FALSE(goldens.empty())
      << "no goldens at " << path
      << "; generate them with REPRO_UPDATE_GOLDEN=1";
  ASSERT_EQ(goldens.size(), results.size())
      << "golden file entry count does not match the grid; regenerate "
         "with REPRO_UPDATE_GOLDEN=1";
  for (const RunResult& r : results) {
    const auto it = goldens.find(key_of(r));
    ASSERT_NE(it, goldens.end()) << "no golden entry for " << key_of(r);
    EXPECT_EQ(r.trace_digest, it->second.digest)
        << key_of(r)
        << ": canonical trace changed; if intentional, regenerate with "
           "REPRO_UPDATE_GOLDEN=1 and review the diff";
    EXPECT_EQ(render_vector(vector(r)), it->second.per_iteration)
        << key_of(r) << ": per-iteration coherence counts changed";
  }
}

// One TEST on purpose (same shape as the page-grain golden suite):
// the grid runs twice and every assertion reuses those results.
TEST(CoherenceGolden, GridStableAcrossJobsAndMatchesCheckedInGoldens) {
  const std::vector<RunConfig> configs = coherence_grid();
  const std::vector<RunResult> parallel = run_experiments(configs, 4);
  const std::vector<RunResult> serial = run_experiments(configs, 1);
  ASSERT_EQ(parallel.size(), configs.size());
  ASSERT_EQ(serial.size(), configs.size());

  // Acceptance gate: byte-identical digests and invalidation vectors
  // between --jobs=1 and --jobs=4.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_EQ(serial[i].trace_digest.size(), 16u) << key_of(serial[i]);
    EXPECT_EQ(parallel[i].trace_digest, serial[i].trace_digest)
        << key_of(serial[i]) << ": digest depends on the job count";
    EXPECT_EQ(invalidation_vector(parallel[i]),
              invalidation_vector(serial[i]))
        << key_of(serial[i]);
    EXPECT_TRUE(serial[i].coherence_enabled) << key_of(serial[i]);
    // The grid exists to exercise the protocol: every FS cell must
    // ping-pong.
    EXPECT_GT(serial[i].coherence_totals.invalidations_sent, 0u)
        << key_of(serial[i]);
  }

  if (Env::global().get_bool("REPRO_UPDATE_GOLDEN", false)) {
    write_goldens(kCoherenceGoldenFile,
                  "# Golden coherence-grid trace digests (v2, the word "
                  "hash of the canonical events)\n"
                  "# for FS x {ft, rr} x {base, upmlib} x {msi, mesi},\n"
                  "# iterations=4.\n"
                  "#\n"
                  "# Regenerate: REPRO_UPDATE_GOLDEN=1 ./build/tests/"
                  "test_coherence\n"
                  "#\n"
                  "# benchmark label digest "
                  "line_invalidations_per_iteration\n",
                  serial, invalidation_vector);
    return;
  }
  expect_goldens(kCoherenceGoldenFile, serial, invalidation_vector);
}

// The capacity side of the protocol, which the FS grid never reaches
// (and cannot join: CG sends no invalidations). Each kLineFill event in
// the canonical dump packs its access's cold / capacity / coherence /
// dirty-fetch counts, so the digest pins per-access classification
// that run totals could mask.
TEST(CoherenceGolden, CgCapacityPathMatchesCheckedInGoldens) {
  const std::vector<RunConfig> configs = coherence_cg_cells();
  const std::vector<RunResult> results = run_experiments(configs, 2);
  ASSERT_EQ(results.size(), configs.size());
  for (const RunResult& r : results) {
    ASSERT_EQ(r.trace_digest.size(), 16u) << key_of(r);
    EXPECT_TRUE(r.coherence_enabled) << key_of(r);
    const coherence::CoherenceStats& totals = r.coherence_totals;
    EXPECT_EQ(totals.invalidations_sent, 0u) << key_of(r);
    EXPECT_EQ(totals.coherence_miss_lines, 0u) << key_of(r);
    EXPECT_GT(totals.capacity_miss_lines, totals.cold_miss_lines)
        << key_of(r);
    EXPECT_GT(totals.writebacks, 0u) << key_of(r);
    // The goldens were recorded with every iteration simulated; the
    // cells now settle after two and replay the third, so the goldens
    // pin the coherence replay path too.
    EXPECT_GT(r.iterations_replayed, 0u) << key_of(r);
  }
  // CG never writes a line it holds Shared, so MESI's only difference
  // from MSI (silent E->M upgrades) has nothing to act on: the cells
  // fill Shared vs Exclusive internally and must still trace alike.
  EXPECT_EQ(results[0].coherence_totals.upgrades, 0u);
  EXPECT_EQ(results[1].coherence_totals.upgrades, 0u);
  EXPECT_EQ(results[0].trace_digest, results[1].trace_digest);

  if (Env::global().get_bool("REPRO_UPDATE_GOLDEN", false)) {
    write_goldens(kCoherenceCgGoldenFile,
                  "# Golden coherence trace digests (v2, the word hash of "
                  "the canonical events)\n"
                  "# for CG ft x {msi, mesi}, scale 0.25, iterations=3.\n"
                  "#\n"
                  "# Regenerate: REPRO_UPDATE_GOLDEN=1 ./build/tests/"
                  "test_coherence\n"
                  "#\n"
                  "# benchmark label digest line_fills_per_iteration\n",
                  results, fill_vector);
    return;
  }
  expect_goldens(kCoherenceCgGoldenFile, results, fill_vector);
}

// The off switch really is off: a run with RunConfig::coherence empty
// must be byte-identical to the pre-coherence simulator, pinned by the
// page-grain golden file this PR did not regenerate.
TEST(CoherenceGolden, DisabledModelMatchesPageGrainGoldenByte) {
  RunConfig config;
  config.benchmark = "BT";
  config.placement = "ft";
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  config.trace = true;
  const RunResult result = run_benchmark(config);
  EXPECT_FALSE(result.coherence_enabled);
  EXPECT_EQ(result.coherence_totals.miss_lines(), 0u);

  const std::map<std::string, GoldenEntry> goldens =
      load_goldens(kPageGrainGoldenFile);
  const auto it = goldens.find("BT ft-base");
  ASSERT_NE(it, goldens.end())
      << "page-grain golden file lost its BT ft-base entry";
  EXPECT_EQ(result.trace_digest, it->second.digest)
      << "a disabled coherence model changed the page-grain timeline";
}

/// Predicted false-sharing locations: the (page, line) set of every
/// analysis.false-sharing diagnostic in the run.
std::set<std::pair<std::uint64_t, std::uint32_t>> predicted_lines(
    const RunResult& result) {
  std::set<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const analysis::Diagnostic& d : result.diagnostics) {
    if (d.rule != "analysis.false-sharing") {
      continue;
    }
    EXPECT_TRUE(d.page.has_value()) << d.message;
    EXPECT_TRUE(d.line.has_value()) << d.message;
    if (d.page.has_value() && d.line.has_value()) {
      out.emplace(d.page->value(), *d.line);
    }
  }
  return out;
}

/// Traced ground truth: the (page, line) set that actually
/// ping-ponged (>= 2 distinct invalidating writers).
std::set<std::pair<std::uint64_t, std::uint32_t>> traced_lines(
    const RunResult& result) {
  std::set<std::pair<std::uint64_t, std::uint32_t>> out;
  const trace::CoherenceGroundTruth truth =
      trace::extract_coherence_ground_truth(*result.trace);
  for (const trace::LinePingPong& line : truth.ping_pong_lines()) {
    out.emplace(line.page, line.line);
  }
  return out;
}

RunConfig analyzer_config(const std::string& benchmark) {
  RunConfig config;
  config.benchmark = benchmark;
  config.placement = "ft";
  config.coherence = "msi";
  config.iterations = 4;
  config.trace = true;
  config.analyze = true;
  return config;
}

// analysis.false-sharing scored against simulation ground truth on
// the workload built to trip it: every predicted line ping-ponged
// (precision 1.0) and every ping-ponged line was predicted (recall
// 1.0).
TEST(CoherenceAnalyzer, PredictionsMatchTracedPingPongExactly) {
  const RunResult result = run_benchmark(analyzer_config("FS"));
  const auto predicted = predicted_lines(result);
  const auto traced = traced_lines(result);
  ASSERT_FALSE(predicted.empty()) << "analyzer missed the FS flag lines";
  ASSERT_FALSE(traced.empty()) << "FS produced no invalidation ping-pong";

  std::size_t true_positives = 0;
  for (const auto& line : predicted) {
    if (traced.count(line) != 0) {
      ++true_positives;
    } else {
      ADD_FAILURE() << "predicted line never ping-ponged: page "
                    << line.first << " line " << line.second;
    }
  }
  const double precision = static_cast<double>(true_positives) /
                           static_cast<double>(predicted.size());
  const double recall = static_cast<double>(true_positives) /
                        static_cast<double>(traced.size());
  EXPECT_EQ(precision, 1.0);
  EXPECT_EQ(recall, 1.0);
  EXPECT_EQ(predicted, traced);

  // FS's 16 threads at 4 fields per line share exactly 4 flag lines.
  EXPECT_EQ(predicted.size(), 4u);
}

// The padded twin: same access counts, one field per line -- the
// analyzer must stay silent and the simulation quiet.
TEST(CoherenceAnalyzer, PaddedTwinIsCleanAndQuiet) {
  const RunResult result = run_benchmark(analyzer_config("FSP"));
  EXPECT_TRUE(predicted_lines(result).empty())
      << "false positive on the padded twin";
  EXPECT_TRUE(traced_lines(result).empty());
  EXPECT_EQ(result.coherence_totals.invalidations_sent, 0u);
  EXPECT_EQ(result.coherence_totals.coherence_miss_lines, 0u);
}

}  // namespace
}  // namespace repro::harness
