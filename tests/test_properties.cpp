// Property-based tests: deterministic pseudo-random workloads driven
// over the whole stack, asserting global invariants that must hold for
// ANY access pattern -- frame conservation, counter saturation, stats
// consistency, migration/replication safety and simulation determinism.
#include <gtest/gtest.h>

#include <map>

#include "repro/common/rng.hpp"
#include "repro/omp/machine.hpp"
#include "repro/upmlib/upmlib.hpp"

namespace repro {
namespace {

memsys::MachineConfig fuzz_config() {
  memsys::MachineConfig config;
  config.num_nodes = 8;
  config.procs_per_node = 1;
  config.frames_per_node = 256;  // headroom: pages + full replication
  config.l2_size = 8 * config.page_size;
  return config;
}

/// One pseudo-random step against the machine: access, migrate,
/// replicate or collapse, chosen by the seeded RNG.
class FuzzDriver {
 public:
  FuzzDriver(std::uint64_t seed, std::uint64_t pages)
      : rng_(seed), pages_(pages), machine_(omp::Machine::create(fuzz_config())) {}

  void step() {
    const VPage page(rng_.next_below(pages_));
    const ProcId proc(static_cast<std::uint32_t>(rng_.next_below(8)));
    const NodeId node(static_cast<std::uint32_t>(rng_.next_below(8)));
    switch (rng_.next_below(8)) {
      case 0:
      case 1:
      case 2:
      case 3:  // plain accesses dominate
      case 4: {
        const auto lines = static_cast<std::uint32_t>(
            1 + rng_.next_below(machine_->config().lines_per_page()));
        const bool write = rng_.next_below(2) == 0;
        const bool stream = rng_.next_below(4) == 0;
        const auto r = machine_->memory().access(
            now_, {proc, page, lines, write, stream});
        now_ += r.elapsed + 10;
        break;
      }
      case 5:
        if (machine_->kernel().is_mapped(page)) {
          machine_->kernel().migrate_page(page, node);
        }
        break;
      case 6:
        if (machine_->kernel().is_mapped(page)) {
          machine_->kernel().replicate_page(page, node);
        }
        break;
      default:
        if (machine_->kernel().is_mapped(page)) {
          machine_->kernel().collapse_replicas(page);
        }
        break;
    }
  }

  omp::Machine& machine() { return *machine_; }
  [[nodiscard]] std::uint64_t pages() const { return pages_; }
  [[nodiscard]] Ns now() const { return now_; }

 private:
  Rng rng_;
  std::uint64_t pages_;
  std::unique_ptr<omp::Machine> machine_;
  Ns now_ = 0;
};

class FuzzInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzInvariants, FrameAccountingBalances) {
  FuzzDriver driver(GetParam(), 200);
  for (int i = 0; i < 4000; ++i) {
    driver.step();
  }
  const os::Kernel& kernel = driver.machine().kernel();
  // Every allocated frame is either a primary or a replica; free +
  // used == total.
  std::uint64_t used = 0;
  for (const auto& [page, entry] : kernel.page_table().entries()) {
    used += 1 + entry.replicas().size();
  }
  EXPECT_EQ(kernel.physical_memory().total_free() + used,
            driver.machine().config().total_frames());
}

TEST_P(FuzzInvariants, NoFrameIsSharedBetweenPages) {
  FuzzDriver driver(GetParam() ^ 0x1234, 150);
  for (int i = 0; i < 4000; ++i) {
    driver.step();
  }
  std::map<std::uint64_t, VPage> owner_of_frame;
  for (const auto& [page, entry] :
       driver.machine().kernel().page_table().entries()) {
    auto claim = [&](FrameId frame) {
      const auto [it, inserted] =
          owner_of_frame.emplace(frame.value(), page);
      EXPECT_TRUE(inserted) << "frame " << frame.value()
                            << " owned by pages " << it->second.value()
                            << " and " << page.value();
    };
    claim(entry.frame);
    for (const FrameId replica : entry.replicas()) {
      claim(replica);
    }
  }
}

TEST_P(FuzzInvariants, CountersNeverExceedHardwareWidth) {
  FuzzDriver driver(GetParam() ^ 0x5678, 100);
  for (int i = 0; i < 3000; ++i) {
    driver.step();
  }
  const os::Kernel& kernel = driver.machine().kernel();
  const std::uint32_t max = driver.machine().config().counter_max();
  for (const auto& [page, entry] : kernel.page_table().entries()) {
    for (const auto count : kernel.read_counters(page)) {
      EXPECT_LE(count, max);
    }
  }
}

TEST_P(FuzzInvariants, HomeNodeMatchesFrameNode) {
  FuzzDriver driver(GetParam() ^ 0x9abc, 150);
  for (int i = 0; i < 3000; ++i) {
    driver.step();
  }
  const os::Kernel& kernel = driver.machine().kernel();
  for (const auto& [page, entry] :
       kernel.page_table().entries()) {
    EXPECT_EQ(kernel.home_of(page),
              kernel.physical_memory().node_of(entry.frame));
  }
}

TEST_P(FuzzInvariants, StatsAccountForEveryLine) {
  FuzzDriver driver(GetParam() ^ 0xdef0, 100);
  std::uint64_t issued_lines = 0;
  // Re-drive accesses through a wrapper to count issued lines exactly.
  auto& machine = driver.machine();
  Rng rng(GetParam());
  Ns now = 0;
  for (int i = 0; i < 2000; ++i) {
    const VPage page(rng.next_below(100));
    const auto lines = static_cast<std::uint32_t>(1 + rng.next_below(128));
    const auto r = machine.memory().access(
        now, {ProcId(static_cast<std::uint32_t>(rng.next_below(8))), page,
              lines, rng.next_below(2) == 0});
    now += r.elapsed + 5;
    issued_lines += lines;
  }
  const memsys::ProcStats total = machine.memory().total_stats();
  EXPECT_EQ(total.hit_lines + total.miss_lines(), issued_lines);
}

TEST_P(FuzzInvariants, WholeRunIsDeterministic) {
  const auto run_digest = [&] {
    FuzzDriver driver(GetParam(), 128);
    for (int i = 0; i < 2500; ++i) {
      driver.step();
    }
    const auto total = driver.machine().memory().total_stats();
    return std::tuple(driver.now(), total.hit_lines,
                      total.remote_miss_lines, total.queue_wait,
                      driver.machine().kernel().stats().migrations);
  };
  EXPECT_EQ(run_digest(), run_digest());
}

TEST_P(FuzzInvariants, UpmlibPassesPreserveMappings) {
  FuzzDriver driver(GetParam() ^ 0x42, 120);
  auto& machine = driver.machine();
  const auto range = machine.address_space().allocate_pages("hot", 120);
  (void)range;
  upm::UpmConfig config;
  config.enable_replication = true;
  config.replication_min_nodes = 2;
  config.replication_min_count = 16;
  upm::Upmlib upmlib(machine.mmci(), machine.runtime(), config);
  upmlib.memrefcnt(range);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 600; ++i) {
      driver.step();
    }
    upmlib.migrate_memory();
    upmlib.notify_thread_rebinding();  // keep passes coming
    // Every hot page that was ever mapped stays mapped with a valid
    // home.
    for (std::uint64_t p = 0; p < range.count; ++p) {
      if (machine.kernel().is_mapped(range.page(p))) {
        EXPECT_LT(machine.kernel().home_of(range.page(p)).value(), 8u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariants,
                         ::testing::Values(1, 7, 42, 1999, 123456789));

}  // namespace
}  // namespace repro
