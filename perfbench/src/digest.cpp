#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

template <typename T>
void put_list(std::ostream& os, const char* key, const std::vector<T>& xs) {
  os << key << '=';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i == 0 ? "" : " ") << xs[i];
  }
  os << '\n';
}

}  // namespace

std::string result_canonical(const repro::harness::RunResult& r) {
  std::ostringstream os;
  os << "benchmark=" << r.benchmark << '\n';
  os << "label=" << r.label << '\n';
  os << "total=" << r.total << '\n';
  put_list(os, "iteration_times", r.iteration_times);
  const auto& m = r.memory_totals;
  os << "mem=" << m.hit_lines << ' ' << m.local_miss_lines << ' '
     << m.remote_miss_lines << ' ' << m.queue_wait << ' '
     << m.invalidations_sent << ' ' << m.tlb_misses << '\n';
  const auto& k = r.kernel_stats;
  os << "kernel=" << k.page_faults << ' ' << k.migrations << ' '
     << k.rejected_migrations << ' ' << k.busy_migrations << ' '
     << k.redirected_migrations << ' ' << k.migration_cost << ' '
     << k.replications << ' ' << k.replica_collapses << '\n';
  const auto& d = r.daemon_stats;
  os << "daemon=" << d.interrupts << ' ' << d.migrations << ' '
     << d.window_resets << ' ' << d.suppressed_cooloff << ' '
     << d.suppressed_frozen << ' ' << d.suppressed_global << ' '
     << d.deferred_busy << ' ' << d.cost << '\n';
  const auto& u = r.upm_stats;
  os << "upm=" << u.distribution_migrations << ' ' << u.replications << ' '
     << u.replication_cost << ' ' << u.replay_migrations << ' '
     << u.undo_migrations << ' ' << u.frozen_pages << ' ' << u.busy_retries
     << ' ' << u.give_ups << ' ' << u.hysteresis_deferrals << ' '
     << u.distribution_cost << ' ' << u.recrep_cost << '\n';
  put_list(os, "upm_per_invocation", u.migrations_per_invocation);
  const auto& c = r.coherence_totals;
  os << "coherence=" << r.coherence_enabled << ' ' << c.hit_lines << ' '
     << c.cold_miss_lines << ' ' << c.capacity_miss_lines << ' '
     << c.coherence_miss_lines << ' ' << c.upgrades << ' '
     << c.invalidations_sent << ' ' << c.invalidations_received << ' '
     << c.writebacks << ' ' << c.dirty_fetches << '\n';
  return os.str();
}

std::string result_digest(const repro::harness::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : result_canonical(r)) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string cell_key(const repro::harness::RunConfig& c) {
  std::ostringstream os;
  os << c.benchmark << ' ' << c.label() << " iterations=" << c.iterations
     << " seed=" << c.seed << " size_scale=" << c.workload.size_scale
     << " compute_scale=" << c.compute_scale;
  return os.str();
}

DigestBook DigestBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read digest file " + path);
  }
  DigestBook book;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t space = line.find(' ');
    if (space != 16 || line.size() <= 17) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    book.put(line.substr(17), line.substr(0, 16));
  }
  return book;
}

void DigestBook::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# perfbench result digests: <digest> <cell key>; regenerate with\n"
         "# python3 perfbench/run.py --record-digests\n";
  for (const auto& [key, digest] : digests_) {
    out << digest << ' ' << key << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write digest file " + path);
  }
}

void DigestBook::put(const std::string& key, const std::string& digest) {
  digests_[key] = digest;
}

std::string DigestBook::find(const std::string& key) const {
  const auto it = digests_.find(key);
  return it == digests_.end() ? std::string() : it->second;
}

}  // namespace perfbench
