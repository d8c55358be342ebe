// Result digests: the benchmark's correctness oracle.
//
// A cell's digest hashes the public, simulated RunResult fields -- the
// simulated total, every iteration time and the memory, kernel, daemon,
// UPMlib and coherence statistics. Host-side fields (how many
// iterations were fast-forwarded, the trace digest, region records)
// are left out, so a replayed cell, a cache hit and a direct run of one
// configuration all share a digest. perfbench/digests.txt records the
// digest of every cell any workload seed can request.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "repro/harness/run.hpp"

namespace perfbench {

/// One "key=value" line per digested field, in a fixed order.
[[nodiscard]] std::string result_canonical(const repro::harness::RunResult& r);

/// FNV-1a 64 of result_canonical(), as 16 lowercase hex digits.
[[nodiscard]] std::string result_digest(const repro::harness::RunResult& r);

/// The name a cell is recorded under: benchmark, label, iteration
/// count, placement seed, problem size and compute scale. A replay
/// cell is recorded under its direct twin's key.
[[nodiscard]] std::string cell_key(const repro::harness::RunConfig& c);

/// Recorded digests by cell key ("<digest> <key>" lines).
class DigestBook {
 public:
  /// Loads `path`; throws std::runtime_error when it cannot be read or
  /// a line is malformed.
  static DigestBook load(const std::string& path);

  void save(const std::string& path) const;

  void put(const std::string& key, const std::string& digest);

  /// The recorded digest, or "" when the key was never recorded.
  [[nodiscard]] std::string find(const std::string& key) const;

  [[nodiscard]] std::size_t size() const { return digests_.size(); }

 private:
  std::map<std::string, std::string> digests_;
};

}  // namespace perfbench
