// Line-grain coherence model configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "repro/common/units.hpp"

namespace repro::coherence {

/// Invalidation-based protocol run over the line-grain sharer
/// directory. MESI differs from MSI in exactly two transitions: a read
/// miss with no other cached copy fills Exclusive instead of Shared,
/// and a write hit on an Exclusive copy upgrades to Modified silently
/// (no directory round trip, no upgrade charge). MESI may therefore
/// only *reduce* upgrade traffic relative to MSI -- never change
/// values, sharer sets or miss classification (the differential test
/// in tests/test_coherence.cpp holds the model to that).
enum class Policy : std::uint8_t { kMsi, kMesi };

[[nodiscard]] const char* policy_name(Policy policy);

/// Parses "msi" / "mesi"; nullopt on anything else.
[[nodiscard]] std::optional<Policy> parse_policy(std::string_view name);

struct CoherenceConfig {
  Policy policy = Policy::kMsi;

  /// Coherence line size in bytes; 0 means "the machine's cache_line"
  /// (the default, which keeps the model's line units identical to the
  /// page-grain model's). When set, it must divide or be a multiple of
  /// the machine cache line and divide the page size.
  Bytes line_size = 0;

  /// Private per-processor cache geometry: `sets` x `ways` lines.
  /// 64 x 8 x 128 B = a 64 KiB L1-class cache, small enough that the
  /// NAS working sets exercise capacity evictions. `sets` must be a
  /// power of two and `ways` one of 1, 2, 4, 8, 16.
  std::size_t sets = 64;
  std::size_t ways = 8;

  /// Directory round trip charged to a writer upgrading a Shared copy
  /// (per upgraded line, on top of invalidation_ns per victim copy).
  double upgrade_ns = 180.0;

  /// Extra charge when a fill must intervene at a dirty remote copy
  /// (cache-to-cache transfer + implicit writeback), per line.
  double intervention_ns = 220.0;

  /// Validates internal consistency; throws ContractViolation
  /// otherwise. Geometry against the machine (line_size vs cache_line
  /// and page_size) is validated by the model constructor, which sees
  /// both configs.
  void validate() const;
};

}  // namespace repro::coherence
