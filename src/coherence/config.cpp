#include "repro/coherence/config.hpp"

#include <bit>

#include "repro/common/assert.hpp"

namespace repro::coherence {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kMsi:
      return "msi";
    case Policy::kMesi:
      return "mesi";
  }
  return "?";
}

std::optional<Policy> parse_policy(std::string_view name) {
  if (name == "msi") {
    return Policy::kMsi;
  }
  if (name == "mesi") {
    return Policy::kMesi;
  }
  return std::nullopt;
}

void CoherenceConfig::validate() const {
  // The model indexes sets with a mask and compiles its way walk once
  // per way count.
  REPRO_REQUIRE_MSG(std::has_single_bit(sets),
                    "coherence cache sets must be a power of two");
  REPRO_REQUIRE_MSG(std::has_single_bit(ways) && ways <= 16,
                    "coherence cache ways must be 1, 2, 4, 8 or 16");
  REPRO_REQUIRE_MSG(upgrade_ns >= 0.0, "negative upgrade cost");
  REPRO_REQUIRE_MSG(intervention_ns >= 0.0, "negative intervention cost");
}

}  // namespace repro::coherence
