// The result cache lives in repro_harness (repro/harness/result_cache.hpp).
// These names keep perfbench/src/traced.cpp, which spells them
// repro::service::, compiling until a benchmark change moves it over.
#pragma once

#include "repro/harness/result_cache.hpp"

namespace repro::service {

using harness::CacheConfig;
using harness::ResultCache;

}  // namespace repro::service
