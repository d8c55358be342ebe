// Metric names, the percentile rule and the result printer.
//
// Every number the benchmark reports is declared once in metric_defs()
// with its unit and direction. BENCHMARK.json's end_to_end and
// per_layer lists must name exactly the kEndToEnd and kLayer entries
// (tests/test_perfbench.cpp checks it); kReport metrics are printed in
// the human-readable report only, because they exist on one workload
// or are zero when the run is correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Scope : std::uint8_t {
  kEndToEnd,  ///< untraced run's result line (--trace 0)
  kReport,    ///< printed in the report, not in the result line
  kLayer,     ///< traced run's result line (--trace 1)
};

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool higher_is_better = false;
  Scope scope = Scope::kEndToEnd;
};

[[nodiscard]] const std::vector<MetricDef>& metric_defs();

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// A tail percentile under the reporting rule: the wanted percentile
/// when at least ten samples lie beyond it, else the highest percentile
/// of 99, 98, 95, 90, 75 and 50 that has ten beyond it (nearest rank).
/// With fewer than 20 samples no tail qualifies and the median is
/// reported, flagged by `enough_beyond` = false.
struct Percentile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool enough_beyond = false;

  /// "p99 of 1520 samples" (plus a note when the rule fell back).
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] Percentile tail_percentile(std::vector<double> samples,
                                         double wanted);

/// What one benchmark invocation measured and verified.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value (any scope).
  std::map<std::string, double> values;
  /// Free-form report lines printed before the metrics ("why" notes,
  /// sample counts, mismatches).
  std::vector<std::string> notes;

  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

/// Prints the report: the notes, then every metric present in
/// `outcome.values` as "  name = value unit" in definition order, then
/// the single-line JSON result whose "metrics" hold exactly the metrics
/// of `result_scope`. Throws std::runtime_error when one of those is
/// missing or not finite.
void print_outcome(std::ostream& os, const Outcome& outcome,
                   Scope result_scope);

/// Shortest round-trip decimal form of `v` (every digit measured).
[[nodiscard]] std::string format_number(double v);

}  // namespace perfbench
