// Declarative command-line parsing for the bench/example binaries.
//
// Every binary used to hand-roll an argv loop around std::stoul, which
// silently accepted "--jobs=0" and parsed "--jobs=-3" into 2^64-3. This
// parser is strict: unknown flags, missing or malformed values, and
// out-of-range numbers all fail fast with a one-line error, and every
// binary gets --help for free.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace repro::harness {

/// Parses `--flag` / `--name=VALUE` style argument lists.
///
///   Cli cli("reproduce");
///   cli.add_flag("fast", &options.fast, "trim long benchmarks");
///   cli.add_uint("jobs", &options.jobs, "worker threads", /*min=*/1);
///   switch (cli.parse(argc, argv)) {
///     case Cli::Status::kHelp: std::cout << cli.usage(); return 0;
///     case Cli::Status::kError:
///       std::cerr << "error: " << cli.error() << "\n\n" << cli.usage();
///       return 2;
///     case Cli::Status::kOk: break;
///   }
///
/// parse() never prints; the caller owns the streams (tests parse
/// argument vectors directly and assert on error()).
class Cli {
 public:
  enum class Status { kOk, kHelp, kError };

  explicit Cli(std::string program);

  /// Boolean `--name` (no value allowed).
  void add_flag(const std::string& name, bool* target, std::string help);

  /// `--name=STRING` (any value, including empty).
  void add_string(const std::string& name, std::string* target,
                  std::string help);

  /// `--name=N`: strictly decimal, no sign, within [min, max] and the
  /// target's range. "--jobs=0" and "--jobs=-3" are errors, not 0 and
  /// 2^64-3.
  template <typename T>
  void add_uint(const std::string& name, T* target, std::string help,
                std::uint64_t min = 0,
                std::uint64_t max = UINT64_MAX) {
    add_uint_impl(
        name, std::move(help), min, max,
        [target](std::uint64_t v) { *target = static_cast<T>(v); },
        static_cast<std::uint64_t>(static_cast<T>(~T{0})));
  }

  /// `--name=X`: decimal floating point, strictly greater than `gt`.
  void add_double(const std::string& name, double* target, std::string help,
                  double gt = 0.0);

  /// Parses argv[1..argc). kHelp when --help/-h was seen (other
  /// arguments are still validated up to that point).
  [[nodiscard]] Status parse(int argc, const char* const* argv);

  /// The failure message of the last kError parse.
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Multi-line usage text (program, one line per option).
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kFlag, kString, kUint, kDouble };

  struct Option {
    std::string name;
    std::string help;
    Kind kind = Kind::kFlag;
    bool* flag_target = nullptr;
    std::string* string_target = nullptr;
    double* double_target = nullptr;
    std::function<void(std::uint64_t)> uint_store;
    std::uint64_t min = 0;
    std::uint64_t max = UINT64_MAX;
    double gt = 0.0;
  };

  void add_uint_impl(const std::string& name, std::string help,
                     std::uint64_t min, std::uint64_t max,
                     std::function<void(std::uint64_t)> store,
                     std::uint64_t type_max);
  [[nodiscard]] Option* find(const std::string& name);

  std::string program_;
  std::vector<Option> options_;
  std::string error_;
};

struct RunConfig;

/// The trace-frontend flag cluster shared by the bench/example
/// binaries: --trace-out=FILE, --replay=FILE (see DESIGN.md §16).
/// register_with() adds the flags to a Cli; after a successful parse,
/// validate() returns a one-line error when both are given or "" when
/// consistent; apply() copies the values into a RunConfig.
struct ReplayCli {
  std::string trace_out;
  std::string replay;

  void register_with(Cli& cli);
  [[nodiscard]] std::string validate() const;
  void apply(RunConfig& config) const;
};

}  // namespace repro::harness
