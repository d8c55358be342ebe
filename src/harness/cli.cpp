#include "repro/harness/cli.hpp"

#include <charconv>
#include <sstream>
#include <utility>

#include "repro/common/assert.hpp"
#include "repro/harness/run.hpp"

namespace repro::harness {

Cli::Cli(std::string program) : program_(std::move(program)) {}

void Cli::add_flag(const std::string& name, bool* target, std::string help) {
  REPRO_REQUIRE(target != nullptr && find(name) == nullptr);
  Option opt;
  opt.name = name;
  opt.help = std::move(help);
  opt.kind = Kind::kFlag;
  opt.flag_target = target;
  options_.push_back(std::move(opt));
}

void Cli::add_string(const std::string& name, std::string* target,
                     std::string help) {
  REPRO_REQUIRE(target != nullptr && find(name) == nullptr);
  Option opt;
  opt.name = name;
  opt.help = std::move(help);
  opt.kind = Kind::kString;
  opt.string_target = target;
  options_.push_back(std::move(opt));
}

void Cli::add_uint_impl(const std::string& name, std::string help,
                        std::uint64_t min, std::uint64_t max,
                        std::function<void(std::uint64_t)> store,
                        std::uint64_t type_max) {
  REPRO_REQUIRE(find(name) == nullptr);
  Option opt;
  opt.name = name;
  opt.help = std::move(help);
  opt.kind = Kind::kUint;
  opt.uint_store = std::move(store);
  opt.min = min;
  opt.max = max < type_max ? max : type_max;
  options_.push_back(std::move(opt));
}

void Cli::add_double(const std::string& name, double* target,
                     std::string help, double gt) {
  REPRO_REQUIRE(target != nullptr && find(name) == nullptr);
  Option opt;
  opt.name = name;
  opt.help = std::move(help);
  opt.kind = Kind::kDouble;
  opt.double_target = target;
  opt.gt = gt;
  options_.push_back(std::move(opt));
}

Cli::Option* Cli::find(const std::string& name) {
  for (Option& opt : options_) {
    if (opt.name == name) {
      return &opt;
    }
  }
  return nullptr;
}

Cli::Status Cli::parse(int argc, const char* const* argv) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Status::kHelp;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return Status::kError;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    Option* opt = find(name);
    if (opt == nullptr) {
      error_ = "unknown flag: " + arg;
      return Status::kError;
    }
    if (opt->kind == Kind::kFlag) {
      if (eq != std::string::npos) {
        error_ = "--" + name + " takes no value";
        return Status::kError;
      }
      *opt->flag_target = true;
      continue;
    }
    if (eq == std::string::npos) {
      error_ = "--" + name + " needs a value (--" + name + "=...)";
      return Status::kError;
    }
    const std::string value = arg.substr(eq + 1);
    if (opt->kind == Kind::kString) {
      *opt->string_target = value;
      continue;
    }
    if (opt->kind == Kind::kDouble) {
      double parsed = 0.0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (value.empty() || ptr != value.data() + value.size() ||
          ec != std::errc{}) {
        error_ = "--" + name + " expects a number, got \"" + value + "\"";
        return Status::kError;
      }
      if (!(parsed > opt->gt)) {
        error_ = "--" + name + "=" + value +
                 " must be greater than " + std::to_string(opt->gt);
        return Status::kError;
      }
      *opt->double_target = parsed;
      continue;
    }
    // kUint: strictly decimal digits, no sign/space/suffix, in range.
    std::uint64_t parsed = 0;
    const char* first = value.data();
    const char* last = first + value.size();
    const auto [ptr, ec] = std::from_chars(first, last, parsed, 10);
    if (value.empty() || ptr != last || ec == std::errc::invalid_argument ||
        value.front() == '+') {
      error_ = "--" + name + " expects a non-negative integer, got \"" +
               value + "\"";
      return Status::kError;
    }
    if (ec == std::errc::result_out_of_range || parsed > opt->max) {
      error_ = "--" + name + "=" + value + " is out of range (max " +
               std::to_string(opt->max) + ")";
      return Status::kError;
    }
    if (parsed < opt->min) {
      error_ = "--" + name + "=" + value + " is below the minimum of " +
               std::to_string(opt->min);
      return Status::kError;
    }
    opt->uint_store(parsed);
  }
  return Status::kOk;
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << "usage: " << program_;
  for (const Option& opt : options_) {
    os << " [--" << opt.name
       << (opt.kind == Kind::kFlag     ? ""
           : opt.kind == Kind::kString ? "=STR"
           : opt.kind == Kind::kDouble ? "=X"
                                       : "=N")
       << "]";
  }
  os << "\n";
  for (const Option& opt : options_) {
    os << "  --" << opt.name;
    if (opt.kind == Kind::kUint && opt.min > 0) {
      os << " (>= " << opt.min << ")";
    }
    os << ": " << opt.help << "\n";
  }
  return os.str();
}

void ReplayCli::register_with(Cli& cli) {
  cli.add_string("trace-out", &trace_out,
                 "dump the workload's frontend stream to this RTRC trace "
                 "file before running (excludes --replay)");
  cli.add_string("replay", &replay,
                 "replay an RTRC trace file instead of instantiating the "
                 "benchmark (--benchmark is then ignored)");
}

std::string ReplayCli::validate() const {
  if (!trace_out.empty() && !replay.empty()) {
    return "--trace-out and --replay are mutually exclusive";
  }
  return "";
}

void ReplayCli::apply(RunConfig& config) const {
  config.trace_out = trace_out;
  config.replay = replay;
}

}  // namespace repro::harness
