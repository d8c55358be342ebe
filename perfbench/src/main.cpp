// perfbench: the repo benchmark's driver (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --digests FILE --work-dir DIR
//   perfbench --record-digests FILE
//
// The last line of standard output is the JSON result; everything
// before it is the human-readable report. Usage errors exit 2, any
// other failure to produce a result exits 1.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>

#include "cells.hpp"
#include "digest.hpp"
#include "metrics.hpp"
#include "repro/harness/scheduler.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 --digests FILE --work-dir DIR\n"
    "       perfbench --record-digests FILE\n";

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

int record_digests(const std::string& path) {
  const std::vector<repro::harness::RunConfig> cells = perfbench::recorded_cells();
  repro::harness::SweepOptions options;
  options.jobs = 2 * perfbench::kWorkers;
  const repro::harness::SweepOutcome outcome =
      repro::harness::run_sweep(cells, options);
  if (!outcome.ok()) {
    std::cerr << repro::harness::SweepError::format(outcome.failures) << "\n";
    return 1;
  }
  perfbench::DigestBook book;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    book.put(perfbench::cell_key(cells[i]),
             perfbench::result_digest(outcome.results[i]));
  }
  book.save(path);
  std::cout << "recorded " << book.size() << " digests to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string digests;
  std::string record;
  std::uint64_t trace = 0;
  std::uint64_t seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "error: " << flag << " needs a value\n" << kUsage;
      return 2;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      ok = parse_u64(value, &options.seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      ok = parse_u64(value, &seconds) && seconds >= 1 && seconds <= 3600;
    } else if (flag == "--trace") {
      ok = parse_u64(value, &trace) && trace <= 1;
    } else if (flag == "--digests") {
      digests = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--record-digests") {
      record = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "error: bad argument " << flag << " " << value << "\n"
                << kUsage;
      return 2;
    }
  }
  try {
    if (!record.empty()) {
      return record_digests(record);
    }
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), options.workload) ==
            names.end() ||
        !have_seed || seconds == 0 || digests.empty() ||
        options.work_dir.empty()) {
      std::cerr << "error: missing or unknown argument\n" << kUsage;
      return 2;
    }
    options.seconds = static_cast<double>(seconds);
    const perfbench::DigestBook book = perfbench::DigestBook::load(digests);
    options.book = &book;
    std::cout << "perfbench " << options.workload << " seed " << options.seed
              << (trace != 0 ? " traced" : "") << "\n";
    const perfbench::Outcome outcome = trace != 0
                                           ? perfbench::run_traced(options)
                                           : perfbench::run_untraced(options);
    perfbench::print_outcome(std::cout, outcome,
                             trace != 0 ? perfbench::Scope::kLayer
                                        : perfbench::Scope::kEndToEnd);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
