#include "repro/sim/trace_recorder.hpp"

#include "repro/memsys/op_batch.hpp"

namespace repro::sim {

// The on-disk flag bits are defined independently of memsys (tracefmt
// sits below it); they must agree bit for bit.
static_assert(tracefmt::kFlagAccess == memsys::kOpAccess);
static_assert(tracefmt::kFlagWrite == memsys::kOpWrite);
static_assert(tracefmt::kFlagStream == memsys::kOpStream);
static_assert(tracefmt::kFlagPositioned == memsys::kOpPositioned);

TraceRecorder::TraceRecorder(const std::string& path,
                             const tracefmt::TraceMeta& meta)
    : writer_(path, meta) {}

void TraceRecorder::on_region(const std::string& name,
                              const RegionProgram& program,
                              std::span<const ProcId> binding) {
  const RegionProgram::ColumnView view = program.columns();
  bool identity = true;
  for (std::size_t t = 0; t < binding.size(); ++t) {
    identity = identity && binding[t].value() == t;
  }
  binding_scratch_.clear();
  if (!identity) {
    binding_scratch_.reserve(binding.size());
    for (const ProcId proc : binding) {
      binding_scratch_.push_back(proc.value());
    }
  }
  tracefmt::RegionColumns columns;
  columns.pages = view.pages;
  columns.compute = view.compute;
  columns.lines = view.lines;
  columns.line_begin = view.line_begin;
  columns.flags = view.flags;
  columns.offsets = view.offsets;
  columns.num_threads = view.num_threads;
  columns.size = view.size;
  columns.max_access_lines = view.max_access_lines;
  columns.max_line_begin = view.max_line_begin;
  columns.serial = program.serial();
  writer_.region(name, binding_scratch_, columns);
}

void TraceRecorder::on_advance(Ns duration) {
  if (duration == 0) {
    return;
  }
  writer_.advance(duration);
}

}  // namespace repro::sim
