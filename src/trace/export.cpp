#include "repro/trace/export.hpp"

#include <array>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string_view>

#include "repro/common/hash.hpp"

namespace repro::trace {

namespace {

void escape_json(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\';
    }
    os << c;
  }
}

/// Microsecond timestamp for the Chrome viewer (its native unit).
double us(Ns t) { return static_cast<double>(t) / 1e3; }

/// One canonical line under construction: integers are written by
/// std::to_chars, so the bytes equal what an std::ostream renders for
/// the same values. Sized for the longest event line (under 240
/// bytes); table lines put only their id here and the name beside it.
class LineBuffer {
 public:
  LineBuffer& operator<<(std::string_view text) {
    std::memcpy(end_, text.data(), text.size());
    end_ += text.size();
    return *this;
  }
  LineBuffer& operator<<(char c) {
    *end_++ = c;
    return *this;
  }
  template <std::integral T>
  LineBuffer& operator<<(T value) {
    end_ = std::to_chars(end_, bytes_.data() + bytes_.size(), value).ptr;
    return *this;
  }
  [[nodiscard]] std::string_view view() const {
    return {bytes_.data(), static_cast<std::size_t>(end_ - bytes_.data())};
  }
  void clear() { end_ = bytes_.data(); }

 private:
  std::array<char, 256> bytes_{};
  char* end_ = bytes_.data();
};

/// Feeds the canonical dump to `put` (called with std::string_view
/// pieces, in order): header, lane table, phase table, then one line
/// per event in canonical order. The single formatter behind the
/// written dump and canonical_dump().
template <typename Put>
void render_canonical(const TraceSink& sink, Put&& put) {
  put("# repro-trace v1\n");
  LineBuffer line;
  for (std::uint16_t l = 0; l < sink.num_lanes(); ++l) {
    line.clear();
    line << "lane " << l << ' ';
    put(line.view());
    put(sink.lane_name(l));
    put("\n");
  }
  for (std::uint32_t p = 1; p < sink.num_phases(); ++p) {
    line.clear();
    line << "phase " << p << ' ';
    put(line.view());
    put(sink.phase_name(p));
    put("\n");
  }
  sink.for_each_canonical([&line, &put](const TraceEvent& e) {
    line.clear();
    line << e.time << ' ' << event_kind_name(e.kind) << " lane=" << e.lane
         << " seq=" << e.seq << " it=" << e.iteration << " ph=" << e.phase
         << " node=" << e.node << " src=" << e.src << " dst=" << e.dst
         << " page=" << e.page << " a=" << e.a << " b=" << e.b
         << " cost=" << e.cost << '\n';
    put(line.view());
  });
}

/// Two 32-bit fields in one word, `low` in the low half.
std::uint64_t pack(std::uint32_t low, std::uint32_t high) {
  return low | static_cast<std::uint64_t>(high) << 32;
}

}  // namespace

void write_canonical(std::ostream& os, const TraceSink& sink) {
  render_canonical(sink, [&os](std::string_view piece) {
    os.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  });
}

std::string canonical_dump(const TraceSink& sink) {
  std::string dump;
  render_canonical(sink, [&dump](std::string_view piece) {
    dump.append(piece);
  });
  return dump;
}

std::string digest(const TraceSink& sink) {
  WordHash hash;
  hash.add(kDigestVersion);
  hash.add(sink.num_lanes());
  for (std::uint16_t l = 0; l < sink.num_lanes(); ++l) {
    hash.add_bytes(sink.lane_name(l));
  }
  hash.add(sink.num_phases() - 1);
  for (std::uint32_t p = 1; p < sink.num_phases(); ++p) {
    hash.add_bytes(sink.phase_name(p));
  }
  sink.for_each_canonical([&hash](const TraceEvent& e) {
    hash.add(e.time);
    hash.add(e.page);
    hash.add(e.a);
    hash.add(e.b);
    hash.add(e.cost);
    hash.add(pack(static_cast<std::uint32_t>(e.node),
                  static_cast<std::uint32_t>(e.src)));
    hash.add(pack(static_cast<std::uint32_t>(e.dst),
                  static_cast<std::uint32_t>(e.kind) |
                      static_cast<std::uint32_t>(e.lane) << 16));
    hash.add(pack(e.seq, e.iteration));
    hash.add(e.phase);
  });
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash.finish()));
  return hex;
}

void write_chrome_trace(std::ostream& os, const TraceSink& sink) {
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  os.precision(17);
  bool first = true;
  const auto comma = [&] {
    if (!first) {
      os << ",\n";
    }
    first = false;
  };
  sink.for_each_canonical([&](const TraceEvent& e) {
    switch (e.kind) {
      case EventKind::kRegionBegin:
      case EventKind::kRegionEnd: {
        comma();
        os << "{\"ph\": \""
           << (e.kind == EventKind::kRegionBegin ? 'B' : 'E')
           << "\", \"pid\": 0, \"tid\": 0, \"ts\": " << us(e.time)
           << ", \"name\": \"";
        escape_json(os, sink.phase_name(e.phase));
        os << "\", \"cat\": \"region\", \"args\": {\"iteration\": "
           << e.iteration << "}}";
        break;
      }
      case EventKind::kBarrierWait: {
        if (e.a == 0) {
          break;  // zero-length slices only clutter the viewer
        }
        comma();
        // tid = simulated thread + 1 keeps thread tracks below the
        // team track (tid 0).
        os << "{\"ph\": \"X\", \"pid\": 0, \"tid\": " << (e.node + 1)
           << ", \"ts\": " << us(e.time - e.a) << ", \"dur\": " << us(e.a)
           << ", \"name\": \"barrier\", \"cat\": \"barrier\", "
              "\"args\": {\"thread\": "
           << e.node << ", \"wait_ns\": " << e.a << "}}";
        break;
      }
      case EventKind::kQueueSample: {
        comma();
        os << "{\"ph\": \"C\", \"pid\": 0, \"ts\": " << us(e.time)
           << ", \"name\": \"queue_backlog_node" << e.node
           << "\", \"args\": {\"backlog_ns\": " << e.a << "}}";
        break;
      }
      default: {
        comma();
        os << "{\"ph\": \"i\", \"s\": \"g\", \"pid\": 0, \"tid\": 0, "
              "\"ts\": "
           << us(e.time) << ", \"name\": \"" << event_kind_name(e.kind)
           << "\", \"cat\": \"";
        escape_json(os, sink.lane_name(e.lane));
        os << "\", \"args\": {\"iteration\": " << e.iteration
           << ", \"page\": " << e.page << ", \"node\": " << e.node
           << ", \"src\": " << e.src << ", \"dst\": " << e.dst
           << ", \"a\": " << e.a << ", \"b\": " << e.b
           << ", \"cost_ns\": " << e.cost << "}}";
        break;
      }
    }
  });
  os << "\n]}\n";
}

}  // namespace repro::trace
