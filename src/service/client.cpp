#include "repro/service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

#include "repro/harness/checkpoint.hpp"
#include "repro/service/protocol.hpp"

namespace repro::service {

namespace {

/// RAII connection to the daemon socket; fd < 0 when connect failed.
/// Retries ENOENT / ECONNREFUSED for up to `wait_ms`, so a client
/// started in lockstep with the daemon (bench harness, CI smoke) rides
/// out the bind+listen window instead of failing fast.
class Connection {
 public:
  Connection(const std::string& path, std::uint32_t wait_ms) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) {
        return;
      }
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return;
      }
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      const bool daemon_not_up_yet = err == ENOENT || err == ECONNREFUSED;
      if (!daemon_not_up_yet || std::chrono::steady_clock::now() >= deadline) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Parses "key=<number>\n" at the start of a reply payload; advances
/// *pos past the line.
bool parse_u64_line(const std::string& payload, std::size_t* pos,
                    std::string_view key, std::uint64_t* out) {
  const std::size_t eol = payload.find('\n', *pos);
  if (eol == std::string::npos) {
    return false;
  }
  const std::string_view line(payload.data() + *pos, eol - *pos);
  if (line.size() <= key.size() + 1 ||
      line.compare(0, key.size(), key) != 0 || line[key.size()] != '=') {
    return false;
  }
  const char* begin = line.data() + key.size() + 1;
  const char* end = line.data() + line.size();
  const auto [p, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc{} || p != end) {
    return false;
  }
  *pos = eol + 1;
  return true;
}

harness::FailureClass parse_failure_class(const std::string& name) {
  using harness::FailureClass;
  if (name == "timeout") {
    return FailureClass::kTimeout;
  }
  if (name == "crash") {
    return FailureClass::kCrash;
  }
  return FailureClass::kFault;
}

}  // namespace

bool SweepReply::ok() const {
  if (busy || !error.empty()) {
    return false;
  }
  for (const CellOutcome& cell : cells) {
    if (!cell.ok) {
      return false;
    }
  }
  return true;
}

int SweepReply::exit_code() const {
  if (busy || !error.empty()) {
    return 2;
  }
  bool any_failed = false;
  harness::FailureClass worst = harness::FailureClass::kFault;
  for (const CellOutcome& cell : cells) {
    if (cell.ok) {
      continue;
    }
    any_failed = true;
    if (static_cast<int>(cell.cls) > static_cast<int>(worst)) {
      worst = cell.cls;
    }
  }
  return any_failed ? harness::failure_exit_code(worst) : 0;
}

SweepClient::SweepClient(std::string socket_path,
                         std::uint32_t connect_wait_ms)
    : socket_path_(std::move(socket_path)),
      connect_wait_ms_(connect_wait_ms) {}

SweepReply SweepClient::submit(const SweepRequest& request) {
  SweepReply reply;
  reply.cells.resize(request.cells.size());
  Connection conn(socket_path_, connect_wait_ms_);
  if (conn.fd() < 0) {
    reply.error = "cannot connect to sweep daemon at " + socket_path_;
    return reply;
  }
  try {
    write_frame(conn.fd(), FrameType::kSweepRequest, request.encode());
    while (true) {
      Frame frame;
      if (read_frame(conn.fd(), &frame) == ReadResult::kEof) {
        reply.error = "daemon closed the connection before kSweepDone";
        return reply;
      }
      switch (frame.type) {
        case FrameType::kBusy:
          reply.busy = true;
          return reply;
        case FrameType::kError:
          reply.error = frame.payload.empty() ? "daemon reported an error"
                                              : frame.payload;
          return reply;
        case FrameType::kSweepDone:
          return reply;
        case FrameType::kCellResult: {
          std::size_t pos = 0;
          std::uint64_t index = 0;
          std::uint64_t cached = 0;
          if (!parse_u64_line(frame.payload, &pos, "index", &index) ||
              !parse_u64_line(frame.payload, &pos, "cached", &cached) ||
              index >= reply.cells.size()) {
            reply.error = "malformed kCellResult payload";
            return reply;
          }
          CellOutcome& cell = reply.cells[index];
          const std::string body = frame.payload.substr(pos);
          const std::uint64_t identity = request.cells[index].identity();
          if (!harness::decode_result(body, identity, &cell.result)) {
            reply.error = "kCellResult payload failed its identity fence";
            return reply;
          }
          cell.answered = true;
          cell.ok = true;
          cell.cached = cached != 0;
          if (cell.cached) {
            ++reply.cache_hits;
          }
          break;
        }
        case FrameType::kCellFailed: {
          std::size_t pos = 0;
          std::uint64_t index = 0;
          if (!parse_u64_line(frame.payload, &pos, "index", &index) ||
              index >= reply.cells.size()) {
            reply.error = "malformed kCellFailed payload";
            return reply;
          }
          CellOutcome& cell = reply.cells[index];
          cell.answered = true;
          cell.ok = false;
          // "class=<name>\nmessage=<rest of payload>"
          const std::size_t class_eol = frame.payload.find('\n', pos);
          if (class_eol != std::string::npos &&
              frame.payload.compare(pos, 6, "class=") == 0) {
            cell.cls = parse_failure_class(
                frame.payload.substr(pos + 6, class_eol - pos - 6));
            pos = class_eol + 1;
          }
          if (frame.payload.compare(pos, 8, "message=") == 0) {
            cell.message = frame.payload.substr(pos + 8);
          } else {
            cell.message = frame.payload.substr(pos);
          }
          break;
        }
        default:
          reply.error = "unexpected frame type from daemon";
          return reply;
      }
    }
  } catch (const ProtocolError& e) {
    reply.error = e.what();
    return reply;
  }
}

bool SweepClient::shutdown_daemon() {
  Connection conn(socket_path_, connect_wait_ms_);
  if (conn.fd() < 0) {
    return false;
  }
  try {
    write_frame(conn.fd(), FrameType::kShutdown, "");
  } catch (const ProtocolError&) {
    return false;
  }
  return true;
}

}  // namespace repro::service
