#include "repro/service/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "repro/common/hash.hpp"

namespace repro::service {

namespace {

/// How long a single frame write may wait for the peer to drain its
/// socket buffer before the peer is declared dead. Local peers that
/// are alive drain in microseconds; only a wedged or abandoned one
/// stays full this long.
constexpr int kWriteStallTimeoutMs = 2000;

/// send() the whole buffer; EINTR-safe, SIGPIPE-free. Falls back to
/// write() for plain descriptors (pipes in tests) where send() yields
/// ENOTSOCK. On a non-blocking descriptor a full socket buffer is not
/// a dead peer: wait (bounded) for writability rather than throwing.
void send_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data + off, size - off);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, kWriteStallTimeoutMs);
        if (ready > 0) {
          continue;
        }
        if (ready < 0 && errno == EINTR) {
          continue;
        }
        throw ProtocolError("frame write stalled: peer is not draining");
      }
      throw ProtocolError(std::string("frame write failed: ") +
                          std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

enum class RecvResult : std::uint8_t { kFull, kEofAtStart, kEofMidway };

/// recv() exactly `size` bytes. Distinguishes EOF before the first
/// byte (orderly close) from EOF midway (torn frame).
RecvResult recv_all(int fd, char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::read(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw ProtocolError(std::string("frame read failed: ") +
                          std::strerror(errno));
    }
    if (n == 0) {
      return off == 0 ? RecvResult::kEofAtStart : RecvResult::kEofMidway;
    }
    off += static_cast<std::size_t>(n);
  }
  return RecvResult::kFull;
}

/// Validates everything checkable from the header alone.
void check_header(const FrameHeader& header) {
  if (header.magic != kFrameMagic) {
    throw ProtocolError("bad frame magic: stream is not RSVC or lost sync");
  }
  if (header.version != kProtocolVersion) {
    throw ProtocolError("unsupported RSVC protocol version " +
                        std::to_string(header.version));
  }
  if (header.payload_bytes > kMaxFramePayload) {
    throw ProtocolError("frame payload length " +
                        std::to_string(header.payload_bytes) +
                        " exceeds limit: garbled header");
  }
}

void check_digest(const FrameHeader& header, std::string_view payload) {
  if (frame_digest(payload) != header.payload_digest) {
    throw ProtocolError("frame payload digest mismatch: torn or garbled "
                        "frame");
  }
}

}  // namespace

std::uint64_t frame_digest(std::string_view payload) {
  return fnv1a(payload);
}

void write_frame(int fd, FrameType type, std::string_view payload) {
  FrameHeader header;
  header.type = static_cast<std::uint32_t>(type);
  header.payload_bytes = payload.size();
  header.payload_digest = frame_digest(payload);
  // One buffer, one send: keeps header+payload adjacent so a SIGKILL
  // between syscalls cannot strand a header without its payload for
  // small frames.
  std::string buf;
  buf.reserve(sizeof(header) + payload.size());
  buf.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buf.append(payload.data(), payload.size());
  send_all(fd, buf.data(), buf.size());
}

void write_garbled_frame(int fd, FrameType type, std::string_view payload) {
  FrameHeader header;
  header.type = static_cast<std::uint32_t>(type);
  header.payload_bytes = payload.size();
  header.payload_digest = frame_digest(payload);
  std::string buf;
  buf.reserve(sizeof(header) + payload.size());
  buf.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buf.append(payload.data(), payload.size());
  if (payload.empty()) {
    // Nothing to corrupt in the payload: lie about its length instead.
    FrameHeader lie = header;
    lie.payload_bytes = 1;
    std::memcpy(buf.data(), &lie, sizeof(lie));
    buf.push_back('X');
  } else {
    // Flip one payload byte *after* the digest was taken over the
    // intact bytes: the receiver's fence must trip.
    buf[sizeof(header) + payload.size() / 2] ^= 0x5a;
  }
  send_all(fd, buf.data(), buf.size());
}

void write_torn_frame_prefix(int fd, FrameType type,
                             std::string_view payload) {
  FrameHeader header;
  header.type = static_cast<std::uint32_t>(type);
  header.payload_bytes = payload.size();
  header.payload_digest = frame_digest(payload);
  std::string buf;
  buf.reserve(sizeof(header) + payload.size());
  buf.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buf.append(payload.data(), payload.size());
  // Always strictly shorter than the full frame: the receiver is left
  // holding bytes that can never complete.
  const std::size_t cut = payload.empty()
                              ? sizeof(header) / 2
                              : sizeof(header) + payload.size() / 2;
  send_all(fd, buf.data(), cut);
}

ReadResult read_frame(int fd, Frame* out) {
  FrameHeader header;
  switch (recv_all(fd, reinterpret_cast<char*>(&header), sizeof(header))) {
    case RecvResult::kEofAtStart:
      return ReadResult::kEof;
    case RecvResult::kEofMidway:
      throw ProtocolError("EOF inside frame header: torn frame");
    case RecvResult::kFull:
      break;
  }
  check_header(header);
  std::string payload(header.payload_bytes, '\0');
  if (!payload.empty() &&
      recv_all(fd, payload.data(), payload.size()) != RecvResult::kFull) {
    throw ProtocolError("EOF inside frame payload: torn frame");
  }
  check_digest(header, payload);
  out->type = static_cast<FrameType>(header.type);
  out->payload = std::move(payload);
  return ReadResult::kFrame;
}

bool try_extract_frame(std::string* buffer, Frame* out) {
  if (buffer->size() < sizeof(FrameHeader)) {
    return false;
  }
  FrameHeader header;
  std::memcpy(&header, buffer->data(), sizeof(header));
  check_header(header);
  const std::size_t total = sizeof(header) + header.payload_bytes;
  if (buffer->size() < total) {
    return false;
  }
  const std::string_view payload(buffer->data() + sizeof(header),
                                 header.payload_bytes);
  check_digest(header, payload);
  out->type = static_cast<FrameType>(header.type);
  out->payload.assign(payload.data(), payload.size());
  buffer->erase(0, total);
  return true;
}

}  // namespace repro::service
