// Framed messages for the sweep service (RSVC protocol, version 2).
//
// Every message between client <-> daemon and daemon <-> worker is one
// frame: a fixed 32-byte header (magic, version, type, payload length,
// word-hash digest of the payload) followed by the payload bytes. The
// framing reuses the RTRC container's idioms (src/tracefmt): little-
// endian fixed headers, digest-fenced payloads, strict readers that
// throw on anything torn or garbled rather than resynchronising. A
// stream that fails its fence is *poisoned* -- the daemon kills the
// worker / drops the client behind it, because after a bad frame there
// is no way to know where the next one starts.
//
// Payloads are small key=value / line-oriented text (cell specs and
// encode_result() bodies), so the protocol stays inspectable with
// `xxd` while the digest fence still catches every torn write.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace repro::service {

/// Any structural problem with a frame: bad magic or version, an
/// oversized payload, a digest mismatch, or EOF mid-frame.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0x43565352;  // "RSVC"
/// 2: the payload digest is repro::word_hash (1: FNV-1a 64).
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Upper bound on one payload; a header announcing more is garbage,
/// not a request for a 16 EiB allocation.
inline constexpr std::uint64_t kMaxFramePayload = 16ull << 20U;

/// Frame types. Client -> daemon: kSweepRequest, kShutdown. Daemon ->
/// client: kCellResult, kCellFailed, kSweepDone, kBusy, kError.
/// Daemon -> worker: kCellTask. Worker -> daemon: kCellReply,
/// kCellError. Append only.
enum class FrameType : std::uint32_t {
  kSweepRequest = 0,
  kCellResult = 1,
  kCellFailed = 2,
  kSweepDone = 3,
  kBusy = 4,
  kError = 5,
  kShutdown = 6,
  kCellTask = 7,
  kCellReply = 8,
  kCellError = 9,
};

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t version = kProtocolVersion;
  std::uint32_t type = 0;
  std::uint32_t reserved = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_digest = 0;  // frame_digest of the payload
};
static_assert(sizeof(FrameHeader) == 32);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Digest of the payload bytes (repro::word_hash: eight bytes per
/// step, where FNV-1a took one).
[[nodiscard]] std::uint64_t frame_digest(std::string_view payload);

/// Writes one complete frame to `fd` (blocking, EINTR-safe, never
/// raises SIGPIPE). Throws ProtocolError on any I/O failure.
void write_frame(int fd, FrameType type, std::string_view payload);

/// Chaos hook: writes a frame whose header digest fences the *intact*
/// payload but whose payload bytes are corrupted, so the receiving
/// read_frame throws ProtocolError (the garbled-frame fault class).
/// Empty payloads corrupt the announced length instead.
void write_garbled_frame(int fd, FrameType type, std::string_view payload);

/// Chaos hook: writes only a strict prefix of the frame (the header
/// plus half the payload; half the header when the payload is empty)
/// and returns, modelling a worker that dies or wedges mid-write (the
/// torn-frame fault class). The receiver must never block waiting for
/// the rest.
void write_torn_frame_prefix(int fd, FrameType type,
                             std::string_view payload);

enum class ReadResult : std::uint8_t {
  kFrame,  ///< one complete, verified frame in *out
  kEof,    ///< orderly EOF at a frame boundary
};

/// Reads one frame (blocking). EOF before the first header byte is an
/// orderly close (kEof); EOF anywhere else, a bad magic/version, an
/// oversized payload or a digest mismatch throws ProtocolError.
[[nodiscard]] ReadResult read_frame(int fd, Frame* out);

/// Incremental variant for the daemon's poll loop: appends nothing
/// itself, but tries to extract one complete frame from the front of
/// `buffer` (bytes received so far). Returns true and erases the
/// frame's bytes on success; false when more bytes are needed. Throws
/// ProtocolError on a garbled prefix (the connection is poisoned).
[[nodiscard]] bool try_extract_frame(std::string* buffer, Frame* out);

}  // namespace repro::service
