#include "repro/harness/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/hash.hpp"
#include "repro/common/log.hpp"
#include "repro/harness/atomic_file.hpp"

namespace repro::harness {

namespace {

constexpr const char* kJournalFile = "journal.log";
constexpr const char* kSnapshotFile = "snapshot.txt";

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// One intact RCJE entry, as views into the text it was parsed from.
struct Entry {
  std::uint64_t identity = 0;
  std::string_view bytes;  // the whole entry, header to closing '\n'
  std::string_view payload;
};

/// Parses one RCJE entry at `text[pos..]`. Anything short, malformed
/// or digest-mismatched returns nullopt: the caller treats it as the
/// torn tail and stops.
std::optional<Entry> scan_entry(std::string_view text, std::size_t pos) {
  const std::size_t eol = text.find('\n', pos);
  if (eol == std::string_view::npos) {
    return std::nullopt;
  }
  std::istringstream header(std::string(text.substr(pos, eol - pos)));
  std::string tag;
  std::uint64_t identity = 0;
  std::size_t bytes = 0;
  std::string digest_hex;
  if (!(header >> tag >> identity >> bytes >> digest_hex) || tag != "RCJE") {
    return std::nullopt;
  }
  const std::size_t payload_at = eol + 1;
  // +1 for the trailing '\n' that closes the payload.
  if (payload_at + bytes + 1 > text.size()) {
    return std::nullopt;
  }
  if (text[payload_at + bytes] != '\n') {
    return std::nullopt;
  }
  const std::string_view payload = text.substr(payload_at, bytes);
  if (hex16(fnv1a(payload)) != digest_hex) {
    return std::nullopt;
  }
  return Entry{identity, text.substr(pos, payload_at + bytes + 1 - pos),
               payload};
}

/// Calls `visit(const Entry&)` for the intact entries of `text[pos..]`,
/// at most `limit` of them, up to the first unreadable one; returns
/// where the scan stopped.
template <typename Visit>
std::size_t scan_entries(std::string_view text, std::size_t pos,
                         std::size_t limit, Visit&& visit) {
  for (std::size_t n = 0; n < limit && pos < text.size(); ++n) {
    const std::optional<Entry> entry = scan_entry(text, pos);
    if (!entry) {
      break;
    }
    visit(*entry);
    pos += entry->bytes.size();
  }
  return pos;
}

/// Where a snapshot's entries start and how many its `RCSS v1 <count>`
/// header declares; nullopt for any other header.
std::optional<std::pair<std::size_t, std::size_t>> snapshot_body(
    const std::string& snapshot) {
  const std::size_t eol = snapshot.find('\n');
  if (eol == std::string::npos) {
    return std::nullopt;
  }
  std::istringstream header(snapshot.substr(0, eol));
  std::string tag;
  std::string version;
  std::size_t count = 0;
  if (!(header >> tag >> version >> count) || tag != "RCSS" ||
      version != "v1") {
    return std::nullopt;
  }
  return std::pair{eol + 1, count};
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `size` bytes of `path` from `offset`; shorter if the file is.
std::string read_file_range(const std::string& path, std::uint64_t offset,
                            std::uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes(size, '\0');
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

/// Offset of `entry`'s header in the text it was parsed from.
std::uint64_t offset_in(std::string_view text, const Entry& entry) {
  return static_cast<std::uint64_t>(entry.bytes.data() - text.data());
}

}  // namespace

std::string encode_journal_entry(std::uint64_t identity,
                                 const std::string& payload) {
  std::ostringstream os;
  os << "RCJE " << identity << ' ' << payload.size() << ' '
     << hex16(fnv1a(payload)) << '\n'
     << payload << '\n';
  return os.str();
}

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {
  REPRO_REQUIRE_MSG(config_.capacity >= 1, "result cache capacity must be >= 1");
  if (!config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    REPRO_REQUIRE_MSG(!ec, "cannot create result cache directory");
    recover();
    open_journal();
  }
}

ResultCache::~ResultCache() {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
  }
}

std::string ResultCache::journal_path() const {
  return config_.dir + "/" + kJournalFile;
}

std::string ResultCache::snapshot_path() const {
  return config_.dir + "/" + kSnapshotFile;
}

void ResultCache::recover() {
  // Snapshot first (atomic_write_file guarantees it is whole, but the
  // per-entry digests are still verified -- cheap insurance against
  // editors and cosmic rays)...
  const auto restore = [this](const Entry& entry, bool in_snapshot,
                              std::uint64_t offset) {
    durable_[entry.identity] = {in_snapshot, offset, entry.bytes.size()};
    if (insert_in_memory(entry.identity, std::string(entry.payload))) {
      ++stats_.recovered_entries;
    }
  };
  const std::string snapshot = read_whole_file(snapshot_path());
  if (!snapshot.empty()) {
    if (const auto body = snapshot_body(snapshot)) {
      std::size_t read = 0;
      scan_entries(snapshot, body->first, body->second,
                   [&](const Entry& entry) {
                     restore(entry, true, offset_in(snapshot, entry));
                     ++read;
                   });
      if (read < body->second) {
        REPRO_LOG_WARN("result cache: snapshot entry ", read,
                       " unreadable; keeping the ", read,
                       " entries before it");
      }
    } else {
      REPRO_LOG_WARN("result cache: unrecognized snapshot header; starting "
                     "from the journal alone");
    }
  }
  // ...then replay the journal over it, stopping at the torn tail.
  // Replay over a snapshot is idempotent: same identity implies the
  // byte-identical payload.
  const std::string journal = read_whole_file(journal_path());
  const std::size_t intact =
      scan_entries(journal, 0, std::numeric_limits<std::size_t>::max(),
                   [&](const Entry& entry) {
                     restore(entry, false, offset_in(journal, entry));
                   });
  journal_size_ = intact;
  if (intact < journal.size()) {
    stats_.dropped_torn_bytes = journal.size() - intact;
    REPRO_LOG_WARN("result cache: dropping ", stats_.dropped_torn_bytes,
                   " bytes of torn journal tail");
    // Cut the tail off the file too: an entry appended behind it
    // would be lost at the next recovery, which stops here again.
    std::error_code ec;
    std::filesystem::resize_file(journal_path(), intact, ec);
    REPRO_REQUIRE_MSG(!ec, "cannot cut the torn result cache journal tail");
  }
}

bool ResultCache::insert_in_memory(std::uint64_t identity,
                                   std::string payload) {
  const auto it = index_.find(identity);
  if (it != index_.end()) {
    REPRO_REQUIRE_MSG(it->second->second == payload,
                      "result cache: two different payloads for one config "
                      "identity -- the deterministic simulator contradicted "
                      "itself");
    entries_.splice(entries_.begin(), entries_, it->second);
    return false;
  }
  entries_.emplace_front(identity, std::move(payload));
  index_[identity] = entries_.begin();
  while (entries_.size() > config_.capacity) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

void ResultCache::open_journal() {
  journal_fd_ = ::open(journal_path().c_str(),
                       O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  REPRO_REQUIRE_MSG(journal_fd_ >= 0, "cannot open result cache journal");
}

std::optional<std::string> ResultCache::lookup(std::uint64_t identity) {
  const auto it = index_.find(identity);
  if (it == index_.end()) {
    std::optional<std::string> payload = read_back(identity);
    if (!payload) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    ++stats_.read_backs;
    insert_in_memory(identity, *payload);
    return payload;
  }
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->second;
}

std::optional<std::string> ResultCache::read_back(std::uint64_t identity) {
  const auto it = durable_.find(identity);
  if (it == durable_.end()) {
    return std::nullopt;
  }
  const Location& at = it->second;
  const std::string bytes = read_file_range(
      at.in_snapshot ? snapshot_path() : journal_path(), at.offset, at.size);
  const std::optional<Entry> entry = scan_entry(bytes, 0);
  if (!entry || entry->identity != identity ||
      entry->bytes.size() != bytes.size()) {
    REPRO_LOG_WARN("result cache: entry ", identity,
                   " no longer reads back from the directory; it will be "
                   "recomputed");
    durable_.erase(it);
    return std::nullopt;
  }
  return std::string(entry->payload);
}

void ResultCache::insert(std::uint64_t identity, const std::string& payload) {
  if (journal_fd_ >= 0) {
    append_journal(identity, payload);
  }
  if (insert_in_memory(identity, payload)) {
    ++stats_.insertions;
  }
  if (journal_fd_ >= 0 && config_.snapshot_every != 0 &&
      ++appends_since_snapshot_ >= config_.snapshot_every) {
    write_snapshot();
  }
}

void ResultCache::append_journal(std::uint64_t identity,
                                 const std::string& payload) {
  const std::string entry = encode_journal_entry(identity, payload);
  std::size_t off = 0;
  while (off < entry.size()) {
    const ssize_t n =
        ::write(journal_fd_, entry.data() + off, entry.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      REPRO_REQUIRE_MSG(false, "result cache journal write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync is the acknowledgement: once insert() returns, recovery
  // is obliged to find this entry.
  REPRO_REQUIRE_MSG(::fsync(journal_fd_) == 0,
                    "result cache journal fsync failed");
  durable_[identity] = {false, journal_size_, entry.size()};
  journal_size_ += entry.size();
}

void ResultCache::write_snapshot() {
  // The files, not memory, hold the store: memory keeps at most
  // `capacity` entries of it. So the snapshot compacts the old
  // snapshot and the journal, each identity once at its last
  // occurrence, copying the entries' bytes as they stand; recovery
  // reads the same store back from it.
  const std::string snapshot = read_whole_file(snapshot_path());
  const std::string journal = read_whole_file(journal_path());
  std::vector<Entry> all;
  const auto keep = [&all](const Entry& entry) { all.push_back(entry); };
  if (const auto body = snapshot_body(snapshot)) {
    scan_entries(snapshot, body->first, body->second, keep);
  }
  scan_entries(journal, 0, std::numeric_limits<std::size_t>::max(), keep);
  std::unordered_map<std::uint64_t, std::size_t> last;
  for (std::size_t i = 0; i < all.size(); ++i) {
    last[all[i].identity] = i;
  }
  std::string out = "RCSS v1 " + std::to_string(last.size()) + '\n';
  out.reserve(out.size() + snapshot.size() + journal.size());
  std::unordered_map<std::uint64_t, Location> durable;
  durable.reserve(last.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (last[all[i].identity] == i) {
      durable[all[i].identity] = {true, out.size(), all[i].bytes.size()};
      out += all[i].bytes;
    }
  }
  atomic_write_file(snapshot_path(), out);
  durable_ = std::move(durable);
  ++stats_.snapshots;
  appends_since_snapshot_ = 0;
  // Truncate the journal only after the snapshot is durably in place;
  // a crash in between replays the journal over the snapshot, which is
  // idempotent.
  ::close(journal_fd_);
  journal_fd_ = -1;
  atomic_write_file(journal_path(), "");
  journal_size_ = 0;
  open_journal();
}

void ResultCache::flush_snapshot() {
  if (journal_fd_ >= 0) {
    write_snapshot();
  }
}

}  // namespace repro::harness
