// Crash-safe memoized result cache: the repo's one durable result
// store. The sweep daemon (repro_sweepd --cache-dir) serves hits from
// it, and run_sweep resumes from it (SweepOptions::checkpoint_dir), so
// either can read a directory the other wrote.
//
// Keyed by config_identity(cell); the value is the cell's
// encode_result() text verbatim (the same bytes a worker replied
// with). Durability is an append-only journal plus a periodic atomic
// snapshot:
//
//   journal.log    RCJE <identity> <bytes> <fnv16hex>\n<payload>\n ...
//   snapshot.txt   RCSS v1 <count>\n followed by RCJE entries,
//                  written via atomic_write_file, oldest first
//
// insert() appends to the journal and fsyncs before returning -- an
// entry is "acknowledged" once insert() returns and recovery must
// never lose it. Every snapshot_every appends the whole store is
// snapshotted atomically and the journal truncated; a crash between
// the two replays journal entries over the snapshot, which is
// idempotent (same identity -> byte-identical payload, by the
// determinism the simulator guarantees). `capacity` bounds the
// resident entries only: an entry evicted from memory stays in the
// directory, because a snapshot compacts the old snapshot and the
// journal (each identity once, at its last insertion) and never
// reads memory, so a small daemon serving a large sweep directory
// never shrinks it. A snapshot therefore reads and writes the whole
// directory: its time and peak memory grow with the directory, not
// with `capacity`. The cache keeps the file position of every durable
// entry beside the resident set, so a lookup of an evicted entry
// reads that one entry back (verifying its digest as recovery does),
// makes it resident and counts a hit; a lookup of an identity the
// directory does not hold does no I/O. Recovery reads the snapshot,
// replays the journal in order, and drops a torn tail (incomplete
// header, short payload, digest mismatch) at the first bad byte --
// everything before the tear is kept, nothing after it is trusted,
// and the file is cut there so the next append follows the last
// intact entry.
//
// Recency from lookups is deliberately not durable: only insertions
// are journaled, so a recovered cache has insertion-order recency.
// That can change which entry a later insert evicts, never what a
// lookup returns for a present key.
//
// One process per directory: two processes appending to one journal
// can lose acknowledged entries when either one snapshots and
// truncates it. Nothing locks the directory.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace repro::harness {

struct CacheConfig {
  /// Directory for journal.log / snapshot.txt; empty = memory-only
  /// (no durability, same semantics otherwise).
  std::string dir;
  /// Maximum resident entries; least-recently-used beyond this are
  /// evicted from memory (never from the directory). Must be >= 1.
  std::size_t capacity = 256;
  /// Journal appends between snapshots; 0 = snapshot only on
  /// flush_snapshot().
  std::uint32_t snapshot_every = 64;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t snapshots = 0;
  /// Entries restored at construction (snapshot + journal replay).
  std::uint64_t recovered_entries = 0;
  /// Bytes of torn journal tail discarded at recovery.
  std::uint64_t dropped_torn_bytes = 0;
  /// Hits served by reading an evicted entry back from the directory
  /// (counted in `hits` too).
  std::uint64_t read_backs = 0;
};

class ResultCache {
 public:
  /// Opens (and recovers) the cache. Throws ContractViolation when the
  /// directory cannot be created or the journal cannot be opened.
  explicit ResultCache(CacheConfig config);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The payload for `identity`, refreshing its recency; nullopt on
  /// miss. An entry evicted from memory is read back from the
  /// directory and made resident again.
  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t identity);

  /// Journals (fsync) then inserts, evicting LRU entries beyond
  /// capacity. Re-inserting a present key requires the byte-identical
  /// payload (anything else means the deterministic simulator
  /// contradicted itself) and only refreshes recency.
  void insert(std::uint64_t identity, const std::string& payload);

  /// Snapshots now and truncates the journal (graceful-drain hook).
  void flush_snapshot();

  /// Resident entries.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Whether a lookup of `identity` would hit: resident, or durable in
  /// the directory.
  [[nodiscard]] bool contains(std::uint64_t identity) const {
    return index_.count(identity) != 0 || durable_.count(identity) != 0;
  }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string snapshot_path() const;

 private:
  void recover();
  /// Inserts without journaling (recovery path); returns false when
  /// the key was already present.
  bool insert_in_memory(std::uint64_t identity, std::string payload);
  void append_journal(std::uint64_t identity, const std::string& payload);
  void write_snapshot();
  void open_journal();
  /// Reads `identity`'s durable entry back from the directory; nullopt
  /// when the directory does not hold it (no I/O) or its bytes no
  /// longer verify (the position is then forgotten).
  [[nodiscard]] std::optional<std::string> read_back(std::uint64_t identity);

  /// Where a durable entry's bytes sit: its file, the offset of its
  /// RCJE header and the entry's length, header to closing newline.
  struct Location {
    bool in_snapshot = false;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };

  CacheConfig config_;
  CacheStats stats_;
  /// Front = most recently used.
  std::list<std::pair<std::uint64_t, std::string>> entries_;
  std::unordered_map<std::uint64_t, decltype(entries_)::iterator> index_;
  /// Every entry the directory holds, at its last occurrence.
  std::unordered_map<std::uint64_t, Location> durable_;
  /// Bytes in the journal file (the next entry's offset).
  std::uint64_t journal_size_ = 0;
  int journal_fd_ = -1;
  std::uint32_t appends_since_snapshot_ = 0;
};

/// Formats one journal entry (exposed for the torn-write fuzz tests).
[[nodiscard]] std::string encode_journal_entry(std::uint64_t identity,
                                               const std::string& payload);

}  // namespace repro::harness
