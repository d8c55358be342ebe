#!/usr/bin/env python3
"""Inspect an RTRC binary trace file (see DESIGN.md section 16).

Usage:
    tools/trace_info.py TRACE.rtrc            # header, meta, tables
    tools/trace_info.py TRACE.rtrc --verify   # + recompute every digest
    tools/trace_info.py --digest DUMP.trace   # canonical dump -> digest

Prints the file header, decoded metadata, the footer's chunk table,
the region-name table and the program table (each distinct compiled
program, stored once: the chunk defining it, its thread and op
counts).  With --verify the FNV-1a digest of the metadata block and of
every chunk payload is recomputed and compared against the stored
values, every record is decoded, and every program id must be defined
exactly once, in the chunk the program table names, before its first
reference; any mismatch (or structural inconsistency between the
footer and the chunk headers) exits nonzero.  CI runs --verify on the
traces its replay smoke and fast-forward steps dump, so a silent
encoder change that still replays cleanly is caught here.

With --digest the file is a canonical trace dump (a `--trace=DIR`
run's .trace file, DESIGN.md section 10) instead: it is parsed, packed
into the digest's words and hashed, and the 16-hex-digit trace digest
the run reports for it is printed (canonical_dump_digest below).

Pure standard library; layout constants mirror
src/tracefmt/include/repro/tracefmt/format.hpp (RTRC version 2), and
the digest mirrors repro::WordHash and trace::digest (digest v2).
"""

import argparse
import struct
import sys

FILE_MAGIC = 0x43525452  # "RTRC"
CHUNK_MAGIC = 0x4B435452  # "RTCK"
TABLE_MAGIC = 0x42545452  # "RTTB"
FOOTER_MAGIC = 0x4E455452  # "RTEN"
FORMAT_VERSION = 2

FILE_HEADER = struct.Struct("<IIQQQ")  # magic, version, meta_bytes, meta_digest, reserved
CHUNK_HEADER = struct.Struct("<IIQQQQ")  # magic, reserved, payload, records, ops, digest
# magic, version, chunks, table_off, names_off, programs_off, records, ops
FOOTER = struct.Struct("<IIQQQQQQ")

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x00000100000001B3
MASK64 = (1 << 64) - 1

RECORD_KINDS = {1: "cold_begin", 2: "iteration_begin", 3: "region",
                4: "advance", 5: "program"}


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


# repro::WordHash (src/common/include/repro/common/hash.hpp): XXH64's
# per-word step and final avalanche over 64-bit words.
XXH_P1 = 0x9E3779B185EBCA87
XXH_P2 = 0xC2B2AE3D27D4EB4F
XXH_P3 = 0x165667B19E3779F9
XXH_P4 = 0x85EBCA77C2B2AE63
XXH_P5 = 0x27D4EB2F165667C5


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & MASK64


def _step(h: int, word: int) -> int:
    h ^= (_rotl((word * XXH_P2) & MASK64, 31) * XXH_P1) & MASK64
    return (_rotl(h, 27) * XXH_P1 + XXH_P4) & MASK64


class WordHash:
    def __init__(self):
        self.hash = XXH_P5
        self.words = 0

    def add(self, word: int) -> None:
        self.hash = _step(self.hash, word & MASK64)
        self.words += 1

    def add_bytes(self, data: bytes) -> None:
        self.add(len(data))
        for at in range(0, len(data), 8):
            self.add(int.from_bytes(data[at:at + 8], "little"))

    def finish(self) -> int:
        h = _step(self.hash, self.words)
        h = ((h ^ (h >> 33)) * XXH_P2) & MASK64
        h = ((h ^ (h >> 29)) * XXH_P3) & MASK64
        return h ^ (h >> 32)


# trace::EventKind, in enum order (src/trace/include/repro/trace/event.hpp).
EVENT_KINDS = [
    "region_begin", "region_end", "barrier_wait", "page_migration",
    "page_replication", "replica_collapse", "page_freeze", "upm_call",
    "daemon_scan", "queue_sample", "iteration_begin", "iteration_end",
    "fault_injection", "task_spawn", "task_steal", "line_fill",
    "line_invalidate", "line_upgrade", "line_writeback",
]
TRACE_DIGEST_VERSION = 2


def canonical_dump_digest(text: str) -> str:
    """The trace digest of a canonical dump, from its text alone.

    Packs the dump the way trace::digest packs the sink (export.hpp):
    the version word, the lane and phase tables (count, then each
    name's length and bytes), then nine words per event line.
    """
    lines = text.split("\n")
    if lines[0] != "# repro-trace v1":
        raise ValueError("not a canonical trace dump (bad header)")
    lanes, phases, events = [], [], []
    kinds = {name: i for i, name in enumerate(EVENT_KINDS)}
    for line in lines[1:]:
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head in ("lane", "phase"):
            name = rest.partition(" ")[2]
            (lanes if head == "lane" else phases).append(name.encode())
            continue
        kind, *pairs = rest.split(" ")
        f = {k: int(v) for k, v in (p.split("=", 1) for p in pairs)}
        u32 = 0xFFFFFFFF
        events.append((
            int(head), f["page"], f["a"], f["b"], f["cost"],
            (f["node"] & u32) | (f["src"] & u32) << 32,
            (f["dst"] & u32) | kinds[kind] << 32 | f["lane"] << 48,
            f["seq"] | f["it"] << 32,
            f["ph"]))
    h = WordHash()
    h.add(TRACE_DIGEST_VERSION)
    for table in (lanes, phases):
        h.add(len(table))
        for name in table:
            h.add_bytes(name)
    for words in events:
        for word in words:
            h.add(word)
    return f"{h.finish():016x}"


class Cursor:
    """Bounds-checked LEB128 reader over a bytes object."""

    def __init__(self, data: bytes, at: int = 0):
        self.data = data
        self.at = at

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            if self.at >= len(self.data):
                raise ValueError("varint past end of buffer")
            byte = self.data[self.at]
            self.at += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift >= 64:
                raise ValueError("varint over 64 bits")

    def string(self) -> str:
        n = self.varint()
        if self.at + n > len(self.data):
            raise ValueError("string past end of buffer")
        s = self.data[self.at:self.at + n].decode("utf-8", "replace")
        self.at += n
        return s

    def u64(self) -> int:
        if self.at + 8 > len(self.data):
            raise ValueError("u64 past end of buffer")
        (v,) = struct.unpack_from("<Q", self.data, self.at)
        self.at += 8
        return v


def decode_meta(blob: bytes) -> dict:
    c = Cursor(blob)
    meta = {
        "num_procs": c.varint(),
        "num_threads": c.varint(),
        "iterations": c.varint(),
        "page_size": c.varint(),
        "benchmark": c.string(),
        "source_label": c.string(),
    }
    meta["allocations"] = [
        {"name": c.string(), "first_page": c.varint(), "pages": c.varint()}
        for _ in range(c.varint())
    ]
    meta["hot_ranges"] = [
        {"first_page": c.varint(), "pages": c.varint()}
        for _ in range(c.varint())
    ]
    if c.at != len(blob):
        raise ValueError("metadata has trailing bytes")
    return meta


def skip_program_body(payload: bytes, c: Cursor) -> tuple:
    """Walks one program body; returns (threads, ops)."""
    num_threads = c.varint()
    c.varint()  # max_access_lines
    c.varint()  # max_line_begin
    ops = 0
    for _ in range(num_threads):
        count = c.varint()
        ops += count
        for _ in range(count):
            if c.at >= len(payload):
                raise ValueError("op past end of payload")
            flags = payload[c.at]
            c.at += 1
            if flags & ~0xF:
                raise ValueError(f"unknown op flags {flags:#x}")
            if flags & 0x1:  # access
                c.varint()  # page delta (zigzag)
                c.varint()  # lines
                c.varint()  # line_begin
            c.varint()  # compute
    return num_threads, ops


def read_chunk(data: bytes, row: dict) -> bytes:
    """Checks a chunk's header against its table row and its payload
    against its digest; returns the payload."""
    (magic, _, payload_bytes, records, ops, digest) = \
        CHUNK_HEADER.unpack_from(data, row["offset"])
    if magic != CHUNK_MAGIC:
        raise ValueError(f"bad magic {magic:#x}")
    if (payload_bytes, records, ops, digest) != (
            row["payload_bytes"], row["record_count"], row["op_count"],
            row["payload_digest"]):
        raise ValueError("header disagrees with chunk table")
    start = row["offset"] + CHUNK_HEADER.size
    payload = data[start:start + payload_bytes]
    if fnv1a(payload) != digest:
        raise ValueError("payload digest mismatch")
    return payload


def decode_chunk(index: int, payload: bytes, record_count: int,
                 op_count: int, programs: list, defined: int, names: list,
                 kinds: dict) -> int:
    """Decodes one chunk payload, tallying record kinds into `kinds`.

    `defined` is the number of programs defined before this chunk; the
    count after it is returned.  A definition must carry the next id
    and sit in the chunk the program table names, and a region may
    reference only ids already defined.
    """
    c = Cursor(payload)
    ops = 0
    for _ in range(record_count):
        if c.at >= len(payload):
            raise ValueError("record past end of payload")
        kind = payload[c.at]
        c.at += 1
        name = RECORD_KINDS.get(kind)
        if name is None:
            raise ValueError(f"unknown record kind {kind}")
        kinds[name] = kinds.get(name, 0) + 1
        if name in ("iteration_begin", "advance"):
            c.varint()
        elif name == "program":
            pid = c.varint()
            if pid < defined:
                raise ValueError(f"second definition of program {pid}")
            if pid != defined or pid >= len(programs) or \
                    programs[pid]["chunk"] != index:
                raise ValueError(f"program {pid} is defined out of step "
                                 "with the program table")
            defined += 1
            shape = skip_program_body(payload, c)
            row = programs[pid]
            if shape != (row["threads"], row["ops"]):
                raise ValueError(f"program {pid} disagrees with the "
                                 "program table")
        elif name == "region":
            pid = c.varint()
            if pid >= defined:
                raise ValueError(f"region references undefined program "
                                 f"{pid}")
            programs[pid]["references"] += 1
            if c.varint() >= len(names):
                raise ValueError("region references an undefined name")
            binding = c.varint()
            if binding not in (0, programs[pid]["threads"]):
                raise ValueError("region binding does not match its "
                                 "program's thread count")
            for _ in range(binding):
                c.varint()
            ops += programs[pid]["ops"]
    if c.at != len(payload):
        raise ValueError("chunk payload has trailing bytes")
    if defined != sum(1 for p in programs if p["chunk"] <= index):
        raise ValueError(f"missing the definition of program {defined}")
    if ops != op_count:
        raise ValueError(f"op count {op_count} != {ops} referenced")
    return defined


def fail(message: str) -> None:
    print(f"trace_info: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", help="RTRC trace file (a canonical dump "
                                      "with --digest)")
    parser.add_argument("--verify", action="store_true",
                        help="recompute and check every digest; exit "
                             "nonzero on any mismatch")
    parser.add_argument("--digest", action="store_true",
                        help="print the trace digest of a canonical dump")
    args = parser.parse_args()

    if args.digest:
        with open(args.trace, encoding="utf-8") as f:
            try:
                print(canonical_dump_digest(f.read()))
            except (ValueError, KeyError) as e:
                fail(f"{args.trace}: {e}")
        return

    with open(args.trace, "rb") as f:
        data = f.read()

    if len(data) < FILE_HEADER.size + FOOTER.size:
        fail(f"{args.trace}: too small to be an RTRC trace")
    magic, version, meta_bytes, meta_digest, _ = FILE_HEADER.unpack_from(data)
    if magic != FILE_MAGIC:
        fail(f"{args.trace}: bad file magic {magic:#x}")
    if version != FORMAT_VERSION:
        fail(f"{args.trace}: unsupported version {version}")
    meta_blob = data[FILE_HEADER.size:FILE_HEADER.size + meta_bytes]
    if len(meta_blob) != meta_bytes:
        fail(f"{args.trace}: truncated metadata")
    try:
        meta = decode_meta(meta_blob)
    except ValueError as e:
        fail(f"{args.trace}: {e}")

    (f_magic, f_version, chunk_count, table_off, names_off, programs_off,
     total_records, total_ops) = FOOTER.unpack_from(
         data, len(data) - FOOTER.size)
    if f_magic != FOOTER_MAGIC:
        fail(f"{args.trace}: bad footer magic {f_magic:#x}")
    if f_version != FORMAT_VERSION:
        fail(f"{args.trace}: footer version {f_version} != {FORMAT_VERSION}")

    (t_magic,) = struct.unpack_from("<I", data, table_off)
    if t_magic != TABLE_MAGIC:
        fail(f"{args.trace}: bad chunk-table magic {t_magic:#x}")
    table = Cursor(data[:names_off], table_off + 4)
    chunks = []
    for _ in range(chunk_count):
        chunks.append({
            "offset": table.varint(),
            "payload_bytes": table.varint(),
            "record_count": table.varint(),
            "op_count": table.varint(),
            "payload_digest": table.u64(),
        })

    names_cursor = Cursor(data[:len(data) - FOOTER.size], names_off)
    names = [names_cursor.string() for _ in range(names_cursor.varint())]
    programs_cursor = Cursor(data[:len(data) - FOOTER.size], programs_off)
    programs = [
        {"chunk": programs_cursor.varint(),
         "threads": programs_cursor.varint(),
         "ops": programs_cursor.varint(), "references": 0}
        for _ in range(programs_cursor.varint())
    ]

    print(f"file:          {args.trace} ({len(data)} bytes)")
    print(f"format:        RTRC version {version}")
    print(f"benchmark:     {meta['benchmark']} ({meta['source_label']})")
    print(f"machine:       {meta['num_procs']} procs, "
          f"{meta['num_threads']} threads, page size {meta['page_size']}")
    print(f"iterations:    {meta['iterations']}")
    print(f"allocations:   " + (", ".join(
        f"{a['name']}[{a['pages']}p@{a['first_page']}]"
        for a in meta["allocations"]) or "-"))
    print(f"hot ranges:    " + (", ".join(
        f"[{r['first_page']}, {r['first_page'] + r['pages']})"
        for r in meta["hot_ranges"]) or "-"))
    print(f"totals:        {total_records} records, {total_ops} ops "
          f"dispatched, {chunk_count} chunk(s), {len(programs)} program(s) "
          f"of {sum(p['ops'] for p in programs)} ops")
    print(f"region names:  {', '.join(names) or '-'}")
    print()
    print("program  chunk   threads  ops")
    for i, p in enumerate(programs):
        print(f"{i:<8} {p['chunk']:<7} {p['threads']:<8} {p['ops']}")
    print()
    print("chunk  offset      payload  records  ops      digest")
    for i, c in enumerate(chunks):
        print(f"{i:<6} {c['offset']:<11} {c['payload_bytes']:<8} "
              f"{c['record_count']:<8} {c['op_count']:<8} "
              f"{c['payload_digest']:016x}")

    # Structural cross-checks (always on).
    sum_records = sum(c["record_count"] for c in chunks)
    sum_ops = sum(c["op_count"] for c in chunks)
    if sum_records != total_records:
        fail(f"chunk table records {sum_records} != footer {total_records}")
    if sum_ops != total_ops:
        fail(f"chunk table ops {sum_ops} != footer {total_ops}")
    table_chunks = [p["chunk"] for p in programs]
    if table_chunks != sorted(table_chunks) or \
            any(c >= len(chunks) for c in table_chunks):
        fail("program table names chunks out of order or past the end")

    if not args.verify:
        return

    failures = 0
    if fnv1a(meta_blob) != meta_digest:
        print("VERIFY: metadata digest mismatch", file=sys.stderr)
        failures += 1
    record_kinds = {}
    defined = 0
    for i, c in enumerate(chunks):
        try:
            payload = read_chunk(data, c)
            defined = decode_chunk(i, payload, c["record_count"],
                                   c["op_count"], programs, defined, names,
                                   record_kinds)
        except ValueError as e:
            print(f"VERIFY: chunk {i}: {e}", file=sys.stderr)
            failures += 1
            # Resynchronise with the table: one bad chunk, one failure.
            defined = sum(1 for p in programs if p["chunk"] <= i)
    print()
    print("records:       " + (", ".join(
        f"{n} {kind}" for kind, n in sorted(record_kinds.items())) or "-"))
    print("references:    " + (", ".join(
        f"program {i} x{p['references']}"
        for i, p in enumerate(programs)) or "-"))
    if failures:
        fail(f"{failures} verification failure(s)")
    print(f"verify:        OK ({len(chunks)} chunk digest(s) + metadata, "
          f"{len(programs)} program(s) each defined once before use)")


if __name__ == "__main__":
    main()
