#!/usr/bin/env python3
"""Out-of-process inspector for IO-Lite shared-memory data planes.

Maps a plane's region read-only, walks the ShmTable directory at payload
offset 0, decodes every structure it knows (queues, map, futures, counters,
pin ledger) with nothing but the fixed ABI offsets from src/ipc/*.h, and
prints one JSON document. This is the proof that the plane's state is
genuinely discoverable from outside the serving processes: no C++ involved,
no cooperation from the workers, works while they run or after they exit.

Usage:
    scripts/shm_inspect.py                 # list /dev/shm segments with a region header
    scripts/shm_inspect.py <name>          # dump plane in /dev/shm/<name> as JSON
    scripts/shm_inspect.py /path/to/file   # same, by explicit path

ABI mirrored here (keep in sync):
    ShmRegion::Header   src/ipc/shm_region.h   magic IOLS, payload @ +64
    ShmTable            src/ipc/shm_table.h    magic IOLT, 64-byte entries
    MpmcQueue           src/ipc/mpmc_queue.h   magic IOLQ; event count: u32
                                               wake_seq @ +196, u32 sleepers @ +200
    ShmMap              src/ipc/shm_map.h      magic IOLM
    ShmFuturePool       src/ipc/shm_future.h   magic IOLF; 128-byte slots after a
                                               64-byte header, u32 sleepers @ +12
    ShmCounters         src/ipc/shm_counters.h magic IOLC, count slots, then
                                               count 32-byte NUL-padded names
    PinLedger           src/ipc/process_plane.h raw "plane.pins": one u64 per
                                               worker slot, ticket + 1 (0 = none)

Counter names come from the block itself, so a counter added on the C++ side
shows up here under its own name with no change to this script.
"""

import json
import mmap
import os
import struct
import sys

REGION_MAGIC = 0x494F4C53  # "IOLS"
TABLE_MAGIC = 0x494F4C54   # "IOLT"
QUEUE_MAGIC = 0x494F4C51   # "IOLQ"
MAP_MAGIC = 0x494F4C4D     # "IOLM"
FUTURE_MAGIC = 0x494F4C46  # "IOLF"
COUNTERS_MAGIC = 0x494F4C43  # "IOLC"

HEADER_SPAN = 64  # Region header; payload starts here.

SHM_TYPE_NAMES = {0: "raw", 1: "queue", 2: "map", 3: "futures", 4: "counters"}

COUNTER_NAME_BYTES = 32  # ShmCounters::kNameBytes.

FUTURE_STATE_NAMES = {0: "free", 1: "pending", 2: "ready", 3: "error", 4: "writing"}

PIN_LEDGER_NAME = "plane.pins"  # kPlanePinLedger.


def decode_region_header(buf):
    magic, _res, payload_size, bump, owner_pid = struct.unpack_from("<IIQQQ", buf, 0)
    if magic != REGION_MAGIC:
        return None
    return {
        "payload_size": payload_size,
        "bytes_used": bump,
        "owner_pid": owner_pid,
        "owner_alive": pid_alive(owner_pid),
    }


def pid_alive(pid):
    if pid == 0:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def decode_table(payload):
    magic, capacity, count, _res = struct.unpack_from("<IIII", payload, 0)
    if magic != TABLE_MAGIC:
        return None
    entries = []
    count = min(count, capacity)
    for i in range(count):
        off = 64 + i * 64
        name_raw = bytes(payload[off:off + 32])
        name = name_raw.split(b"\0", 1)[0].decode("ascii", "replace")
        offset, size, etype, state = struct.unpack_from("<QQII", payload, off + 32)
        if state != 2:  # kEntryReady
            continue
        entries.append({
            "name": name,
            "offset": offset,
            "size": size,
            "type": SHM_TYPE_NAMES.get(etype, etype),
        })
    return entries


def decode_queue(payload, off):
    magic, capacity = struct.unpack_from("<II", payload, off)
    if magic != QUEUE_MAGIC:
        return {"error": "bad queue magic"}
    (enq,) = struct.unpack_from("<Q", payload, off + 64)
    (deq,) = struct.unpack_from("<Q", payload, off + 128)
    closed, wake_seq, sleepers = struct.unpack_from("<III", payload, off + 192)
    return {
        "capacity": capacity,
        "enqueued": enq,
        "dequeued": deq,
        "occupancy": max(0, enq - deq),
        "closed": bool(closed),
        # Consumers registered to park since the last wake (an upper bound on
        # those asleep), and the wakes so far (the word they park on).
        "sleepers": sleepers,
        "wake_seq": wake_seq,
    }


def decode_map(payload, off, max_entries):
    magic, capacity, size, tombstones, bytes_ = struct.unpack_from("<IIIIQ", payload, off)
    if magic != MAP_MAGIC:
        return {"error": "bad map magic"}
    live = []
    for i in range(capacity):
        soff = off + 64 + i * 64
        # The slot word: u32 state, then the u32 pin count (little-endian).
        state, pins, key, value_off, value_len = struct.unpack_from(
            "<IIQQQ", payload, soff)
        if state != 2:  # kFull
            continue
        if len(live) < max_entries:
            live.append({
                "key": key,
                "pins": pins,
                "payload_offset": value_off,
                "payload_length": value_len,
            })
    return {
        "capacity": capacity,
        "size": size,
        "tombstones": tombstones,
        "bytes": bytes_,
        "entries": live,
    }


def decode_futures(payload, off):
    magic, capacity, allocated, _hint = struct.unpack_from("<IIII", payload, off)
    if magic != FUTURE_MAGIC:
        return {"error": "bad future pool magic"}
    states = {}
    sleepers = 0
    for i in range(capacity):
        slot = off + 64 + i * 128
        (state,) = struct.unpack_from("<I", payload, slot)
        (slot_sleepers,) = struct.unpack_from("<I", payload, slot + 12)
        name = FUTURE_STATE_NAMES.get(state, str(state))
        states[name] = states.get(name, 0) + 1
        sleepers += slot_sleepers
    return {"capacity": capacity, "allocated": allocated, "states": states,
            "sleepers": sleepers}


def decode_counters(payload, off):
    magic, count = struct.unpack_from("<II", payload, off)
    if magic != COUNTERS_MAGIC:
        return {"error": "bad counters magic"}
    # The block names its own slots: `count` NUL-padded names follow them.
    names_at = off + 64 + 8 * count
    out = {}
    for i in range(count):
        (value,) = struct.unpack_from("<Q", payload, off + 64 + 8 * i)
        at = names_at + COUNTER_NAME_BYTES * i
        raw = bytes(payload[at:at + COUNTER_NAME_BYTES])
        name = raw.split(b"\0", 1)[0].decode("ascii", "replace")
        out[name or "counter_%d" % i] = value
    return out


def decode_pin_ledger(payload, off, size):
    # Worker slot -> the key whose pin it holds. After a crash this names the
    # pin the supervisor's sweep will return, or that a dead worker left.
    held = {}
    for slot in range(size // 8):
        (stored,) = struct.unpack_from("<Q", payload, off + 8 * slot)
        if stored != 0:
            held[str(slot)] = stored - 1
    return {"slots": size // 8, "held": held}


def inspect(path, max_map_entries=64):
    # One consistent snapshot of the mapping (counters and tickets keep
    # moving under a live plane; decoding a snapshot keeps the output
    # self-consistent and sidesteps torn multi-field reads).
    with open(path, "rb") as f:
        mapped = mmap.mmap(f.fileno(), 0, prot=mmap.PROT_READ)
        try:
            buf = mapped[:]
        finally:
            mapped.close()
    region = decode_region_header(buf)
    if region is None:
        return {"path": path, "error": "no IO-Lite region header"}
    payload = buf[HEADER_SPAN:]
    doc = {"path": path, "region": region}
    entries = decode_table(payload)
    if entries is None:
        doc["error"] = "no ShmTable at payload offset 0"
        return doc
    doc["table"] = entries
    structures = {}
    for e in entries:
        kind, off = e["type"], e["offset"]
        if kind == "queue":
            structures[e["name"]] = decode_queue(payload, off)
        elif kind == "map":
            structures[e["name"]] = decode_map(payload, off, max_map_entries)
        elif kind == "futures":
            structures[e["name"]] = decode_futures(payload, off)
        elif kind == "counters":
            structures[e["name"]] = decode_counters(payload, off)
        elif e["name"] == PIN_LEDGER_NAME:
            structures[e["name"]] = decode_pin_ledger(payload, off, e["size"])
    doc["structures"] = structures
    return doc


def list_regions():
    found = []
    try:
        names = sorted(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return found
    for name in names:
        path = os.path.join("/dev/shm", name)
        try:
            with open(path, "rb") as f:
                head = f.read(64)
            if len(head) >= 32 and decode_region_header(head) is not None:
                found.append({"name": name, **decode_region_header(head)})
        except OSError:
            continue
    return found


def main(argv):
    if len(argv) < 2:
        print(json.dumps({"regions": list_regions()}, indent=2))
        return 0
    arg = argv[1]
    path = arg if os.path.sep in arg else os.path.join("/dev/shm", arg.lstrip("/"))
    doc = inspect(path)
    print(json.dumps(doc, indent=2))
    return 0 if "error" not in doc else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
