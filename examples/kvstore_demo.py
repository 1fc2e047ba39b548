#!/usr/bin/env python3
"""An LSM key-value store (the LevelDB stand-in of §5.3) on ArckFS+.

Loads a small dataset, forces flushes and compactions, range-scans, kills
the 'machine' mid-stream and recovers from the write-ahead log — all on the
simulated PM volume underneath the session.

Run:  python examples/kvstore_demo.py
"""

from repro.api import Volume, VolumeConfig
from repro.kv.db import DB
from repro.kv.options import Options


def main() -> None:
    vol = Volume.create(96 * 1024 * 1024, VolumeConfig(inode_count=4096))
    fs = vol.session("kvapp", uid=1000).fs
    options = Options(memtable_bytes=8 * 1024, tables_per_level=3)
    db = DB(fs, "/mydb", options)

    print("loading 1000 user records...")
    for i in range(1000):
        db.put(f"user:{i:05d}".encode(), f"name-{i};score={i * 7 % 100}".encode())
    for i in range(0, 1000, 3):
        db.delete(f"user:{i:05d}".encode())

    print(f"flushes={db.stats['flushes']} compactions={db.stats['compactions']}")
    print("point lookups:",
          db.get(b"user:00001"), "|", db.get(b"user:00000"), "(deleted)")

    print("range scan user:00010..user:00020:")
    for key, value in db.scan(b"user:00010", b"user:00020"):
        print("   ", key.decode(), "->", value.decode())

    # Unclean shutdown: no close(); the WAL carries the memtable tail.
    db.put(b"user:99999", b"written-right-before-the-crash")
    del db

    print("\nreopening (WAL replay + manifest load)...")
    db2 = DB(fs, "/mydb", options)
    print(f"replayed {db2.stats['wal_replayed']} WAL records")
    print("survived the crash:", db2.get(b"user:99999").decode())
    print("total live keys:", len(db2))
    db2.close()

    # What did the KV store ask of the file system?  (§5.3's premise.)
    s = fs.stats
    data_ops = s.reads + s.writes
    ns_ops = s.creates + s.unlinks + s.renames + s.opens + s.mkdirs
    print(f"\nFS op mix: {data_ops} data ops vs {ns_ops} namespace ops "
          f"({data_ops / (data_ops + ns_ops) * 100:.1f}% data-dominated)")
    vol.close()


if __name__ == "__main__":
    main()
