#!/usr/bin/env python3
"""Quickstart: a Trio volume + an ArckFS+ session in 40 lines.

Creates a simulated PM volume through the ``repro.api`` facade, runs an
application through the POSIX-like API, crashes the machine, and recovers.

Run:  python examples/quickstart.py
"""

from repro.api import Volume, VolumeConfig


def main() -> None:
    # A 64 MiB simulated persistent-memory volume: device + trusted kernel
    # formatted and mounted in one call.
    with Volume.create(64 * 1024 * 1024, VolumeConfig(inode_count=1024)) as vol:
        # One application's session: direct userspace access, no syscalls on
        # the hot path, synchronous persistence.
        with vol.session("app1", uid=1000) as fs:
            fs.mkdir("/projects")
            fd = fs.creat("/projects/notes.txt")
            fs.pwrite(fd, b"ArckFS+ reproduces the SOSP'25 paper.\n", 0)
            fs.fsync(fd)  # returns immediately: already durable
            fs.close(fd)

            fs.mkdir("/archive")
            fs.rename("/projects/notes.txt", "/archive/notes.txt")
            print("directory tree:", fs.readdir("/"), fs.readdir("/archive"))
            print("stat:", fs.stat("/archive/notes.txt"))

        # Leaving the session hands everything back to the kernel: each
        # release verifies the inode's core state against the shadow table
        # (the Trio architecture's deal).
        kernel = vol.kernel
        print(f"kernel verified {kernel.stats.bytes_verified} bytes across "
              f"{kernel.stats.verifications} verifications")

        # Pull the plug: keep only the durable image.
        image = vol.device.durable_image()

    # Reboot from the image alone.  Mount reads the volume with fsck's own
    # check and repairs, through fsck's engine, what it may before anyone
    # attaches; its report speaks fsck's classes.
    with Volume.mount(image) as vol2:
        report = vol2.recovery
        print("recovery report:", report.summary().replace("\n", "; "))
        print("mount repaired:", report.repairs or "nothing")
        with vol2.session("app-after-reboot", uid=1000) as fs2:
            fd = fs2.open("/archive/notes.txt")
            print("recovered content:", fs2.pread(fd, 100, 0).decode().strip())
            fs2.close(fd)


if __name__ == "__main__":
    main()
