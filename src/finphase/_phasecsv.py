"""The phase-CSV helper: a second process that formats the phase CSVs of
``finphase firms`` and parses those of ``finphase analyze``, so that
work runs on another core while the command's own process goes on.
``analyze`` parses the files the helper has not reached with this
module's ``parse_file``, so both processes accept the same files.

The CLI holds a ``PhaseWriter`` or a ``PhaseReader``, each of which
starts this file as ``python -I -S _phasecsv.py [parse ENCODING]``. As a
script it imports only the standard library (no numpy, no finphase), so
it starts in a few tens of milliseconds. Either way the helper reads all
of its input before it writes anything, so neither side can block the
other on a full pipe, and then writes one frame per file, in order: a
length as 8 bytes, then that many bytes.

Format (``firms``), one frame per phase file:

- on its stdin, the row count as 8 bytes, then the rows' x, y as
  float64 pairs: the bytes of an (n, 2) float64 array;
- on its stdout, the text. The helper spools the texts to an anonymous
  file (a memfd on Linux), so no process holds every file's text at once.

Each text is the ``firm_id,x,y`` header and one ``i,x,y`` row per point,
with x and y as ``repr`` gives them: the shortest decimal that reads
back to the same float, the same on every run.

Parse (``analyze``), one frame per path:

- on its stdin, each path's length as 8 bytes, then the path's bytes;
- on its stdout, the file's x, y values as float64 pairs, parsed by
  ``parse_file`` with ENCODING, the main process's
  ``io.text_encoding(None)``, so both decode as ``open(path)`` does
  there (``-I`` ignores ``PYTHONUTF8``). A file ``parse_file`` rejects
  gets the length ``NOT_PARSED`` and no bytes, for the main process to
  parse it again, which raises the error it reports. The main process
  takes a frame only once all of it has come, parses files from the
  back until then, and kills the helper where the two meet.

Integers and floats are in the machine's byte order: both ends run on
the same machine.
"""

import sys

HEADER = "firm_id,x,y"
SCRIPT = __file__  # what the helper processes run
_SIZE = 8  # bytes of a row count, a path or text length, or a frame length
_ROW = 16  # bytes of one (x, y) float64 pair
NOT_PARSED = (1 << 8 * _SIZE) - 1  # the frame length of a file the reader did not parse
# Pipe size asked for on Linux (the default is 64 KiB): 1 MiB holds the
# first ~60 steps of 1000 firms, so the simulation does not wait for the
# writer to start, and the texts come back in fewer, larger reads.
_PIPE_BYTES = 1 << 20


def _uint(n: int) -> bytes:
    return n.to_bytes(_SIZE, sys.byteorder)


def format_rows(data: bytes) -> bytes:
    """The phase CSV text of points given as bytes of (x, y) float64 pairs."""
    values = memoryview(data).cast("d").tolist()
    xs, ys = values[0::2], values[1::2]
    rows = [f"{i},{x!r},{y!r}\n" for i, x, y in zip(range(len(xs)), xs, ys)]
    return f"{HEADER}\n{''.join(rows)}".encode()


def parse_file(path, encoding=None):
    """x0, y0, x1, y1, ... of the rows of the phase CSV at ``path``, all
    finite, as an ``array('d')``. Rows are stripped, blank ones skipped,
    and the ids not read. A file that cannot be read or decoded with
    ``encoding`` raises its OSError or UnicodeDecodeError; a wrong header
    or a malformed or non-finite row is a ValueError ``line N: <path>:
    ...``, blank lines counted in N.

    The text is parsed whole, so the cost per row is C calls, not Python
    statements; only a file that fails that pass is walked line by line,
    for the first bad row.
    """
    # imported here: the writer does without, and under -S array costs
    # ~5 ms of start-up (it imports collections.abc)
    from array import array
    from math import isfinite

    with open(path, encoding=encoding) as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header.strip() != HEADER:
        raise ValueError(f"line 1: {path}: expected the header {HEADER!r}, got {header!r}")
    rows = body.rstrip("\n")
    n = rows.count("\n") + 1 if rows else 0
    # With a comma before each newline, each newline starts a field. Every
    # row has three fields exactly when there are 3n fields and all n - 1
    # newlines start one of the ids, fields[3k]; blank rows fail this.
    fields = rows.replace("\n", ",\n").split(",")
    if n == 0 or len(fields) == 3 * n and "".join(fields[::3]).count("\n") == n - 1:
        del fields[::3]  # x0, y0, x1, y1, ... remain
        try:
            values = array("d", list(map(float, fields)))
        except ValueError:
            pass
        else:
            # a NaN or an infinity makes the sum non-finite, and so can
            # finite values that overflow it: the walk below tells them apart
            if isfinite(sum(values)):
                return values
    values = array("d")
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: {path}: expected 3 fields, got {len(fields)}")
        try:
            x, y = float(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(
                f"line {lineno}: {path}: x and y must be numbers, got {line.strip()!r}"
            ) from None
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"line {lineno}: {path}: non-finite phase point")
        values.extend((x, y))
    return values  # finite, though their sum is not


def _read_frames(stdin, unit: str, size):
    """The data of each frame of ``stdin`` until it ends: a count n as 8
    bytes, then ``size(n)`` bytes."""
    while head := stdin.read(_SIZE):
        if len(head) != _SIZE:
            raise ValueError("input ended inside a frame's count")
        n = int.from_bytes(head, sys.byteorder)
        data = stdin.read(size(n))
        if len(data) != size(n):
            raise ValueError(f"input ended inside a frame of {n} {unit}")
        yield data


def _spool():
    """An anonymous read-write binary file: a memfd where the system has
    them, else a temporary file (``tempfile`` takes ~19 ms to import, on
    the writer's path in every ``finphase firms`` run)."""
    import os

    try:
        return open(os.memfd_create("phase-spool"), "w+b")
    except (AttributeError, OSError):  # no memfd_create here, or refused
        import tempfile

        return tempfile.TemporaryFile()


def main(stdin, stdout) -> None:
    """Read every frame of points from ``stdin``, then write one frame of
    text per frame read to ``stdout``, in order."""
    sizes = []
    with _spool() as spool:
        for data in _read_frames(stdin, "rows", lambda n: n * _ROW):
            text = format_rows(data)
            spool.write(text)
            sizes.append(len(text))
        spool.seek(0)
        for size in sizes:
            stdout.write(_uint(size))
            stdout.write(spool.read(size))
    stdout.flush()


def parse_main(stdin, stdout, encoding: str) -> None:
    """Read every path from ``stdin``, then write one frame of values per
    path to ``stdout``, in order."""
    for path in list(_read_frames(stdin, "path bytes", int)):
        try:
            values = parse_file(path, encoding)
        except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
            stdout.write(_uint(NOT_PARSED))
        else:
            stdout.write(_uint(len(values) * values.itemsize))
            stdout.write(values)
    stdout.flush()


class _Helper:
    """A helper process, run as this file with ``args``.

    Use it in a ``with`` block: on leaving it the process is killed if
    it is still running and always reaped, so no exit path, an
    exception or KeyboardInterrupt included, leaves it behind. A helper
    that exits early or non-zero on its own, or a frame that ends early,
    is an OSError naming the helper.
    """

    def __init__(self, *args: str) -> None:
        import subprocess  # imported here: only the phase commands start a process

        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", SCRIPT, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        if sys.platform == "linux":
            import fcntl

            for pipe in (self._proc.stdin, self._proc.stdout):
                try:
                    fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                except OSError:  # above the system's limit: the default size works too
                    pass
        self._frame = bytearray()  # what is read of the next output frame
        self._need = _SIZE  # its length, as far as it is known

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_) -> None:
        proc = self._proc
        if proc.returncode is None:
            proc.kill()  # its output is not wanted, or no more of it
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # flushing input to a helper that has exited
                pass
        if proc.wait() not in (0, -9) and exc_type is None:  # -9: the kill above
            raise OSError(f"{self.name} failed (exit status {proc.returncode})")

    def _failed(self, what: str) -> OSError:
        self._proc.kill()
        return OSError(f"{self.name} {what} (exit status {self._proc.wait()})")

    def _write(self, data: bytes) -> None:
        try:
            self._proc.stdin.write(data)
        except BrokenPipeError:
            raise self._failed("stopped reading") from None

    def _end_input(self) -> None:
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            raise self._failed("stopped reading") from None

    def ready(self) -> bool:
        """Whether all of the next output frame is read, reading no further
        than its end; on output set not to block, without waiting."""
        import os

        while (missing := self._need - len(self._frame)) > 0:
            try:
                data = os.read(self._proc.stdout.fileno(), missing)
            except BlockingIOError:
                return False
            if not data:
                raise self._failed("output ended early")
            self._frame += data
            if len(self._frame) == _SIZE:  # the head: the length of the rest
                size = int.from_bytes(self._frame, sys.byteorder)
                self._need += 0 if size == NOT_PARSED else size
        return True

    def take(self):
        """The data of the frame ``ready`` found whole; None if NOT_PARSED."""
        frame, self._frame, self._need = self._frame, bytearray(), _SIZE
        if int.from_bytes(frame[:_SIZE], sys.byteorder) == NOT_PARSED:
            return None
        del frame[:_SIZE]
        return frame


class PhaseWriter(_Helper):
    """The format helper, as ``finphase firms`` sees it: ``send`` each
    phase file's points as soon as they exist, then iterate ``texts()``
    for the files' texts in the same order."""

    name = "phase writer"

    def __init__(self) -> None:
        super().__init__()
        self._sent = 0

    def send(self, points) -> None:
        """Queue one phase file: ``points`` is an (n, 2) float64 array."""
        self._write(_uint(len(points)))
        self._write(points.tobytes())
        self._sent += 1

    def texts(self):
        """The text of each file sent, in order, once all are sent; the
        writer's exit status is checked after the last one."""
        self._end_input()
        for _ in range(self._sent):
            self.ready()  # waits: this output blocks
            yield self.take()
        if self._proc.wait() != 0:
            raise self._failed("failed")


class PhaseReader(_Helper):
    """The parse helper, as ``finphase analyze`` sees it: ``send(paths)``
    hands it every path at once. Each time ``ready()`` finds the next
    file's frame whole, ``take()`` gives its x, y float64 pairs, or None
    for a file the helper did not parse. Leaving the ``with`` block kills
    it, as the command may have parsed the remaining files itself."""

    name = "phase reader"

    def __init__(self) -> None:
        import io

        super().__init__("parse", io.text_encoding(None))

    def send(self, paths) -> None:
        import os

        for path in map(os.fsencode, paths):
            self._write(_uint(len(path)) + path)
        self._end_input()
        os.set_blocking(self._proc.stdout.fileno(), False)


if __name__ == "__main__":
    parse = sys.argv[1:2] == ["parse"]
    try:
        if parse:
            parse_main(sys.stdin.buffer, sys.stdout.buffer, sys.argv[2])
        else:
            main(sys.stdin.buffer, sys.stdout.buffer)
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group; the CLI reports it
        sys.exit(130)
    except (OSError, ValueError) as exc:
        sys.exit(f"{(PhaseReader if parse else PhaseWriter).name}: {exc}")
