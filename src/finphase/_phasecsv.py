"""The phase-CSV helper: a second process that formats the phase CSVs of
``finphase firms`` and parses those of ``finphase analyze``, so that
work runs on another core while the command's own process goes on.

The CLI holds a ``PhaseWriter`` or a ``PhaseReader``, each of which
starts this file as ``python -I -S _phasecsv.py [parse ENCODING]``. As a
script it imports only the standard library (no numpy, no finphase), so
it starts in a few tens of milliseconds.

Every frame, in both directions, is a byte length as 8 bytes, then that
many bytes. The command sends one frame per input and then ends its
input. The helper (``main``) runs one loop: before each unit of work it
reads whatever input has arrived, without waiting for more, and splits
it into frames; it writes one frame per unit, in order. Until the input
ends it spools them to an anonymous file (a memfd on Linux), so neither
side blocks the other on a full pipe and no process holds every output
at once; then it writes the spooled frames, and each later one as soon
as it is done. The two helpers differ only in the work per input frame:

- format (``firms``): the frame is a phase file's points, the bytes of
  an (n, 2) float64 array, n being its length // 16. A unit is one chunk
  of ``CHUNK`` rows, whose text ``format_rows`` makes: ceil(n / CHUNK)
  units, and one if n is 0. A file's text is the ``firm_id,x,y`` header
  and one ``i,x,y`` row per point, with x and y as ``repr`` gives them:
  the shortest decimal that reads back to the same float.
- parse (``analyze``): the frame is a path, and the unit the file's x, y
  values as float64 pairs, parsed by ``parse_file`` with ENCODING, the
  main process's ``io.text_encoding(None)``, so both decode as
  ``open(path)`` does there (``-I`` ignores ``PYTHONUTF8``). A file
  ``parse_file`` rejects gets the length ``NOT_PARSED`` and no bytes,
  for the main process to parse it again, which raises the error it
  reports.

Once all of its input is sent, the command meets the helper in the
middle (``meet``): it takes the helper's units from the front, each once
all of its frame has come, and otherwise does the last unit neither has
taken with the same function, so the output does not depend on which
process did which unit. Where the two meet it closes the writer's
output, which the writer takes as a normal stop (exit 0), and kills the
reader, whose unit, a whole file, is too long to wait for.

Integers and floats are in the machine's byte order: both ends run on
the same machine.
"""

import sys

HEADER = "firm_id,x,y"
SCRIPT = __file__  # what the helper processes run
_SIZE = 8  # bytes of a frame's length
_ROW = 16  # bytes of one (x, y) float64 pair
NOT_PARSED = (1 << 8 * _SIZE) - 1  # the frame length of a file the reader did not parse
# Rows a text frame holds: ~45 KB of text, formatted in ~3 ms on a 2-core
# x86-64 host. That bounds the work both processes do at the meet and the
# wait for the writer to stop, and keeps a frame well inside the pipe; a
# 1000-firm file is one chunk.
CHUNK = 1000
# Pipe size asked for on Linux (the default is 64 KiB): 1 MiB holds the
# first ~60 steps of 1000 firms, so the simulation does not wait for the
# writer to start, and the texts come back in fewer, larger reads.
_PIPE_BYTES = 1 << 20


def _uint(n: int) -> bytes:
    return n.to_bytes(_SIZE, sys.byteorder)


def format_rows(data, start: int) -> bytes:
    """The phase CSV text of the chunk of a file's points, given as bytes of
    (x, y) float64 pairs, that starts at row ``start``: up to ``CHUNK``
    rows, numbered from ``start``. The file's first chunk (``start`` 0)
    is headed by the header."""
    values = memoryview(data)[start * _ROW : (start + CHUNK) * _ROW].cast("d").tolist()
    xs, ys = values[0::2], values[1::2]
    rows = [f"{i},{x!r},{y!r}\n" for i, x, y in zip(range(start, start + len(xs)), xs, ys)]
    head = "" if start else f"{HEADER}\n"
    return f"{head}{''.join(rows)}".encode()


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


def _formatted(points):
    """The format helper's output frames for one frame of points: the text
    of each of its chunks."""
    for start in range(0, max(1, len(points) // _ROW), CHUNK):
        text = format_rows(points, start)
        yield _uint(len(text)) + text


def _parsed(path, encoding: str):
    """The parse helper's output frame for one path: the file's values, or
    the length NOT_PARSED."""
    try:
        values = parse_file(bytes(path), encoding)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        yield _uint(NOT_PARSED)
    else:
        yield _uint(len(values) * values.itemsize) + values.tobytes()


def main(stdin, stdout, encoding=None) -> None:
    """Run the format helper, or with ``encoding`` the parse helper: split
    ``stdin`` into frames and write each one's output frames to ``stdout``,
    in order, spooled until the input ends."""
    import os
    import select

    fd = stdin.fileno()
    received = bytearray()  # input not yet split into frames
    work = []  # the output frames still to come of each input frame
    ended = False
    with _spool() as spool:
        out = spool  # stdout once the input has ended
        while True:
            # what has arrived; with nothing to do, wait for more
            wait = not work
            while not ended and select.select([fd], [], [], None if wait else 0)[0]:
                # 64 KiB a read: a 1 MiB buffer is a fresh mapping on every read,
                # ~30 us more each on a 2-core x86-64 host
                data = os.read(fd, 1 << 16)
                ended = not data
                received += data
                wait = False
            while len(received) >= _SIZE:
                end = _SIZE + int.from_bytes(received[:_SIZE], sys.byteorder)
                if len(received) < end:
                    break
                data = received[_SIZE:end]
                del received[:end]
                work.append(_formatted(data) if encoding is None else _parsed(data, encoding))
            if ended and received:
                n = int.from_bytes(received[:_SIZE], sys.byteorder)
                raise ValueError(
                    f"input ended inside a frame of {n} bytes"
                    if len(received) >= _SIZE
                    else "input ended inside a frame's length"
                )
            if ended and out is spool:  # the input has just ended: the spooled frames first
                spool.seek(0)
                while data := spool.read(1 << 16):
                    stdout.write(data)
                stdout.flush()
                out = stdout
            if not work:
                if ended:
                    break
                continue
            frame = next(work[0], None)
            if frame is None:
                del work[0]
                continue
            out.write(frame)
            stdout.flush()  # for the command to take it now


class _Helper:
    """A helper process, run as this file with ``args``.

    Use it in a ``with`` block: on leaving it the process is killed if
    it is still running and always reaped, so no exit path, an
    exception or KeyboardInterrupt included, leaves it behind. A helper
    that exits early or non-zero on its own, or a frame that ends early,
    is an OSError naming the helper.
    """

    def __init__(self, *args: str) -> None:
        import os
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
        os.set_blocking(self._proc.stdout.fileno(), False)  # for ready(), which never waits
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

    def _send(self, data) -> None:
        """Send ``data`` to the helper as one frame; None ends its input."""
        stdin = self._proc.stdin
        try:
            if data is None:
                stdin.close()
            else:
                stdin.write(_uint(len(data)))
                stdin.write(data)
        except BrokenPipeError:
            raise self._failed("stopped reading") from None

    def ready(self) -> bool:
        """Whether all of the next output frame is read, reading no further
        than its end, without waiting."""
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


def meet(helper, n: int, wait=lambda front, last: False):
    """(i, data) for each of ``n`` units, once each, the helper doing them
    from the front and the caller from the back: ``data`` is the helper's
    next frame, as ``take`` gives it, whenever all of it has come, and
    otherwise None, for the caller to do the last unit neither has taken.
    Where ``wait(front, last)`` is true, the caller may not do unit
    ``last``, so the helper's unit ``front`` is waited for. With no helper
    (None), every unit is the caller's."""
    import select

    front, back = 0, n
    while front < back:
        if helper is not None and wait(front, back - 1):
            while not helper.ready():
                select.select([helper._proc.stdout], [], [])
        if helper is not None and helper.ready():
            yield front, helper.take()
            front += 1
        else:
            back -= 1
            yield back, None


class PhaseWriter(_Helper):
    """The format helper, as ``finphase firms`` sees it: ``send`` each
    phase file's points as soon as they exist, then iterate ``texts()``
    for each file's index and text."""

    name = "phase writer"

    def __init__(self) -> None:
        super().__init__()
        self._chunks = []  # the number of chunks of each file sent
        # the points' bytes of each file sent, for this process to format
        # from the back; the writer reaches the earlier half first, so those
        # are not kept
        self._points = []

    def send(self, points) -> None:
        """Queue one phase file: ``points`` is an (n, 2) float64 array."""
        data = points.tobytes()
        self._send(data)
        self._chunks.append(max(1, -(-len(points) // CHUNK)))
        self._points.append(data)
        if half := len(self._points) // 2:
            self._points[half - 1] = None

    def texts(self):
        """(k, text) of each file k sent, once all are sent, each as soon as
        all of its chunks are formatted, at either end (``meet``). Then
        closes the writer's output, which stops the writer, and checks the
        writer's exit status."""
        self._send(None)
        # (file, chunk) of every chunk, in the writer's order
        chunks = [(k, j) for k, n in enumerate(self._chunks) for j in range(n)]
        texts = [[None] * n for n in self._chunks]
        left = list(self._chunks)  # of each file, not yet formatted

        def wait(front, last):
            # for the writer's first text, which a writer that fails at once
            # never sends, and where this process has no points
            return front == 0 or self._points[chunks[last][0]] is None

        for i, text in meet(self, len(chunks), wait):
            k, j = chunks[i]
            texts[k][j] = format_rows(self._points[k], j * CHUNK) if text is None else text
            left[k] -= 1
            if not left[k]:
                pieces = texts[k]
                yield k, pieces[0] if len(pieces) == 1 else b"".join(pieces)
                texts[k] = self._points[k] = None
        self._proc.stdout.close()
        if self._proc.wait() != 0:
            raise self._failed("failed")


class PhaseReader(_Helper):
    """The parse helper, as ``finphase analyze`` sees it: ``send(paths)``
    hands it every path at once; ``meet`` then gives each file's x, y
    float64 pairs, or None for a file the caller parses itself. Leaving
    the ``with`` block kills it, as the command may have parsed the
    remaining files itself."""

    name = "phase reader"

    def __init__(self) -> None:
        import io

        super().__init__("parse", io.text_encoding(None))

    def send(self, paths) -> None:
        import os

        for path in paths:
            self._send(os.fsencode(path))
        self._send(None)


if __name__ == "__main__":
    parse = sys.argv[1:2] == ["parse"]
    try:
        main(sys.stdin.buffer, sys.stdout.buffer, sys.argv[2] if parse else None)
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group; the CLI reports it
        sys.exit(130)
    except BrokenPipeError:  # the command closed the output where the two met: a normal stop
        import os

        # what the output still buffers goes nowhere at exit, with no warning
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError) as exc:
        sys.exit(f"{(PhaseReader if parse else PhaseWriter).name}: {exc}")
