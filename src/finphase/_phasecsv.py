"""The phase-CSV helpers: a second process that formats the phase CSVs of
``finphase firms`` and parses those of ``finphase analyze``, so that
work runs on another core while the command's own process goes on.

The CLI holds a ``PhaseWriter`` or a ``PhaseReader``, each of which
forks the command's process (1-2 ms) once its imports are done: the
helper has numpy and decodes files as the command does. It runs
``serve`` and leaves through ``os._exit``, never through the command's
own code. Only Linux forks (``FORK``; CPython documents fork without
exec as unsafe on macOS); elsewhere the command does every unit itself.

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
  values as float64 pairs, by ``parse_file``; a file it rejects gets the
  length ``NOT_PARSED`` and no bytes, for the command to parse it again,
  which raises the error it reports.

Once all of its input is sent, the command meets the helper in the
middle (``meet``): it takes the helper's units from the front, each once
all of its frame has come, and otherwise does the last unit neither has
taken with the same function, so the output does not depend on which
process did which unit. Where the two meet it closes the writer's
output, which the writer takes as a normal stop (exit 0), and kills the
reader, whose unit, a whole file, is too long to wait for.
"""

import contextlib
import os
import select
import signal
import sys
import warnings
from math import isfinite

import numpy as np

from .errors import ParseError

HEADER = "firm_id,x,y"
FORK = sys.platform == "linux"  # whether the helpers run, in a forked process
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


def parse_file(path):
    """The x, y pairs of the rows of the phase CSV at ``path``, all finite,
    as an (n, 2) float64 array. Rows are stripped, blank ones skipped, and
    the ids not read. A file that cannot be read or decoded raises its
    OSError or UnicodeDecodeError; a wrong header or a malformed or
    non-finite row is a ParseError ``line N: <path>: ...``, blank lines
    counted in N. ``np.loadtxt`` parses the rows in C, and its result is
    taken only if every row is three numbers and every x and y is finite;
    any other file (an id ``abc``, ``1_0``, a bad row) is walked line by
    line with ``float``, which decides what is accepted."""
    with open(path) as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header.strip() != HEADER:
        raise ParseError(1, f"{path}: expected the header {HEADER!r}, got {header!r}")
    lines = body.split("\n")
    with contextlib.suppress(ValueError, Warning), warnings.catch_warnings():
        warnings.simplefilter("error")  # a file of no rows: loadtxt warns
        # \x1c-\x1f are spaces around a number to loadtxt, not to float()
        if not any(c in body for c in "\x1c\x1d\x1e\x1f"):
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if table.shape[1] == 3 and np.isfinite(points := table[:, 1:]).all():
                return points.copy()  # contiguous, as the reader's frames are
    values = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(lineno, f"{path}: expected 3 fields, got {len(fields)}")
        try:
            x, y = float(fields[1]), float(fields[2])
        except ValueError:
            message = f"{path}: x and y must be numbers, got {line.strip()!r}"
            raise ParseError(lineno, message) from None
        if not (isfinite(x) and isfinite(y)):
            raise ParseError(lineno, f"{path}: non-finite phase point")
        values += (x, y)
    return np.array(values, dtype=np.float64).reshape(-1, 2)


def _spool():
    """An anonymous read-write binary file: a memfd where the system has
    them, else a temporary file (``tempfile`` takes ~19 ms to import, on
    the writer's path in every ``finphase firms`` run)."""
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


def _parsed(path):
    """The parse helper's output frame for one path: the file's values, or
    the length NOT_PARSED."""
    try:
        points = parse_file(bytes(path))
    except (OSError, ValueError, ParseError):  # UnicodeDecodeError is a ValueError
        yield _uint(NOT_PARSED)
    else:
        yield _uint(points.nbytes) + points.tobytes()


def main(stdin, stdout, parse=False) -> None:
    """Run the format helper, or with ``parse`` the parse helper: split
    ``stdin`` into frames and write each one's output frames to ``stdout``,
    in order, spooled until the input ends."""
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
                work.append(_parsed(data) if parse else _formatted(data))
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


def serve(name: str, parse: bool, stdin: int, stdout: int) -> int:
    """The helper ``name``'s run in the forked process: ``main`` over the
    pipe ends ``stdin`` and ``stdout``. Its exit status: 0 when done or
    stopped at the meet, 130 on KeyboardInterrupt, and 1 after writing
    ``<name>: <error>`` to fd 2."""
    reader, writer = open(stdin, "rb", closefd=False), open(stdout, "wb", closefd=False)
    try:
        main(reader, writer, parse)
    except BrokenPipeError:  # the command closed the output where the two met: a normal stop
        # what the output still buffers goes nowhere, with no warning
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group; the CLI reports it
        return 130
    except Exception as exc:
        os.write(2, f"{name}: {exc}\n".encode())
        return 1
    return 0


class _Helper(contextlib.AbstractContextManager):
    """A helper process, forked to run ``serve``; with ``FORK`` false there
    is none, ``pid`` is None, and ``meet`` gives the command every unit.

    Use it in a ``with`` block: leaving it kills the process if it still runs
    and always reaps it, so no exit path, an exception or KeyboardInterrupt
    included, leaves it behind. A helper that exits early or non-zero on its
    own, or a frame that ends early, is an OSError naming the helper."""

    parse = False  # the format helper, or the parse helper

    def __init__(self) -> None:
        self.pid = self.returncode = None
        self._frame = bytearray()  # what is read of the next output frame
        self._need = _SIZE  # its length, as far as it is known
        if not FORK:
            return
        import fcntl

        down, up = os.pipe(), os.pipe()  # the helper's input and its output
        for fd in (down[1], up[1]):  # above the system's limit, the default size works too
            with contextlib.suppress(OSError):
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        parent, code = os.getpid(), 1
        try:
            with warnings.catch_warnings():  # Python 3.12+ warns of OpenBLAS's threads
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
            if self.pid == 0:
                os.close(down[1])
                os.close(up[0])
                code = serve(self.name, self.parse, down[0], up[1])
        except OSError:  # no process was made: nothing is left open
            for fd in (*down, *up):
                os.close(fd)
            raise
        finally:
            if os.getpid() != parent:  # the helper, whatever was raised: no unwinding
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        self._stdin, self._stdout = open(down[1], "wb"), open(up[0], "rb", buffering=0)
        os.set_blocking(up[0], False)  # for ready(), which never waits

    def __exit__(self, exc_type, *_) -> None:
        if self.pid is None:
            return
        self.wait(kill=True)  # its output is not wanted, or no more of it
        for pipe in (self._stdin, self._stdout):
            with contextlib.suppress(OSError):  # flushing input to a helper that has exited
                pipe.close()
        if self.returncode not in (0, -signal.SIGKILL) and exc_type is None:  # the kill above
            raise self._failed("failed")

    def wait(self, kill=False) -> int:
        """Its exit status once reaped, minus any signal that ended it; ``kill`` kills first."""
        if self.returncode is None:
            if kill:  # not reaped yet, so the pid is still the helper's
                os.kill(self.pid, signal.SIGKILL)
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def _failed(self, what: str) -> OSError:
        return OSError(f"{self.name} {what} (exit status {self.wait(kill=True)})")

    def _send(self, data) -> None:
        """Send ``data`` to the helper as one frame; None ends its input."""
        if self.pid is None:
            return
        try:
            if data is None:
                self._stdin.close()
            else:
                self._stdin.write(_uint(len(data)))
                self._stdin.write(data)
        except BrokenPipeError:
            raise self._failed("stopped reading") from None

    def ready(self) -> bool:
        """Whether all of the next output frame is read, reading no further
        than its end, without waiting."""
        while (missing := self._need - len(self._frame)) > 0:
            try:
                data = os.read(self._stdout.fileno(), missing)
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
    process (None, or pid None), every unit is the caller's."""
    live = helper is not None and helper.pid is not None
    front, back = 0, n
    while front < back:
        if live and wait(front, back - 1):
            while not helper.ready():
                select.select([helper._stdout], [], [])
        if live and helper.ready():
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
        # the points' bytes of each file sent, for this process to format from the
        # back; with a writer, which reaches the earlier half first, those are dropped
        self._points = []

    def send(self, points) -> None:
        """Queue one phase file: ``points`` is an (n, 2) float64 array."""
        data = points.tobytes()
        self._send(data)
        self._chunks.append(max(1, -(-len(points) // CHUNK)))
        self._points.append(data)
        if self.pid is not None and (half := len(self._points) // 2):
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
        if self.pid is not None:
            self._stdout.close()
            if self.wait() != 0:
                raise self._failed("failed")


class PhaseReader(_Helper):
    """The parse helper, as ``finphase analyze`` sees it, handed every path
    at once; ``meet`` then gives each file's x, y float64 pairs, or None for
    a file the caller parses itself. Leaving the ``with`` block kills it,
    as the command may have parsed the remaining files itself."""

    name = "phase reader"
    parse = True

    def __init__(self, paths) -> None:
        super().__init__()
        for path in paths:
            self._send(os.fsencode(path))
        self._send(None)
