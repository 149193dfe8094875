"""The phase-CSV writer of ``finphase firms``: a second process that
formats each step's phase points as CSV text while the simulation goes
on, so formatting runs on another core instead of after the last step.

The CLI holds a ``PhaseWriter``, which starts this file as
``python -I -S _phasecsv.py``. As a script it imports only the standard
library (no numpy, no finphase), so it starts in a few tens of
milliseconds. The protocol, one frame per phase file, in order:

- on its stdin, the row count as 8 bytes, then the rows' x, y as
  float64 pairs: the bytes of an (n, 2) float64 array;
- on its stdout, once stdin has ended, the text's length as 8 bytes,
  then the text.

Integers and floats are in the machine's byte order: both ends run on
the same machine. The writer reads all of its input before it writes
anything, so neither side can block the other on a full pipe. It spools
the texts to an anonymous temporary file, so no process holds every
file's text at once.

Each text is the ``firm_id,x,y`` header and one ``i,x,y`` row per point,
with x and y as ``repr`` gives them: the shortest decimal that reads
back to the same float, the same on every run.
"""

import sys

HEADER = "firm_id,x,y"
SCRIPT = __file__  # what PhaseWriter runs
_SIZE = 8  # bytes of a row count or a text length
_ROW = 16  # bytes of one (x, y) float64 pair
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


def main(stdin, stdout) -> None:
    """Read every frame of points from ``stdin``, then write one frame of
    text per frame read to ``stdout``, in order."""
    import tempfile  # imported here: the CLI imports this module for PhaseWriter alone

    sizes = []
    with tempfile.TemporaryFile() as spool:
        while head := stdin.read(_SIZE):
            if len(head) != _SIZE:
                raise ValueError("input ended inside a row count")
            n = int.from_bytes(head, sys.byteorder)
            data = stdin.read(n * _ROW)
            if len(data) != n * _ROW:
                raise ValueError(f"input ended inside a frame of {n} rows")
            text = format_rows(data)
            spool.write(text)
            sizes.append(len(text))
        spool.seek(0)
        for size in sizes:
            stdout.write(_uint(size))
            stdout.write(spool.read(size))
    stdout.flush()


class PhaseWriter:
    """The writer process, as the CLI sees it: ``send`` each phase file's
    points as soon as they exist, then iterate ``texts()`` for the files'
    texts in the same order.

    Use it in a ``with`` block: on leaving it the process is killed if
    it is still running and always reaped, so no exit path, an
    exception or KeyboardInterrupt included, leaves it behind. A writer
    that exits early or non-zero, or a frame that ends early, is an
    OSError naming the phase writer.
    """

    def __init__(self) -> None:
        import subprocess  # imported here: only ``finphase firms`` starts a process

        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", SCRIPT],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._sent = 0
        if sys.platform == "linux":
            import fcntl

            for pipe in (self._proc.stdin, self._proc.stdout):
                try:
                    fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                except OSError:  # above the system's limit: the default size works too
                    pass

    def __enter__(self) -> "PhaseWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        proc = self._proc
        if proc.returncode is None:
            proc.kill()  # the run failed part-way: its texts are not wanted
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # flushing input to a writer that has exited
                pass
        proc.wait()

    def _failed(self, what: str) -> OSError:
        self._proc.kill()
        return OSError(f"phase writer {what} (exit status {self._proc.wait()})")

    def send(self, points) -> None:
        """Queue one phase file: ``points`` is an (n, 2) float64 array."""
        try:
            self._proc.stdin.write(_uint(len(points)))
            self._proc.stdin.write(points.tobytes())
        except BrokenPipeError:
            raise self._failed("stopped reading") from None
        self._sent += 1

    def texts(self):
        """Yield the text of each file sent, in order, once all are sent."""
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            raise self._failed("stopped reading") from None
        out = self._proc.stdout
        for _ in range(self._sent):
            head = out.read(_SIZE)
            size = int.from_bytes(head, sys.byteorder)
            text = out.read(size) if len(head) == _SIZE else b""
            if len(head) != _SIZE or len(text) != size:
                raise self._failed("output ended early")
            yield text
        if self._proc.wait() != 0:
            raise self._failed("failed")


if __name__ == "__main__":
    try:
        main(sys.stdin.buffer, sys.stdout.buffer)
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group; the CLI reports it
        sys.exit(130)
    except (OSError, ValueError) as exc:
        sys.exit(f"phase writer: {exc}")
