#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the finphase command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from the
checkout's ``src/``. This process is a closed loop with one client: it
starts one fresh ``finphase`` process per repetition and waits for it to
exit before starting the next, so repetitions never overlap. Inputs are made
from ``--seed`` before timing starts; repetitions are made until the next
one would end after ``--seconds``, and every repetition's outputs are
checked (workloads.py). A repetition that exits non-zero or fails a check
counts in ``failed``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
over the untraced repetitions (``summarise`` gives the statistics). With
``--trace 1`` untraced and traced repetitions alternate; the traced
ones wrap the package's public callables (tracer.py) and give the
per-layer metrics, and the difference of the two medians of ``wall_s``
is ``trace.overhead_s``. The line before the last one is a report with
the environment, every sample, the SHA-256 of the outputs and the error
rate. README.md maps each per-layer metric to the end-to-end metric it
should move.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

LEDGER_METHODS = ("transfer", "create_loan", "repay_loan", "pay_to_bank", "annihilate")

PER_LAYER = {
    "rng.calls": "count",
    "rng.values": "count",
    "rng.self_s": "s",
    "rng.ns_per_value": "ns",
    "ledger.calls": "count",
    "ledger.calls_per_step": "count",
    **{f"ledger.{m}.calls": "count" for m in LEDGER_METHODS},
    "ledger.failed": "count",
    "ledger.self_s": "s",
    "ledger.ns_per_call": "ns",
    "ledger.conservation_residual.self_s": "s",
    "firms.init_economy.s": "s",
    "firms.step.calls": "count",
    "firms.step.self_s": "s",
    "firms.step.p50_ms": "ms",
    "firms.step.p90_ms": "ms",
    "exchange.events": "count",
    "exchange.run_exchange.self_s": "s",
    "exchange.ns_per_event": "ns",
    "exchange.fit_exponential.self_s": "s",
    "phase.points": "count",
    "phase.bin_phase.self_s": "s",
    "phase.entropy.self_s": "s",
    "phase.tail_metrics.self_s": "s",
    "phase.ns_per_point": "ns",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "cli.bytes_read": "count",
    "cli.files_written": "count",
    "cli.mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}

LAYERS = ("cli", "rng", "ledger", "firms", "phase", "exchange")


class BenchError(Exception):
    """The program cannot be run at all; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("FINPHASE_OUTDIR", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spawn(argv, rep_dir, trace_path=None):
    """Run one finphase process; return (exit code, wall_s, setup_s, rusage)."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    stamp = rep_dir / "imported_ns"
    cmd = [sys.executable, str(CHILD), str(stamp), str(trace_path or "-"), *argv]
    with open(rep_dir / "stdout", "wb") as out, open(rep_dir / "stderr", "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=rep_dir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_ns = int(stamp.read_text()) - start if stamp.exists() else end - start
    return proc.returncode, (end - start) / 1e9, setup_ns / 1e9, usage


def output_digest(outdir):
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def repetition(workload, rep_dir, traced):
    """One timed run plus its checks; returns a sample dict."""
    outdir = rep_dir / "out"
    outdir.mkdir(parents=True)  # analyze writes into an existing directory
    trace_path = rep_dir / "trace.json" if traced else None
    code, wall, setup, usage = spawn(workload.argv(outdir), rep_dir, trace_path)
    sample = {
        "traced": traced,
        "wall_s": wall,
        "setup_s": setup,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "work_per_s": workload.work / max(wall - setup, 1e-9),
        "error": None,
    }
    try:
        if code != 0:
            tail = (rep_dir / "stderr").read_text(errors="replace").strip()[-300:]
            raise workloads.OutputError(f"exit code {code}: {tail}")
        workload.check(outdir)
        sample["sha256"] = output_digest(outdir)
        files = list(outdir.iterdir())
        sample["files_written"] = len(files)
        sample["bytes_written"] = sum(p.stat().st_size for p in files)
        if traced:
            dump = json.loads(trace_path.read_text())
            bad = dump["counts"]["firms.nonzero_residuals"]
            if bad:
                raise workloads.OutputError(f"{bad} step records with a non-zero residual")
            sample["layers"] = layer_metrics(dump, workload, sample)
    except (OSError, ValueError, KeyError, IndexError, workloads.OutputError) as exc:
        sample["error"] = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(rep_dir)
    return sample


def layer_metrics(dump, workload, sample):
    calls = dump["calls"]
    counts = dump["counts"]

    def total(name, field):  # field: 0 calls, 1 total ns, 2 own ns, 3 raised
        return calls.get(name, [0, 0, 0, 0])[field]

    def layer(name, field):  # field: 0 entries, 1 self ns
        return dump["layers"].get(name, [0, 0])[field]

    def per(numerator_ns, denominator):
        return numerator_ns / denominator if denominator else 0.0

    ledger_names = [n for n in calls if n.startswith("ledger.")]
    ledger_calls = sum(total(n, 0) for n in ledger_names)
    steps = total("firms.step", 0)
    step_ms = sorted(ns / 1e6 for ns in dump["step_ns"])
    cli_self_s = total("cli.dispatch", 2) / 1e9
    moved = sample["bytes_written"] + workload.bytes_read
    m = {
        "rng.calls": layer("rng", 0),
        "rng.values": counts["rng.values"],
        "rng.self_s": layer("rng", 1) / 1e9,
        "rng.ns_per_value": per(layer("rng", 1), counts["rng.values"]),
        "ledger.calls": ledger_calls,
        "ledger.calls_per_step": per(ledger_calls, steps),
        **{f"ledger.{n}.calls": total(f"ledger.{n}", 0) for n in LEDGER_METHODS},
        "ledger.failed": sum(total(n, 3) for n in ledger_names),
        "ledger.self_s": layer("ledger", 1) / 1e9,
        "ledger.ns_per_call": per(layer("ledger", 1), ledger_calls),
        "ledger.conservation_residual.self_s": total("ledger.conservation_residual", 2) / 1e9,
        "firms.init_economy.s": total("firms.init_economy", 1) / 1e9,
        "firms.step.calls": steps,
        "firms.step.self_s": total("firms.step", 2) / 1e9,
        "firms.step.p50_ms": percentile(step_ms, 0.5),
        "firms.step.p90_ms": percentile(step_ms, 0.9),
        "exchange.events": counts["exchange.events"],
        "exchange.run_exchange.self_s": total("exchange.run_exchange", 2) / 1e9,
        "exchange.ns_per_event": per(total("exchange.run_exchange", 2), counts["exchange.events"]),
        "exchange.fit_exponential.self_s": total("exchange.fit_exponential", 2) / 1e9,
        "phase.points": counts["phase.points"],
        "phase.bin_phase.self_s": total("phase.bin_phase", 2) / 1e9,
        "phase.entropy.self_s": total("phase.entropy", 2) / 1e9,
        "phase.tail_metrics.self_s": total("phase.tail_metrics", 2) / 1e9,
        "phase.ns_per_point": per(layer("phase", 1), counts["phase.points"]),
        "cli.self_s": cli_self_s,
        "cli.bytes_written": sample["bytes_written"],
        "cli.bytes_read": workload.bytes_read,
        "cli.files_written": sample["files_written"],
        "cli.mb_per_s": moved / 1e6 / cli_self_s if cli_self_s else 0.0,
    }
    # Shares of the traced wall time, for the report only.
    m["share"] = {name: layer(name, 1) / 1e9 / sample["wall_s"] for name in LAYERS}
    return m


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def measure(workload, seed, seconds, trace, workdir):
    """Prepare the inputs, then repeat until the time is spent.

    Returns one sample per repetition. At least one untraced repetition is
    made, and with ``trace`` at least one traced one as well.
    """
    workload.prepare(seed, workdir / "in")
    # Untimed warm-up: compiles the byte code and proves the program imports.
    code, _, _, _ = spawn(["--version"], workdir / "warmup")
    if code != 0:
        raise BenchError((workdir / "warmup" / "stderr").read_text(errors="replace"))
    shutil.rmtree(workdir / "warmup")

    samples = []
    longest = {False: 0.0, True: 0.0}
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(samples) % 2 == 1
        started = time.monotonic()
        if len(samples) >= (2 if trace else 1) and started + longest[traced] > deadline:
            break
        sample = repetition(workload, workdir / f"rep{len(samples)}", traced)
        longest[traced] = max(longest[traced], time.monotonic() - started)
        samples.append(sample)

    good = [s for s in samples if s["error"] is None]
    for s in good:
        if s["sha256"] != good[0]["sha256"]:
            s["error"] = "outputs differ between repetitions of one seed"
    return samples


def summarise(samples, trace, work):
    """The metrics of one run, or None without a successful repetition.

    ``wall_s`` and ``cpu_s`` are means and ``work_per_s`` is all the work
    over all the time: this host's speed drifts in windows of tens of
    seconds, and a mean over the run integrates over them where a median
    jumps between the slow and the fast mode (across ten seeds of
    ``firms_long`` the spread of ``wall_s`` was 0.15 of the median with
    means and 0.23 with medians). ``setup_s``, ``peak_rss_mb`` and the
    per-layer metrics are medians.
    """
    good = [s for s in samples if s["error"] is None]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not plain or (trace and not traced):
        return None
    if not trace:
        return {
            "wall_s": statistics.mean(s["wall_s"] for s in plain),
            "setup_s": statistics.median(s["setup_s"] for s in plain),
            "cpu_s": statistics.mean(s["cpu_s"] for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "work_per_s": work * len(plain) / sum(s["wall_s"] - s["setup_s"] for s in plain),
        }
    metrics = {
        k: statistics.median(s["layers"][k] for s in traced)
        for k in PER_LAYER
        if k != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    return metrics


def run(name, seed, seconds, trace, workdir, tiny=False):
    """Measure one workload; returns (report, result), where result is the
    object run.py prints last, or None when no repetition succeeded."""
    if not (SRC / "finphase" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'finphase' / 'cli.py'} is missing")
    workload = workloads.make(name, tiny)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        samples = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(s["error"] is not None for s in samples)
    metrics = summarise(samples, trace, workload.work)
    units = PER_LAYER if trace else END_TO_END
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "error_rate": failed / len(samples),
        "errors": sorted({s["error"] for s in samples if s["error"]})[:5],
        "output_sha256": sorted({s["sha256"] for s in samples if s.get("sha256")}),
        "samples": [{k: v for k, v in s.items() if k != "sha256"} for s in samples],
    }
    if metrics is None:
        return report, None
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    print(json.dumps({"report": report}))
    if result is None:
        print("bench: no repetition succeeded; see the report's errors", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
