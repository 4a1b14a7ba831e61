#!/usr/bin/env python3
"""Benchmark of the lkllt command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --pin > perfbench/goldens.json

With ``--trace 0`` a workload's commands run in a closed loop, one ``lkllt``
subprocess at a time, so every command pays interpreter start-up as a
user's does.  The workload's ``once`` commands run first, a single time; then whole
passes over its command list repeat while the next pass is expected to end
within ``--seconds`` of the start.
Every output is checked (see checks.py).  The end-to-end metrics are medians
over the passes of times taken at reference speed: each subprocess's wall
time is scaled by ``REF_S`` over the mean time of a fixed reference loop run
in this process just before and just after it (see ``reference_s``), which
takes out most of the shared host's drift in speed.  The raw wall times are
printed too.

With ``--trace 1`` the same commands run in this process through
``lkllt.cli.main``, each once untraced and then once with every lkllt
function wrapped (see layers.py); the per-layer metrics come from the
traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance, each operation's check verdict, and every end-to-end metric
by name and unit.  Running with ``--workload all`` (the default) prints
that block for each workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from checks import GOLDEN_SEED, command_line, known_defect, load_goldens, verify
from workloads import COMMAND_METRICS, WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The console script, plus a last stderr line with the process's peak
# resident set since exec.  ru_maxrss is no use here: it also counts the
# pages the child shared with this process before exec.
HWM_TAG = "perfbench VmHWM kB "
ENTRY = f"""\
import sys
from lkllt.cli import main
try:
    sys.exit(main())
finally:
    try:
        with open("/proc/self/status") as f:
            kb = [line.split()[1] for line in f if line.startswith("VmHWM:")][0]
        sys.stderr.write("\\n{HWM_TAG}" + kb + "\\n")
    except (OSError, IndexError):
        pass
"""
SETUP_REPEATS = 6  # `lkllt --version` runs before the passes, and as many after them
# The reference loop's time on the machine the benchmark was defined on
# (2 cores, numpy 2.4.6, Python 3.11.7); times are reported at this speed.
REF_S = 0.030
HARD_LIMIT_S = 170.0  # every operation is killed once the run has taken this long
END_TO_END_UNITS = {"wall_s": "s", "cmd_geomean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    cmd: Command
    pass_no: int  # 0 for a command run once
    wall: float
    scaled: float  # wall at reference speed
    rss_mb: float
    rc: int
    warnings: int
    problems: list[str] = field(default_factory=list)
    known: str | None = None  # the known defect a failure shows (checks.known_defect)

    @property
    def failed(self) -> bool:
        return (self.rc != 0 or bool(self.problems)) and self.known is None


def reference_s() -> float:
    """Seconds that a fixed mix of interpreter and numpy work takes now.

    On a shared host the speed of a core drifts by up to half over tens of
    seconds; this loop slows down with it, and lkllt cannot change it.  The
    median of three runs, so that one run that was interrupted does not count.
    """
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        np.sort(data)
        {i: str(i) for i in range(50_000)}
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _warning_lines(stderr: str) -> int:
    return sum("Warning: " in line for line in stderr.splitlines())


class Spawner:
    """Runs lkllt subprocesses for one workload and times each one."""

    def __init__(self, threads: int, deadline: float):
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LKLLT_THREADS")}
        env.update(PYTHONPATH=str(SRC), LKLLT_THREADS=str(threads))
        self.env = env
        self.deadline = deadline
        self.peak_rss_mb = 0.0
        for _ in range(3):  # the first calls warm up
            self.ref = reference_s()

    def run(self, args: list[str]) -> tuple[float, float, float, int, bytes, str]:
        """(wall seconds, the same at reference speed, max RSS in MB, exit
        code, stdout, stderr) of one invocation."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, *args], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        text = err[0].decode(errors="replace")
        hwm = re.search(f"\n{HWM_TAG}(\\d+)\n\\Z", text)
        if hwm:
            text = text[: hwm.start()]
        rss_mb = (int(hwm.group(1)) if hwm else usage.ru_maxrss) / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        before, self.ref = self.ref, reference_s()
        scaled = wall * REF_S / (0.5 * (before + self.ref))
        return wall, scaled, rss_mb, proc.returncode, out, text


class Verifier:
    """Checks outputs, once per distinct output of a command line; a later
    pass whose bytes differ from the first pass's is a failure too."""

    def __init__(self, seed: int):
        self.seed = seed
        self.goldens = load_goldens()
        self.seen: dict[str, tuple[bytes, list[str]]] = {}

    def __call__(self, cmd: Command, rc: int, out: bytes) -> list[str]:
        line = command_line(cmd, self.seed)
        if line in self.seen and rc == 0:
            first, problems = self.seen[line]
            return list(problems) if out == first else ["output differs from the first run"]
        problems = verify(cmd, self.seed, rc, out, self.goldens)
        if rc == 0:
            self.seen[line] = (out, problems)
        return problems


def provenance(w: Workload, seed: int, trace: int) -> dict:
    import numpy
    from lkllt import rngutil

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = git.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lkllt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name, "seed": seed, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "LKLLT_THREADS": w.threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "rngutil.BLOCK": rngutil.BLOCK,
    }


def _verdict(rc: int, problems: list[str], known: str | None = None) -> str:
    if known is not None:
        return f"KNOWN DEFECT exit code {rc}: {known} (not counted in failed)"
    if rc != 0:
        return f"FAIL exit code {rc}"
    return "FAIL " + "; ".join(problems) if problems else "ok"


def _print_op(op: Op) -> None:
    where = "once" if op.pass_no == 0 else f"pass {op.pass_no}"
    print(
        f"op {op.cmd.key:<14} {where:<7} {op.wall:8.3f} s (at reference speed {op.scaled:8.3f} s) "
        f"{op.rss_mb:7.1f} MB "
        f"warnings={op.warnings} {_verdict(op.rc, op.problems, op.known)}"
    )


def measure(w: Workload, seed: int, seconds: float) -> dict:
    """Closed-loop end-to-end run of one workload; returns the result object."""
    from lkllt import __version__

    spawner = Spawner(w.threads, time.perf_counter() + HARD_LIMIT_S)
    check = Verifier(seed)
    setup: list[tuple[float, float]] = []  # (wall, at reference speed)

    def sample_setup(n: int) -> None:
        for _ in range(n):
            wall, scaled, _, rc, out, err = spawner.run(["--version"])
            if rc != 0 or out.decode().strip() != __version__:
                raise SystemExit(f"perfbench: `lkllt --version` failed (exit {rc}): {err.strip()}")
            setup.append((wall, scaled))

    sample_setup(1)  # unmeasured: warms the page cache and byte-code
    setup.clear()
    sample_setup(SETUP_REPEATS)

    def op(cmd: Command, pass_no: int) -> Op:
        wall, scaled, rss, rc, out, err = spawner.run(cmd.args(seed))
        result = Op(
            cmd, pass_no, wall, scaled, rss, rc, _warning_lines(err), check(cmd, rc, out),
            known_defect(cmd, rc, err),
        )
        _print_op(result)
        return result

    window = time.perf_counter()
    ops = [op(cmd, 0) for cmd in w.once]
    passes = 0
    while True:
        started = time.perf_counter()
        passes += 1
        ops.extend(op(cmd, passes) for cmd in w.commands)
        now = time.perf_counter()
        if now - window + (now - started) > seconds:
            break
    sample_setup(SETUP_REPEATS)

    failed = sum(o.failed for o in ops)
    known = sum(o.known is not None for o in ops)

    def times(kind: str, setup_s: list[float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per-command medians, and the end-to-end times, of one kind of time."""
        per_cmd = {
            c.metric: statistics.median(getattr(o, kind) for o in ops if o.cmd is c)
            for c in w.once + w.commands
        }
        return per_cmd, {
            "wall_s": math.fsum(per_cmd[c.metric] for c in w.commands),
            "cmd_geomean_s": math.exp(
                statistics.fmean(math.log(per_cmd[c.metric]) for c in w.commands)
            ),
            "setup_s": statistics.median(setup_s),
        }

    per_cmd, metrics = times("scaled", [scaled for _, scaled in setup])
    _, raw = times("wall", [wall for wall, _ in setup])
    metrics["peak_rss_mb"] = spawner.peak_rss_mb
    print(f"passes {passes} in {time.perf_counter() - window:.2f} s (window {seconds:g} s)")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {END_TO_END_UNITS[name]}")
    for name, value in raw.items():
        print(f"raw wall time {name} {value!r} s")
    print(f"metric failed_frac {failed / len(ops)!r} 1")
    print(f"known_defects {known} count")
    for name in COMMAND_METRICS:
        print(f"metric {name} {per_cmd[name]!r} s" if name in per_cmd else f"metric {name} - s (not in {w.name})")
    return {
        "correct": not any(o.problems for o in ops if o.rc == 0),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _in_process(cli, args: list[str]) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # a fresh filter shows each warning once per command, as in a new process
        warnings.simplefilter("default", RuntimeWarning)
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue().encode(), err.getvalue()


def trace(w: Workload, seed: int) -> dict:
    """In-process run of every command, untraced and traced; returns the result object."""
    import layers
    from spans import Recorder, SpanIndex

    modules = {m.__name__: m for m in layers.lkllt_modules()}
    cli = modules["lkllt.cli"]
    cmds = list(w.once) + list(w.commands)
    saved = os.environ.get("LKLLT_THREADS")
    os.environ["LKLLT_THREADS"] = str(w.threads)
    rec = Recorder()
    plain, traced = [], []
    untraced_s = traced_s = 0.0
    try:
        # each command runs untraced and then traced right after, so that a
        # drift in machine speed between the two lands in neither
        for c in cmds:
            start = time.perf_counter()
            plain.append(_in_process(cli, c.args(seed)))
            untraced_s += time.perf_counter() - start
            undo = layers.install(rec)
            try:
                start = time.perf_counter()
                traced.append(_in_process(cli, c.args(seed)))
                traced_s += time.perf_counter() - start
            finally:
                undo()
    finally:
        if saved is None:
            del os.environ["LKLLT_THREADS"]
        else:
            os.environ["LKLLT_THREADS"] = saved

    check = Verifier(seed)
    failed = unsuccessful = 0
    correct = True
    for c, (rc, out, err), (rc0, out0, _) in zip(cmds, traced, plain):
        problems = check(c, rc, out)
        if (rc, out) != (rc0, out0):
            problems.append("traced output differs from the untraced run")
        known = known_defect(c, rc, err) if problems == [f"exit code {rc}"] else None
        correct = correct and not (rc == 0 and problems)
        unsuccessful += rc != 0 or bool(problems)
        failed += (rc != 0 or bool(problems)) and known is None
        print(f"op {c.key:<14} traced  warnings={_warning_lines(err)} {_verdict(rc, problems, known)}")

    idx = SpanIndex(rec.spans)
    metrics = layers.layer_metrics(idx)
    metrics.update({
        "report.bytes": (sum(len(out) for _, out, _ in traced), "B"),
        "cli.commands": (len(cmds), "count"),
        "cli.failed": (unsuccessful, "count"),  # known defects included
        "cli.stderr_warnings": (sum(_warning_lines(err) for _, _, err in traced), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(rec.spans), "count"),
    })
    print(f"traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value!r} {unit}")
    return {
        "correct": correct,
        "attempted": len(cmds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def pin() -> dict:
    """SHA-256 of every command's output at the default seed."""
    spawner = Spawner(1, time.perf_counter() + 10 * HARD_LIMIT_S)
    goldens = {}
    cmds = {command_line(c, GOLDEN_SEED): c for w in WORKLOADS.values() for c in w.once + w.commands}
    for line, cmd in sorted(cmds.items()):
        _, _, _, rc, out, err = spawner.run(cmd.args(GOLDEN_SEED))
        if rc == 0:
            goldens[line] = hashlib.sha256(out).hexdigest()
        else:
            print(f"not pinned (exit {rc}): {line}: {err.strip()}", file=sys.stderr)
    return {"seed": GOLDEN_SEED, "sha256": goldens}


def _check_checkout() -> None:
    """Fail unless lkllt imports from this checkout's src/."""
    if not (SRC / "lkllt" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no lkllt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lkllt

    if Path(lkllt.__file__).resolve().parent != SRC / "lkllt":
        raise SystemExit(f"perfbench: lkllt imported from {lkllt.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="print the golden SHA-256 table for goldens.json and exit")
    args = ap.parse_args(argv)
    _check_checkout()
    if args.pin:
        print(json.dumps(pin(), indent=2, sort_keys=True))
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        w = WORKLOADS[name]
        print(f"== workload {name}")
        print("provenance " + json.dumps(provenance(w, args.seed, args.trace), sort_keys=True))
        result = trace(w, args.seed) if args.trace else measure(w, args.seed, seconds)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
