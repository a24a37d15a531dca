#!/usr/bin/env python3
"""nullcert benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload sweep16 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is taken from ``src/``.

``--trace 0`` is a closed loop with one client: every instance is its own
``python -m nullcert.cli prove`` process, one at a time, and each ``prove``
that exits 0 is followed by a separate ``verify`` process on the certificate
it wrote.  ``--trace 1`` runs the same instances in this process through
``nullcert.cli.main(argv)`` with the layers wrapped by ``tracing.Tracer``.

Either way the instance set is run in whole passes, and another pass starts
only if it is expected to end within ``--seconds`` (there is always one).
Timings are medians over passes.  Untraced timings are in reference seconds
(see ``HostSpeed``); the raw wall times are reported next to them.  Every attempt is checked on its own and a
failed check is counted, not raised: see ``judge``.

The last line of standard output is the result object; the lines before it
are JSON records of the environment, every attempt and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional, Sequence

import instances as inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"

EXIT_CERTIFIED, EXIT_NO_CERT = 0, 10
# Children still running this long after the loop started are killed and
# count as failed, so that a run ends within 180 s even on a stalled program.
RUN_LIMIT_S = 160.0
SETUP_CALLS = 9
STATS_RE = re.compile(r"degree=(\d+) rows=(\d+) cols=(\d+) nnz=(\d+) status=(\w+) millis=(\d+)")


@dataclasses.dataclass
class Attempt:
    """One prove (and verify) of one instance, judged."""

    instance: str
    pass_no: int
    rc: Optional[int]
    verdict: str  # certified | exhausted | failed
    failure: Optional[str]
    cert_degree: Optional[int]
    degrees: List[dict]
    prove_s: float
    verify_s: float
    prove_ref_s: float
    verify_ref_s: float
    rss_mb: float


def parse_stats(stdout: str) -> List[dict]:
    """The per-degree ``degree=… rows=… cols=… nnz=… status=… millis=…`` lines."""
    out = []
    for line in stdout.splitlines():
        m = STATS_RE.fullmatch(line.strip())
        if m:
            d, rows, cols, nnz, status, _ = m.groups()
            out.append({"degree": int(d), "rows": int(rows), "cols": int(cols), "nnz": int(nnz), "status": status})
    return out


def judge(inst: inputs.Instance, rc: Optional[int], stdout: str, stderr: str, verify_rc: Optional[int]):
    """Check one attempt; returns (verdict, failure reason or None, degrees, cert degree).

    Exit 0 must come with a consistent last degree, a certificate that a
    separate verify accepts, and an input that is not a yes-instance.  Exit 10
    must come with no consistent degree and fails on instances that must
    certify.  Any other exit, and any traceback, fails.
    """
    degrees = parse_stats(stdout)
    consistent = [d for d in degrees if d["status"] == "consistent"]
    fail = None
    if "Traceback" in stderr:
        fail = "traceback"
    elif rc == EXIT_CERTIFIED:
        if not degrees or degrees[-1]["status"] != "consistent":
            fail = "exit 0 without a consistent degree"
        elif verify_rc != 0:
            fail = f"verify exited {verify_rc}"
        elif inst.feasible:
            fail = "certified a yes-instance"
    elif rc == EXIT_NO_CERT:
        if consistent:
            fail = "exit 10 after a consistent degree"
        elif inst.must_certify:
            fail = "no certificate on an instance that must certify"
    else:
        fail = f"exit {rc}"
    if fail:
        return "failed", fail, degrees, None
    if rc == EXIT_CERTIFIED:
        return "certified", None, degrees, consistent[-1]["degree"]
    return "exhausted", None, degrees, None


def tamper(cert: Path) -> None:
    """Smoke only: make the certificate claim the identity sum = 0."""
    doc = json.loads(cert.read_text())
    doc["target"] = "0"
    cert.write_text(json.dumps(doc))


def resolve(inst: inputs.Instance, workdir: Path) -> List[str]:
    return [str(workdir / a) if a in inst.files else a for a in inst.args]


# --- host speed -----------------------------------------------------------------
# This sandbox's CPU throughput switches between a fast and a slow phase,
# about 1.4x apart, that last from seconds to minutes (NOTES.md), and every
# prove slows with it, so raw times of the same code spread across runs by
# more than any bound.  Each child is therefore also timed in reference
# seconds.  It is stopped every SLICE_S while a fixed pure-Python loop is
# timed in this process, on the same (pinned) CPU, and each slice of its
# wall time is scaled by REF_S over the mean of the loop times just before
# and just after that slice.  The loop is the benchmark's own code, so a
# change to the program cannot move it.

REF_LOOP = 250_000
REF_S = 0.014  # the loop's time in the host's fast phase, on the host in NOTES.md
SLICE_S = 0.5


def ref_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples, taken between slices of children's run time."""

    def __init__(self) -> None:
        self.samples = [ref_loop()]

    def to_ref(self, wall: float) -> float:
        """``wall``, a slice that just ended, in reference seconds."""
        before = self.samples[-1]
        self.samples.append(ref_loop())
        return wall * 2 * REF_S / (before + self.samples[-1])

    def speed(self) -> float:
        """The host's median speed over the run, as a share of the reference."""
        return REF_S / statistics.median(self.samples)


@contextlib.contextmanager
def pinned():
    """This process and its children on one CPU, so that the reference loop
    runs where the children run."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


# --- calling the CLI: a process per call, or in this process -----------------
# Both return (exit code, stdout, stderr, wall seconds, reference seconds,
# max RSS MB).


def spawn(args: Sequence[str], workdir: Path, deadline: float, speed: HostSpeed):
    """``python -m nullcert.cli <args>`` as a child, killed at ``deadline``.

    Wall and reference seconds count only the time the child was not stopped
    for a reference-loop sample.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    wall = ref = 0.0
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "nullcert.cli", *args], cwd=workdir, stdout=out, stderr=err, env=env)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while proc.returncode is None:
                    t0 = time.perf_counter()
                    if t0 >= deadline:
                        proc.kill()
                    select.select([pidfd], [], [], min(SLICE_S, max(deadline - t0, 0.0)))
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(proc.pid, signal.SIGSTOP)
                    slice_s = time.perf_counter() - t0
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    wall += slice_s
                    ref += speed.to_ref(slice_s)
                    if os.WIFSTOPPED(status):
                        os.kill(proc.pid, signal.SIGCONT)
                    else:
                        proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                os.close(pidfd)
        finally:
            if proc.returncode is None:  # only on an exception above
                proc.kill()
                proc.wait()
    return proc.returncode, out_path.read_text(), err_path.read_text(), wall, ref, usage.ru_maxrss / 1024


def in_process(args: Sequence[str], workdir: Path, deadline: float):
    """``nullcert.cli.main(args)`` here, through any installed wrappers; cannot be
    stopped at ``deadline``.  Traced times stay raw."""
    import nullcert.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = nullcert.cli.main(list(args))
        except Exception:  # a crash is a counted failure, like a child's traceback
            rc = None
            traceback.print_exc(file=err)
    wall = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), wall, wall, 0.0


def attempt(call, inst: inputs.Instance, workdir: Path, pass_no: int, deadline: float) -> Attempt:
    """Prove one instance and, on exit 0, verify its certificate; then judge."""
    cert = workdir / "cert.json"
    cert.unlink(missing_ok=True)
    rc, out, err, prove_s, prove_ref, rss = call(resolve(inst, workdir) + ["--cert", str(cert)], workdir, deadline)
    verify_rc, verify_s, verify_ref = None, 0.0, 0.0
    if rc == EXIT_CERTIFIED and cert.exists():
        if inst.tamper:
            tamper(cert)
        verify_rc, _, verr, verify_s, verify_ref, vrss = call(["verify", str(cert)], workdir, deadline)
        err += verr
        rss = max(rss, vrss)
    verdict, failure, degrees, cdeg = judge(inst, rc, out, err, verify_rc)
    return Attempt(inst.name, pass_no, rc, verdict, failure, cdeg, degrees, prove_s, verify_s, prove_ref, verify_ref, rss)


def setup_times(workdir: Path, speed: HostSpeed) -> List[tuple]:
    """(wall, reference) seconds of trivial CLI calls: interpreter plus ``import nullcert.cli``."""
    times = []
    for _ in range(SETUP_CALLS):
        rc, _, err, wall, ref, _ = spawn(["--help"], workdir, time.perf_counter() + 30.0, speed)
        if rc != 0:
            raise RuntimeError(f"trivial CLI call exited {rc}: {err.strip()[-300:]}")
        times.append((wall, ref))
    return times


# --- the loop -----------------------------------------------------------------


def run_passes(order: List[inputs.Instance], seconds: float, attempt) -> tuple:
    """Whole passes while the next is expected to end within ``seconds``."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    attempts: List[Attempt] = []
    pass_walls: List[float] = []
    while True:
        t0 = time.perf_counter()
        for inst in order:
            if time.perf_counter() >= deadline:
                attempts.append(Attempt(inst.name, len(pass_walls), None, "failed", "run time limit reached", None, [],
                                        0.0, 0.0, 0.0, 0.0, 0.0))
            else:
                attempts.append(attempt(inst, len(pass_walls), deadline))
        pass_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + pass_walls[-1] > seconds or time.perf_counter() >= deadline:
            return attempts, pass_walls


def end_to_end(attempts: List[Attempt], n_passes: int, setup: List[tuple], speed: HostSpeed) -> dict:
    """Times are in reference seconds except ``raw_*``; a pass's time is the
    sum of its children's."""

    def per_pass(pick) -> float:
        return statistics.median(sum(pick(a) for a in attempts if a.pass_no == p) for p in range(n_passes))

    n = len(attempts)
    return {
        "setup_s": statistics.median(ref for _, ref in setup),
        "wall_s": per_pass(lambda a: a.prove_ref_s + a.verify_ref_s),
        "cert_s": per_pass(lambda a: a.prove_ref_s if a.rc == EXIT_CERTIFIED else 0.0),
        "exhaust_s": per_pass(lambda a: a.prove_ref_s if a.rc == EXIT_NO_CERT else 0.0),
        "verify_s": per_pass(lambda a: a.verify_ref_s),
        "raw_setup_s": statistics.median(wall for wall, _ in setup),
        "raw_wall_s": per_pass(lambda a: a.prove_s + a.verify_s),
        "host_speed": speed.speed(),
        "peak_rss_mb": max(a.rss_mb for a in attempts),
        "decided_ratio": sum(a.verdict == "certified" for a in attempts) / n,
        "failed_ratio": sum(a.verdict == "failed" for a in attempts) / n,
    }


# Reported but not gated.  exhaust_s is 0 on certify and failed_ratio is 0
# on a correct program, and a gated metric is judged as a share of its
# median, so it must never be 0; failed_ratio is also the result's
# failed / attempted.  cert_s and verify_s are parts of wall_s.  The raw
# times and the host's speed show what the reference times were scaled from.
UNGATED_UNITS = {"cert_s": "s", "exhaust_s": "s", "verify_s": "s", "failed_ratio": "ratio",
                 "raw_setup_s": "s", "raw_wall_s": "s", "host_speed": "ratio"}


def run_workload(instance_set: List[inputs.Instance], seed: int, seconds: float, trace: bool, spec: dict,
                 label: str) -> tuple:
    """Run one workload; returns (result object, report records)."""
    env = environment()
    order = list(instance_set)
    random.Random(seed).shuffle(order)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        inputs.write_files(order, workdir)
        if trace:
            import tracing

            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            tracer = tracing.Tracer()
            tracer.install()

            def traced(inst: inputs.Instance, pass_no: int, deadline: float) -> Attempt:
                tracer.instance = f"{pass_no}:{inst.name}"
                return attempt(in_process, inst, workdir, pass_no, deadline)

            try:
                attempts, pass_walls = run_passes(order, seconds, traced)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"spans-{label}-seed{seed}.jsonl")
            values = tracing.layer_metrics(tracer.spans, len(pass_walls))
            values["traced.wall_s"] = statistics.median(pass_walls)
            names = spec["per_layer"]
            report = {"kind": "layers", "passes": len(pass_walls)}
        else:
            with pinned():
                speed = HostSpeed()
                call = functools.partial(spawn, speed=speed)
                setup = setup_times(workdir, speed)
                attempts, pass_walls = run_passes(order, seconds, lambda i, p, d: attempt(call, i, workdir, p, d))
            values = end_to_end(attempts, len(pass_walls), setup, speed)
            names = spec["end_to_end"]
            units = {**UNGATED_UNITS, **{m["name"]: m["unit"] for m in names}}
            report = {"kind": "end_to_end", "passes": len(pass_walls), "setup_samples": [wall for wall, _ in setup],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = loadavg()
    failed = sum(a.verdict == "failed" for a in attempts)
    records = [{"kind": "env", "workload": label, "seed": seed, "trace": int(trace), **env}]
    records += [{"kind": "attempt", **dataclasses.asdict(a)} for a in attempts]
    records.append(report)
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    return result, records


# --- environment ------------------------------------------------------------


def loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": loadavg(),
    }


# --- smoke --------------------------------------------------------------------


def smoke(spec: dict) -> List[str]:
    """The benchmark's own check on tiny inputs; returns the problems found.

    Runs K4, wheel:5, complete:3 and one GF(3) system both ways and checks
    that every metric BENCHMARK.json names is printed, as a number, with its
    unit, and that the report also holds the ungated end-to-end metrics.
    Then adds two injected faults, a tampered certificate and a wrong verdict
    (complete:3 answered with K4's certificate), and checks that exactly
    those two count as failed.
    """
    problems = []
    base = inputs.smoke()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, records = run_workload(base, 0, 0, trace, spec, "smoke")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"trace={int(trace)}: metrics {got} != {want}")
        for name, metric in result["metrics"].items():
            if type(metric["value"]) not in (int, float) or metric["value"] != metric["value"]:
                problems.append(f"trace={int(trace)}: {name} = {metric['value']!r} is not a number")
        if not trace:
            report = next(r for r in records if r["kind"] == "end_to_end")["metrics"]
            missing = (set(want) | set(UNGATED_UNITS)) - set(report)
            if missing:
                problems.append(f"report lacks {sorted(missing)}")
        if result["failed"] or not result["correct"]:
            problems.append(f"trace={int(trace)}: {result['failed']} clean attempts failed")
    k4, k3 = base[0], base[2]
    faults = [
        dataclasses.replace(k4, name="complete:4, certificate tampered", tamper=True),
        dataclasses.replace(k3, name="complete:3, answered with K4's certificate", args=k4.args, files=k4.files),
    ]
    for trace in (False, True):
        result, records = run_workload(base + faults, 0, 0, trace, spec, "smoke")
        failed = sorted(r["instance"] for r in records if r["kind"] == "attempt" and r["verdict"] == "failed")
        if failed != sorted(f.name for f in faults) or result["correct"]:
            problems.append(f"trace={int(trace)}: injected faults counted as {failed}")
        if not trace:
            ratio = next(r for r in records if r["kind"] == "end_to_end")["metrics"]["failed_ratio"]["value"]
            if ratio != 2 / len(base + faults):
                problems.append(f"failed_ratio {ratio} after 2 faults in {len(base + faults)} attempts")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check the benchmark itself on tiny inputs")
    args = ap.parse_args(argv)
    if not (SRC / "nullcert" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'nullcert'} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.smoke:
        problems = smoke(spec)
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0
    if not args.workload:
        ap.error("--workload is required")
    instance_set = inputs.WORKLOADS[args.workload]()
    result, records = run_workload(instance_set, args.seed, args.seconds, bool(args.trace), spec, args.workload)
    for rec in records:
        print(json.dumps(rec))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
