#!/usr/bin/env python3
"""Certification benchmark: time from descriptor to verdict, per workload.

Run from the root of a checkout (stdlib only; the package is taken from
``src/`` through PYTHONPATH, never from an installed copy):

    python3 perfbench/run.py --workload graph-tr3 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it repeats the workload's step sequence, closed loop and
one step at a time, until the next repetition would end past ``--seconds``,
and reports the end-to-end metrics.  With ``--trace 1`` each repetition runs
the CLI sequence once more and then the same steps in-process, in a fresh
traced interpreter, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it records the context
(Python, cores, CPU, commit, seed, sample counts).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, summarize
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
STEP_TIMEOUT_S = 170
# set-up is launched this many times before each repetition and after the
# last one, so its median spans the whole run rather than one moment of it
SETUP_LAUNCHES = 3
STARTUP_LAUNCHES = 5
LAYERS = ("graphcover", "interval_embed", "exact", "metric_systems")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _self_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _launch(argv: list[str], timeout: float = STEP_TIMEOUT_S) -> tuple[int | None, str, float]:
    """Run one child to completion: (exit code or None on timeout, stderr, wall)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        code, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, err = None, f"timed out after {timeout}s"
    return code, err, time.perf_counter() - t0


def _launch_walls(argv: list[str], times: int) -> tuple[list[float], bool]:
    walls, ok = [], True
    for _ in range(times):
        code, err, wall = _launch(argv, timeout=60)
        ok = ok and code == 0
        if code != 0:
            sys.stderr.write(err)
        walls.append(wall)
    return walls, ok


def measure_setup(name: str) -> tuple[list[float], bool]:
    """Launch to ready: a fresh interpreter that does the run's set-up."""
    code = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
        f"import workloads; workloads.prepare({name!r})"
    )
    return _launch_walls([sys.executable, "-c", code], SETUP_LAUNCHES)


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _bytes_written(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _checks(wl: workloads.Workload, work: Path, seed: int) -> list[tuple[str, bool]]:
    try:
        return wl.check(work, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [(f"outputs readable ({type(exc).__name__}: {exc})", False)]


def run_cli(wl: workloads.Workload, work: Path) -> dict:
    """The workload's commands, one subprocess at a time."""
    by_kind: dict[str, float] = defaultdict(float)
    checks = []
    cpu0 = _child_cpu()
    t0 = time.perf_counter()
    for step in wl.cli_steps(work):
        code, err, wall = _launch([sys.executable, "-m", "cantor_shrink.cli", *step.argv])
        by_kind[step.kind] += wall
        checks.append((f"exit {' '.join(step.argv[:2])}", code == 0))
        if code != 0:
            sys.stderr.write(err)
    return {
        "wall": time.perf_counter() - t0,
        "cpu": _child_cpu() - cpu0,
        "by_kind": dict(by_kind),
        "checks": checks,
    }


def run_inprocess(wl: workloads.Workload, work: Path, seed: int) -> dict:
    cpu0 = _self_cpu()
    t0 = time.perf_counter()
    try:
        wl.inprocess(Tracer("untraced", enabled=False), work, seed)
        ok = True
    except Exception as exc:  # a failing step is a failed check, not a crash
        sys.stderr.write(f"in-process steps raised {type(exc).__name__}: {exc}\n")
        ok = False
    return {
        "wall": time.perf_counter() - t0,
        "cpu": _self_cpu() - cpu0,
        "checks": [("in-process steps completed", ok)],
    }


def run_traced_child(wl: workloads.Workload, work: Path, seed: int, run_id: str) -> dict:
    """The in-process steps in a fresh interpreter, traced; returns its trace."""
    code, err, wall = _launch(
        [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed),
         "--trace-child", str(work), "--run-id", run_id]
    )
    if code != 0:
        sys.stderr.write(err)
        return {"ok": False, "wall": wall}
    trace = json.loads((work / "trace.json").read_text())
    return {"ok": True, "wall": wall, **trace}


def plain_iteration(wl: workloads.Workload, work: Path, seed: int) -> dict:
    if wl.cli_steps is not None:
        sample = run_cli(wl, work)
    else:
        sample = run_inprocess(wl, work, seed)
    sample["checks"] += _checks(wl, work, seed)
    sample["bytes"] = _bytes_written(work)
    sample["scheme_sha"] = _sha256(work / wl.scheme_file) if wl.scheme_file else None
    return sample


def _layer_metrics(trace: dict, cli: dict | None) -> dict[str, float]:
    summary = summarize(trace["spans"])
    counts = defaultdict(float, trace["counts"])
    m = {name: t for name, t in summary["by_name"].items() if not name.startswith("step.")}
    m.update(counts)
    checked = counts["interval_embed.lrs_pairs_checked"]
    attempted = checked + counts["interval_embed.lrs_pairs_excluded"]
    m["interval_embed.lrs_checked_ratio"] = checked / attempted if attempted else 0.0
    m["interval_embed.lrs_us_per_pair"] = 1e6 * m.get("interval_embed.lrs_s", 0.0) / checked if checked else 0.0
    trials = counts["metric_systems.oracle_trials"]
    m["metric_systems.oracle_shrinking_ratio"] = counts["metric_systems.oracle_shrinking"] / trials if trials else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summary["by_layer"].get(layer, 0.0)
    m["trace.wall_s"] = summary["wall"]
    m["trace.unattributed_s"] = summary["unattributed"]
    if cli is not None:
        for kind in ("build", "verify", "export"):
            m[f"cli.{kind}_s"] = cli["by_kind"].get(kind, 0.0)
        m["cli.wall_s"] = cli["wall"]
        m["cli.overhead_s"] = cli["wall"] - summary["wall"]
    return m


def trace_iteration(wl: workloads.Workload, work: Path, seed: int, run_id: str) -> dict:
    cli = None
    checks = []
    wall = 0.0
    if wl.cli_steps is not None:
        cli_dir = work / "cli"
        cli_dir.mkdir()
        cli = run_cli(wl, cli_dir)
        checks += cli["checks"] + _checks(wl, cli_dir, seed)
        wall += cli["wall"]
    traced_dir = work / "traced"
    traced_dir.mkdir()
    trace = run_traced_child(wl, traced_dir, seed, run_id)
    wall += trace["wall"]
    checks.append(("traced run completed", trace["ok"]))
    if not trace["ok"]:
        return {"wall": wall, "checks": checks, "metrics": {}, "spans": []}
    checks += _checks(wl, traced_dir, seed)
    if cli is not None:
        checks.append((
            "CLI scheme is byte-identical to the in-process build",
            _sha256(cli_dir / wl.scheme_file) == trace["scheme_sha"],
        ))
    return {"wall": wall, "checks": checks, "metrics": _layer_metrics(trace, cli), "spans": trace["spans"]}


def trace_child(wl: workloads.Workload, work: Path, seed: int, run_id: str) -> int:
    tracer = Tracer(run_id)
    digest = wl.inprocess(tracer, work, seed)
    (work / "trace.json").write_text(json.dumps({**tracer.to_json(), "scheme_sha": digest}))
    return 0


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _end_to_end(wl: workloads.Workload, samples: list[dict], setup_walls: list[float]):
    """Values and sample counts of the end-to-end metrics (tracing off)."""
    who = resource.RUSAGE_CHILDREN if wl.cli_steps is not None else resource.RUSAGE_SELF
    values = {
        "verdict_s": statistics.median(s["wall"] for s in samples),
        "cpu_s": statistics.median(s["cpu"] for s in samples),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "artifact_bytes": statistics.median(s["bytes"] for s in samples),
        "setup_s": statistics.median(setup_walls),
    }
    counts = dict.fromkeys(values, len(samples))
    counts.update(peak_rss_mb=1, setup_s=len(setup_walls))
    return values, counts


def _per_layer(wl: workloads.Workload, samples: list[dict], startup_s: float):
    """Medians over the traced repetitions of the per-layer metrics."""
    names = {k for s in samples for k in s["metrics"]}
    values = {k: statistics.median(s["metrics"].get(k, 0.0) for s in samples) for k in names}
    values["cli.startup_s"] = startup_s
    values["cli.loads"] = sum(st.loads_scheme for st in wl.cli_steps(WORK)) if wl.cli_steps else 0
    return values, dict.fromkeys(values, len(samples))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cantor-shrink certification benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-child", help=argparse.SUPPRESS)
    parser.add_argument("--run-id", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cantor_shrink" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a cantor-shrink checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace_child:
        return trace_child(workloads.WORKLOADS[args.workload], Path(args.trace_child), args.seed, args.run_id)

    wl = workloads.prepare(args.workload)
    checks = []
    startup_s = 0.0
    if args.trace and wl.cli_steps is not None:
        startup_walls, startup_ok = _launch_walls(
            [sys.executable, "-m", "cantor_shrink.cli", "--help"], STARTUP_LAUNCHES
        )
        startup_s = statistics.median(startup_walls)
        checks.append(("cli --help exits 0", startup_ok))

    run_dir = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    samples: list[dict] = []
    setup_walls: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            walls, ok = measure_setup(wl.name)
            setup_walls += walls
            checks.append(("set-up launches exit 0", ok))
            work = run_dir / f"it{len(samples)}"
            work.mkdir(parents=True)
            if args.trace:
                sample = trace_iteration(wl, work, args.seed, f"{wl.name}-seed{args.seed}-it{len(samples)}")
            else:
                sample = plain_iteration(wl, work, args.seed)
            samples.append(sample)
            checks += sample["checks"]
            shutil.rmtree(work)
            typical = statistics.median(s["wall"] for s in samples)
            if time.perf_counter() - start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    walls, ok = measure_setup(wl.name)
    setup_walls += walls
    checks.append(("set-up launches exit 0", ok))

    if args.trace:
        values, sample_counts = _per_layer(wl, samples, startup_s)
        section = "per_layer"
        (WORK / f"trace-{wl.name}-seed{args.seed}.json").write_text(
            json.dumps([span for s in samples for span in s["spans"]])
        )
    else:
        values, sample_counts = _end_to_end(wl, samples, setup_walls)
        section = "end_to_end"
        if wl.scheme_file and len(samples) > 1:
            checks.append(("rebuilds are byte-identical", len({s["scheme_sha"] for s in samples}) == 1))

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    error_rate = len(failed) / len(checks)
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())[section]:
        name = spec["name"]
        metrics[name] = {"value": values.get(name, 0.0), "unit": spec["unit"]}
        print(f"{name:42s} {metrics[name]['value']:>16.6f} {spec['unit']:6s} n={sample_counts.get(name, 0)}",
              file=sys.stderr)
    print(f"{'error_rate':42s} {error_rate:>16.6f} {'ratio':6s} n={len(checks)}", file=sys.stderr)
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "repetitions": len(samples),
        "samples": {name: sample_counts.get(name, 0) for name in metrics},
        "error_rate": error_rate,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
