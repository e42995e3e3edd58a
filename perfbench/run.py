#!/usr/bin/env python3
"""Benchmark of ``phaseirls`` unwrapping: end-to-end metrics, or per-layer ones.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload bumps-noisy-512 --seed 1 --seconds 30 --trace 0

Workloads: ``bumps-noisy-512``, ``plateau-2048x1024-cli``, ``tiles-64`` (see
``workloads.py`` and ``README.md``).  The load is a closed loop with one
client: one process, one unit at a time.  Every unit's output is checked
against ground truth.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The line before it records the environment.  A full record
of each run (environment, every unit, metrics) and the spans of a traced run
are written under ``.perfbench/results/`` in the checkout.
"""

import os
import sys

# Pin BLAS threads to nproc before numpy is first imported; children inherit this.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Leave no bytecode caches in the checkout; every cold start compiles alike.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def load_program():
    """Import phaseirls from this checkout's ``src/``; exit 1 if it is not there."""
    pkg = SRC / "phaseirls"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of a phaseirls checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import phaseirls

    if Path(phaseirls.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported phaseirls from {phaseirls.__file__}, not {pkg}")


def environment():
    from phaseirls import kernels

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "phaseirls").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_backend": kernels.current_backend(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Run:
    """One benchmark run of one workload: inputs, units, and their records."""

    def __init__(self, wl, seed, work):
        from phaseirls import cli, irls

        import workloads

        self.cli, self.irls, self.w = cli, irls, workloads
        self.wl = wl
        self.work = work
        self.pool = workloads.make_pool(wl, seed)
        self.inputs = []
        if wl.via_cli:
            for i, scene in enumerate(self.pool):
                path = work / f"in-{i}.npy"
                np.save(path, scene.wrapped)
                self.inputs.append(path)
        self.records = []

    @property
    def failed(self):
        return sum(1 for r in self.records if not r["ok"])

    def _record(self, phase, scene_index, seconds, u, reason, outer=None, cg=None):
        rmse = math.inf
        if reason is None:
            rmse, reason = self.w.gate(u, self.pool[scene_index], self.wl)
        rec = {"phase": phase, "scene": scene_index, "seconds": seconds,
               "rmse": rmse if math.isfinite(rmse) else None, "ok": reason is None,
               "reason": reason, "outer": outer, "cg": cg}
        if reason is not None:
            print(f"unit {len(self.records)} ({phase}, scene {scene_index}) failed: {reason}",
                  file=sys.stderr)
        self.records.append(rec)
        return rec

    def unit(self, phase, i):
        """Run one unit on scene ``i``; returns its record and output."""
        u = outer = cg = reason = None
        t0 = time.perf_counter()
        try:
            if self.wl.via_cli:
                out, iters = self.work / f"out-{phase}.npy", self.work / f"iters-{phase}.jsonl"
                rc = self.cli.main(self.w.cli_argv(self.inputs[i], out, iters))
                seconds = time.perf_counter() - t0
                if rc != 0:
                    reason = f"CLI exit code {rc}"
                else:
                    u = np.load(out)
                    outer, cg = self.w.read_iterations(iters)
            else:
                result = self.irls.unwrap(self.pool[i].wrapped)
                seconds = time.perf_counter() - t0
                u = result.u
                outer = len(result.trace)
                cg = sum(r.cg_iters for r in result.trace.records)
        except Exception as exc:  # a unit that raises is counted as failed
            seconds = time.perf_counter() - t0
            traceback.print_exc()
            reason = f"raised {type(exc).__name__}: {exc}"
        return self._record(phase, i, seconds, u, reason, outer, cg), u

    def cold_start(self):
        """Set-up time and peak RSS of a fresh process running the first unit."""
        if self.wl.via_cli:
            argv = ["cli", json.dumps(self.w.cli_argv(
                self.inputs[0], self.work / "out-cold.npy", self.work / "iters-cold.jsonl"))]
        else:
            np.save(self.work / "in-cold.npy", self.pool[0].wrapped)
            argv = ["direct", str(self.work / "in-cold.npy"), str(self.work / "out-cold.npy")]
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "cold.py"), *argv],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            wall = time.monotonic() - t0
            self._record("cold", 0, wall, None, "cold start timed out")
            return wall, None
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self._record("cold", 0, wall, None, f"cold start exited {proc.returncode}")
            return wall, None
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = report["t_end"] - t0 - report["load_s"]
        if report["rc"] != 0:
            self._record("cold", 0, setup, None, f"CLI exit code {report['rc']}")
        else:
            self._record("cold", 0, setup, np.load(self.work / "out-cold.npy"), None)
        return setup, report["maxrss_kb"] * 1024 / 1e6

    def loop(self, seconds, body):
        """Call ``body(i)`` on scenes in turn for ``seconds``, each scene at least once."""
        start = time.perf_counter()
        k = 0
        while k < len(self.pool) or time.perf_counter() - start < seconds:
            body(k % len(self.pool))
            k += 1

    def end_to_end(self, seconds):
        setups, rss = [], []
        for _ in range(SETUP_REPEATS):
            s, r = self.cold_start()
            setups.append(s)
            if r is not None:
                rss.append(r)
        self.unit("warmup", 0)
        timed = []
        self.loop(seconds, lambda i: timed.append(self.unit("timed", i)[0]["seconds"]))
        rmses = [r["rmse"] for r in self.records if r["rmse"] is not None]
        return {
            "unwrap_s": (statistics.median(timed), "s"),
            "mpix_per_s": (self.wl.rows * self.wl.cols * len(timed) / sum(timed) / 1e6, "Mpix/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
            "rmse": (max(rmses, default=0.0), "rad"),
            "success_frac": (1.0 - self.failed / len(self.records), "frac"),
        }, None

    def per_layer(self, seconds, spans_path):
        """Untraced and traced units in pairs on the same input; see README.md."""
        import tracing

        tracer = tracing.Tracer()
        self.unit("warmup", 0)
        plain_s, traced_s, traced_units, l1 = [], [], [], []
        mismatches = []

        def pair(i):
            plain, u_plain = self.unit("plain", i)
            uid = len(self.records)
            tracer.begin_unit(uid)
            with tracing.traced(tracer):
                rec, u = self.unit("traced", i)
            plain_s.append(plain["seconds"])
            traced_s.append(rec["seconds"])
            traced_units.append(uid)
            if u is not None:
                l1.append(self.w.objective_l1(u, self.pool[i].wrapped))
            counts = tracer.counts[uid]
            same = (u is not None and u_plain is not None and u.shape == u_plain.shape
                    and u.tobytes() == u_plain.tobytes()
                    and rec["outer"] == plain["outer"] == counts["irls.outer_iters"]
                    and rec["cg"] == plain["cg"] == counts["pcg.iters"])
            if not same:
                mismatches.append(uid)

        self.loop(seconds, pair)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        if mismatches:
            return {}, f"traced units {mismatches} did not repeat the untraced work"
        values = tracing.per_unit_metrics(tracer, traced_units)
        values["quality.objective_l1"] = statistics.fmean(l1) if l1 else 0.0
        values["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        return {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small grids, for the benchmark's self-test")
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.get_workload(args.workload, toy=args.toy)
    env = environment()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(wl, args.seed, work)
        if args.trace:
            metrics, invalid = run.per_layer(args.seconds, results / f"{stem}-spans.jsonl")
        else:
            metrics, invalid = run.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if invalid:
        print(f"trace invalid: {invalid}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and invalid is None,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "environment": env,
              "trace_invalid": invalid, "units": run.records, **result}
    with open(results / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
