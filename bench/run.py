"""slipflow benchmark: time to a converged solution, per workload.

  python3 bench/run.py --workload split-default --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src of that
checkout and nowhere else.  Every repetition of the workload runs in a
fresh interpreter (worker.py), one at a time.

--trace 0 prints the end-to-end metrics: the median set-up time over the
repetitions and extra set-up-only processes, and the medians of solve
time, run time and peak memory over repetitions, started until --seconds
have passed (at least one).  --trace 1 runs one traced repetition and
prints the per-layer metrics.  The tracing overhead is estimated as the traced
``trace.run_s`` minus the untraced median ``run_s`` of the same workload.

Every command verdict and correctness check is one operation; the last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workload descriptions, the layer-to-metric
predictions and the measured spread are in bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import metrics
from workloads import WORKLOADS, config_document, epsilon_for_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3     # set-up-only processes fill up what the repetitions leave
# One BLAS thread: the vectors are too short for OpenBLAS threads to pay, and
# on two shared cores its spinning threads made solve_s slower and noisier.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DEADLINE_S = 170.0    # start no repetition expected to end later than this


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_record(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": _git_commit(root),
        "loadavg_start": os.getloadavg(),
    }


def run_worker(workload: str, seed: int, work: Path, index: int, deadline: float,
               trace=False, setup_only=False) -> dict:
    result_path = work / f"result-{index}.json"
    out = work / f"out-{index}"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--root", str(ROOT),
        "--config", str(work / "config.json"), "--out", str(out),
        "--result", str(result_path),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"ops": [("worker finished in time", False, "killed at the deadline")]}
    shutil.rmtree(out, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not result_path.is_file():
        return {"ops": [("worker exits 0", False, f"exit {proc.returncode}")]}
    return json.loads(result_path.read_text())


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path):
    """Returns (metrics, ops, a note on what was measured)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if trace:
        res = run_worker(workload, seed, work, 0, deadline, trace=True)
        return res.get("layers", {}), res["ops"], "1 traced repetition"

    reps, setups, ops = [], [], []
    while not reps or time.monotonic() - start < seconds:
        last = reps[-1]["run_s"] + reps[-1]["setup_s"] if reps else 0.0
        if reps and time.monotonic() + 1.5 * last > deadline:
            break
        res = run_worker(workload, seed, work, len(reps), deadline)
        ops += res["ops"]
        if "run_s" not in res:
            break
        reps.append(res)
        setups.append(res["setup_s"])
    for i in range(len(reps), SETUP_SAMPLES if reps else 0):
        res = run_worker(workload, seed, work, i, deadline, setup_only=True)
        ops += [op for op in res["ops"] if not op[1]]
        if "setup_s" in res:
            setups.append(res["setup_s"])
    if not reps:
        return {}, ops, "no repetition finished"
    out = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return out, ops, f"{len(reps)} repetitions, {len(setups)} set-up samples"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="slipflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slipflow" / "__init__.py").is_file():
        print(f"error: no slipflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in every worker
    # byte-compile once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
                   check=True, capture_output=True)

    machine = machine_record(ROOT)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload]
        (work / "config.json").write_text(json.dumps(config_document(workload, args.seed)))
        values, ops, note = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still holds a directory there

    spec = metrics.per_layer_spec() if args.trace else metrics.END_TO_END
    failed = [op for op in ops if not op[1]]
    print("machine " + json.dumps(machine))
    eps = f", epsilon {epsilon_for_seed(args.seed):.6g}" if workload.solves else ""
    print(f"workload {args.workload}, seed {args.seed}{eps}: {note}")
    for name, ok, detail in ops:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, unit, _ in spec:
        if name in values:
            print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_frac {len(failed)}/{len(ops)} = {len(failed) / max(len(ops), 1):g}")
    complete = all(name in values for name, _, _ in spec)
    print(json.dumps({
        "correct": complete and not failed,
        "attempted": max(len(ops), 1),
        "failed": len(failed) if ops else 1,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in spec if name in values
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
