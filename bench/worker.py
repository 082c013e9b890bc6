"""One repetition of one workload, in a fresh interpreter.

Started by run.py, which passes the monotonic clock reading taken just
before the process was spawned; set-up time therefore includes interpreter
start, ``import slipflow``, config validation and, for the solve workloads,
``build_setup``.  The result goes to a JSON file:

  setup_s, import_s, solve_s, run_s, peak_rss_mb, ops, layers

``ops`` lists every operation as [name, ok, detail].  With --trace every
public function listed in metrics.TRACED is wrapped and ``layers`` holds
the per-layer metrics; without it only picard_solve is wrapped, to time the
solve and keep the returned bundle for the checks.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import metrics
from tracer import Patcher, Tracer, build_wrappers
from workloads import WORKLOADS


def _import_slipflow(src: Path):
    sys.path.insert(0, str(src))
    start = time.monotonic()
    import slipflow
    import_s = time.monotonic() - start
    if not Path(slipflow.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"slipflow imported from {slipflow.__file__}, not from {src}")
    return slipflow, import_s


def run(args) -> dict:
    slipflow, import_s = _import_slipflow(Path(args.root) / "src")
    import checks  # after slipflow, so import_s includes numpy as a user pays it
    workload = WORKLOADS[args.workload]
    doc = json.loads(Path(args.config).read_text())
    tracer = Tracer()
    patcher = Patcher(build_wrappers(tracer, metrics.TRACED if args.trace else ("picard.picard_solve",)))
    result = {"import_s": import_s, "ops": []}
    ops = result["ops"]

    patcher.install()
    if args.trace:
        ops.append(("no original left after patching", True, f"{len(patcher.patched)} aliases"))
    try:
        config = slipflow.config_from_mapping(doc)
        if workload.solves:
            slipflow.build_setup(config)
        result["setup_s"] = time.monotonic() - args.t0
        if args.setup_only:
            return result

        run_start = time.perf_counter()
        command_s = []
        with redirect_stdout(io.StringIO()):
            for command in workload.commands:
                start = time.perf_counter()
                rc = slipflow.cli.main([*command, "--config", args.config, "--out", args.out])
                command_s.append(time.perf_counter() - start)
                ops.append((f"{command[0]} exits 0", rc == 0, f"exit {rc}"))
        result["run_s"] = time.perf_counter() - run_start
    finally:
        try:
            patcher.restore()
            if args.trace:
                ops.append(("originals restored", True, "ok"))
        except RuntimeError as exc:
            ops.append(("originals restored", False, str(exc)))

    bundles = tracer.returns["picard.picard_solve"]
    if workload.solves:
        result["solve_s"] = tracer.total("picard.picard_solve")
        if bundles:
            ops.extend(checks.artifact_checks(args.out, bundles[-1]))
            if workload.name == "split-default" and args.seed == 0:
                ops.append(checks.reference_check(
                    bundles[-1], config.solver.outer_tol, config.solver.inner_tol))
        else:
            ops.append(("picard_solve returned", False, "no bundle captured"))
    else:
        # transport-test is the whole solve of this workload
        result["solve_s"] = sum(command_s)

    if args.trace:
        layers = metrics.layer_metrics(tracer, import_s, result["run_s"])
        ops.extend(metrics.cross_checks(tracer, workload.name, layers))
        ops.append(metrics.span_self_check(tracer))
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, help="checkout holding src/slipflow")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except Exception:  # the run is reported as a failed operation, not lost
        traceback.print_exc()
        result = {"ops": [("workload ran", False, traceback.format_exc(limit=3))]}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
