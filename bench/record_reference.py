"""Record the seed-0 split-default solution the benchmark checks against.

  python3 bench/record_reference.py

Run from the root of a checkout.  Writes bench/reference/split_default_seed0.npz
with the converged perturbation fields u and w.  Re-record only when a
change is meant to move the split solution by more than
checks.reference_tolerance, and say so in that change.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, config_document

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import slipflow

    config = slipflow.config_from_mapping(config_document(WORKLOADS["split-default"], 0))
    bundle = slipflow.picard_solve(slipflow.build_setup(config))
    if not bundle.converged:
        print(f"error: split solve ended {bundle.verdict!r}", file=sys.stderr)
        return 1
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(checks.REFERENCE, u=bundle.u.values, w=bundle.w.values)
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
