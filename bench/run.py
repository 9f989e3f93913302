"""Entry point of the kahlergg benchmark.

    python3 bench/run.py --workload verify_torus --seed 1 --seconds 24 --trace 0

Run it from anywhere inside a checkout of the repository.  The program is
imported from ``src/`` next to this directory, never from an installed
copy; without that source (or ``configs/``) the run prints no result and
exits with code 2.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread on both sides of every comparison, never more than nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_repo_source() -> bool:
    """Put ``src/`` of this checkout first on sys.path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "kahlergg" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="workload name (see bench/README.md)")
    p.add_argument("--seed", type=_nonnegative_int, required=True,
                   help="seed of the verify grid and of the Fubini-Study grid")
    p.add_argument("--seconds", type=_positive_float, required=True,
                   help="time budget of the measured calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from traced calls")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if not use_repo_source():
        print(f"error: no kahlergg source under {ROOT / 'src'} or no {ROOT / 'configs'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    import measure

    return measure.main(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
