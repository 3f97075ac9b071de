"""Narada's layered benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-cold --seed 0 --seconds 15 --trace 0

Workloads: ``corpus-cold``, ``corpus-warm``, ``daemon-mixed`` (see
README.md).  With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric; with ``--trace 1`` the metrics are the per-layer ones, and a
per-layer table is printed before that line.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  Every run works in
its own temporary directory under ``.perfbench-tmp/`` and removes it on
every exit path, together with any daemon or pool worker it started.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus-cold", "corpus-warm", "daemon-mixed")
#: Program settings read from the environment; none may leak into a run.
HERMETIC_VARS = (
    "REPRO_CACHE_DIR", "REPRO_SPILL_ROWS", "REPRO_FAULT_INJECT", "REPRO_DAEMON_SOCKET",
)
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "subjects_per_s": "1/s",
    "races_reproduced": "count",
    "deadlocks_confirmed": "count",
    "latency_p50_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_subject", "_per_test", "overhead")):
        return "ratio"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwinds through every finally block, which stops the children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    for var in HERMETIC_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    signal.signal(signal.SIGTERM, _terminate)

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    try:
        import workloads

        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tmp, trace=bool(args.trace)
        )
    except Exception:  # noqa: BLE001 — the run failed; say why and print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it
    by_check = {c: sum(p.startswith(c + ":") for p in outcome.problems) for c in workloads.CHECKS}
    print("checks failed by category: " + ", ".join(f"{c} {n}" for c, n in by_check.items()),
          file=sys.stderr)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if outcome.report:
        print(outcome.report)
    unit = layer_unit if args.trace else UNITS.__getitem__
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
