"""digitop benchmark: times verification queries end to end, or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): paper-suite, verify-cold, lattice.  A run
repeats rounds of the seeded workload while another round still fits in
`--seconds`, on one thread, and checks every answer.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced rounds, reports the per-layer metrics of the traced ones, and writes
their spans to perfbench/_out/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit status is
0 when every query passed its checks, 1 when one did not, 2 when the
repository's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper-suite", "verify-cold", "lattice"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: set up once and print the monotonic clock, for setup_s.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def _time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")) or ".ms." in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("us_per_node"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _measure(args, harness, spans, workdir: Path) -> int:
    facts = machine_facts()
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(_time_setup(args) for _ in range(SETUP_SAMPLES))
    plan = harness.setup(args.workload, args.seed, workdir)
    checker = harness.Checker()
    deadline = time.monotonic() + args.seconds
    schedule = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
    plain_walls, traced, outcomes = [], [], []
    longest = 0.0
    for traced_round in schedule:
        began = time.monotonic()
        tracer = spans.Tracer() if traced_round else spans.NullTracer()
        wall, round_outcomes = harness.run_round(plan, tracer, checker)
        longest = max(longest, time.monotonic() - began)
        outcomes += round_outcomes
        if traced_round:
            traced.append((wall, tracer))
        else:
            plain_walls.append(wall)
        enough = bool(traced) or not args.trace
        if enough and time.monotonic() + longest > deadline:
            break

    failed = [o for o in outcomes if o.error]
    for o in failed[:20]:
        print(f"FAILED {o.qid}: {o.error}", file=sys.stderr)

    if args.trace:
        for _, tracer in traced:
            missing = harness.missing_spans(args.workload, tracer.spans)
            if missing:
                print(f"perfbench: traced round recorded no {', '.join(missing)} span",
                      file=sys.stderr)
                return 1
        rounds = [spans.layer_metrics(tracer.spans) for _, tracer in traced]
        names = list(dict.fromkeys(k for r in rounds for k in r))
        values = {k: statistics.median(r[k] for r in rounds if k in r) for k in names}
        traced_wall = statistics.median(w for w, _ in traced)
        values["trace.overhead_pct"] = (traced_wall / statistics.median(plain_walls) - 1) * 100
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "machine": facts,
                "untraced_wall_s": plain_walls,
                "rounds": [{"wall_s": w, "metrics": m, "spans": t.spans}
                           for (w, t), m in zip(traced, rounds)],
            }, fh, default=sorted)  # found minimal sets are frozensets
        metrics = {k: (v, _unit(k)) for k, v in values.items()}
    else:
        ms = [o.ms for o in outcomes]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(plain_walls), "s"),
            "query_ms.p50": (statistics.median(ms), "ms"),
            "query_ms.p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    n_rounds = len(plain_walls) + len(traced)
    print(f"# {args.workload} seed={args.seed} rounds={n_rounds} queries={len(outcomes)} "
          f"failed={len(failed)} failed_share={len(failed) / len(outcomes):.4g}")
    print("# machine " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "digitop" / "__init__.py").is_file():
        print("perfbench: src/digitop not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import spans

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.setup_only:
            harness.setup(args.workload, args.seed, workdir)
            print(repr(time.monotonic()))
            return 0
        return _measure(args, harness, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
