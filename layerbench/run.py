"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 layerbench/run.py --workload cold-uniform --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, its times at the reference
host pace (``layerbench/pace.py``); ``--trace 1`` runs the
workload once untraced and once with span wrappers installed, each for
half of ``--seconds``, prints every per-layer metric and writes the
spans to ``.layerbench/spans/``.
Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full record (environment, sample counts, failures)
goes to ``.layerbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from layerbench import sysinfo  # noqa: E402  (imports no repro module)


def parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    # The switches change the program being measured and bind when repro
    # is imported, so they are removed (and recorded) before that.
    unset_env = sysinfo.pin_environment()
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2

    from layerbench import metrics, pace
    from layerbench.stats import InsufficientSamples
    from layerbench.trace import Recorder, install, restore
    from layerbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    env = sysinfo.environment(ROOT, args.seed, unset_env)

    if args.trace == 0:
        run, state = workload.execute(args.seconds)
        workload.check(state, run)
        runs = [run]
        table = metrics.END_TO_END
        try:
            values = metrics.end_to_end(run)
        except InsufficientSamples as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        # two passes of half the run length each, so a traced run takes
        # about as long as an untraced one
        untraced, state = workload.execute(args.seconds / 2, setups=1)
        workload.check(state, untraced)
        rec = Recorder()
        installed = install(rec)
        try:
            traced, state = workload.execute(args.seconds / 2, rec=rec, setups=1)
        finally:
            restore(installed)
        workload.check(state, traced)
        runs = [untraced, traced]
        table = metrics.PER_LAYER
        values = metrics.per_layer(traced, untraced, rec)
        rec.write(os.path.join(ROOT, ".layerbench", "spans", f"{args.workload}-seed{args.seed}.npz"))

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "failed_frac": failed / attempted,
        "errors": [r.errors for r in runs],
        "samples": [{k: len(v) for k, v in r.lat.items()} for r in runs],
        # the host's pace: median and quartiles of the reference kernel
        "pace_us": [statistics.quantiles(r.pacer.us, n=4) for r in runs],
        "result": result,
    }
    out = os.path.join(ROOT, ".layerbench", "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"environment": env}))
    print(f"workload {args.workload}  seed {args.seed}  samples {record['samples']}")
    print(f"pace kernel quartiles (us, reference {pace.REFERENCE_US:g}): {record['pace_us']}")
    for name, unit in table:
        print(f"{name:40s} {values[name]:14.4f} {unit}")
    print(f"{'failed_frac':40s} {failed / attempted:14.6f} frac  ({failed} of {attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
