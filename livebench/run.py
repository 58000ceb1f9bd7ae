"""The repository's benchmark: keystroke, interaction and serving latency.

    python3 livebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

* ``type-mortgage`` — a programmer types into the running mortgage app;
* ``use-mortgage``  — a user taps listings and types APRs, no edits;
* ``serve-mix``     — one HTTP client drives ``repro serve``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  Times are
calibrated seconds (calib.py); the line before it, ``raw {...}``, holds
the same end-to-end metrics in raw wall seconds and the run's median
reference-loop time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("type-mortgage", "use-mortgage", "serve-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name):
    if name == "serve-mix":
        import serving

        return serving.serve_mix
    import inproc

    return inproc.type_mortgage if name == "type-mortgage" \
        else inproc.use_mortgage


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print("livebench: no program at {}; run from the root of a checkout"
              .format(common.SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    os.makedirs(common.WORK, exist_ok=True)
    run = common.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        main_kinds, side_kinds, per_round = _workload(args.workload)(run)
        end_to_end = run.end_to_end(main_kinds, side_kinds, per_round)
        if run.traced:
            metrics = _layers(run)
            # The end-to-end metrics as measured under tracing: against an
            # untraced run they give the tracing overhead.
            print("traced " + json.dumps(_values(end_to_end)))
        else:
            metrics = end_to_end
            raw = _values(run.end_to_end(main_kinds, side_kinds, per_round,
                                         calibrated=False))
            raw["reference_s"] = statistics.median(run.meter.references)
            print("raw " + json.dumps(raw))
    except common.CheckFailed as failure:
        print("livebench: check failed: {}".format(failure), file=sys.stderr)
        return 1
    for kind in sorted(run.attempted):
        print("ops {} {}: attempted {} failed {}".format(
            args.workload, kind, run.attempted[kind],
            run.failed.get(kind, 0)))
    for note in run.notes:
        print("livebench: failed " + note, file=sys.stderr)
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    print(json.dumps({
        "correct": run.check_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def _values(metrics):
    return {name: value for name, (value, _unit) in metrics.items()}


def _layers(run):
    if run.workload == "serve-mix":
        import serving

        return serving.layer_split(run)
    import inproc

    recorder = run.recorder
    ops = run.ops_seen()
    expected = inproc.TYPE_LAYERS if run.workload == "type-mortgage" \
        else inproc.USE_LAYERS
    metrics = common.layer_metrics(run, expected, recorder.self_times(),
                                   run.op_total)
    metrics.update(common.html_counts(recorder, ops))
    hits = run.extra.get("memo_hits", 0)
    tries = hits + run.extra.get("memo_misses", 0)
    metrics["incremental.memo_hit_ratio"] = (
        hits / tries if tries else 0.0, "ratio")
    metrics["serve.rehydrate_share"] = (0.0, "ratio")
    metrics["resilience.journal_bytes_per_op"] = (0.0, "bytes")
    metrics["resilience.journal_mb"] = (0.0, "MB")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
