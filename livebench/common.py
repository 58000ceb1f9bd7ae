"""What every workload shares: the run context, timing, accounting, results."""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import calib
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (journals, span dumps, the served app file).
WORK = os.path.join(ROOT, ".livebench")


def percentile(values, fraction):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class CheckFailed(Exception):
    """An output of the program differs from the oracle's."""


class Run:
    """One run of one workload: inputs, samples, accounting and spans."""

    def __init__(self, workload, seed, seconds, traced):
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.rng = random.Random("{}:{}".format(workload, seed))
        self.meter = calib.Meter()
        self.setup_raw = []
        self.setup_loops = None   # loop timings of the set-up under way
        self.setup_cal = []
        self.round_ends = []      # operation count at the end of each round
        self.fixed_rounds = None
        self.attempted = {}
        self.failed = {}
        self.notes = []
        self.check_failures = 0
        self.recorder = spans.Recorder() if traced else None
        self.op_total = {}        # op id -> raw seconds (traced runs)
        self.op_index = {}        # op id -> the meter's operation index
        self.extra = {}           # per-layer counts a workload adds
        self.peak_rss_mb = None
        # Layers with a wrapper target the program no longer has.
        self.unwrapped = spans.install(self.recorder) if traced else set()

    # -- accounting ------------------------------------------------------------

    def fail(self, kind, message):
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.notes) < 20:
            self.notes.append("{}: {}".format(kind, message))

    def check(self, condition, message):
        """A failed check fails the operation and makes the run incorrect."""
        if not condition:
            self.check_failures += 1
            raise CheckFailed(message)

    # -- timing ----------------------------------------------------------------

    def timed(self, kind, operation):
        """Run ``operation()`` as one timed operation of ``kind``.

        Returns its result; the reference loop runs right before and right
        after it.  In a traced run the operation is one span of the
        recorder.
        """
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        recorder = self.recorder
        before = calib.reference_seconds()
        if recorder is not None:
            span, parent = recorder.begin_op()
        started = perf_counter()
        try:
            return operation()
        finally:
            wall = perf_counter() - started
            if recorder is not None:
                recorder.end_op(span, parent)
                self.op_total[recorder.op] = span[2] - span[1]
            index = self.meter.add(kind, wall, before)
            if recorder is not None:
                self.op_index[recorder.op] = index

    def setup(self, build):
        """Time one set-up ``build()``, calibrated like an operation.

        The reference is the mean of the loops timed right before and
        right after it and of those ``build`` times through ``sample()``
        while it waits for another process.
        """
        self.setup_loops = [calib.reference_seconds()]
        started = perf_counter()
        result = build()
        wall = perf_counter() - started
        self.setup_loops.append(calib.reference_seconds())
        reference = statistics.mean(self.setup_loops)
        self.setup_loops = None
        self.setup_raw.append(wall)
        self.setup_cal.append(wall * calib.NOMINAL_REF_S / reference)
        return result

    def sample(self):
        """Time the reference loop once, while a set-up waits.

        A set-up that waits for another process (a server starting) lasts
        long enough for the machine to change speed within it (calib.py),
        so the loop runs all through the wait, not only at its two ends.
        """
        self.setup_loops.append(calib.reference_seconds())

    def rounds(self, fixed, peak_rss):
        """Round numbers until ``--seconds`` have passed and ``fixed`` are done.

        Every run does whole rounds of the same operations.  Throughput
        and peak memory (``peak_rss()``, in MB) are taken over the first
        ``fixed`` rounds, a stated amount of work rather than however many
        rounds the run's time held, so that they do not depend on how fast
        the machine was: memory that grows with every operation, and the
        garbage collections it causes, show by the same amount in every
        run.  ``fixed`` is chosen to end well within the run.
        """
        self.fixed_rounds = fixed
        deadline = perf_counter() + self.seconds
        done = 0
        while done < fixed or perf_counter() < deadline:
            yield done
            done += 1
            self.round_ends.append(len(self.meter.walls))
            if done == fixed:
                self.peak_rss_mb = peak_rss()

    # -- results ------------------------------------------------------------------

    def end_to_end(self, main, side, per_round, calibrated=True):
        """The end-to-end metrics from the samples of this run.

        ``main_p50_s`` is the median of the ``main`` operations, or with
        ``per_round`` the median over rounds of each round's mean
        operation time (for a round that mixes operations of very
        different cost, the median operation sits on a boundary between
        two kinds and jumps between them).
        """
        meter = self.meter
        main_values = meter.samples(main, calibrated)
        if len(main_values) < 200:
            print("livebench: only {} main samples; p95 has fewer than ten "
                  "beyond it".format(len(main_values)), file=sys.stderr)
        seconds = meter.seconds(calibrated)
        if per_round:
            starts = [0] + self.round_ends[:-1]
            p50 = statistics.median(
                sum(seconds[start:end]) / (end - start)
                for start, end in zip(starts, self.round_ends))
        else:
            p50 = statistics.median(main_values)
        fixed = seconds[:self.round_ends[self.fixed_rounds - 1]]
        return {
            "main_p50_s": (p50, "s"),
            "main_p95_s": (percentile(main_values, 0.95), "s"),
            "side_p50_s": (statistics.median(
                meter.samples(side, calibrated)), "s"),
            "ops_per_s": (len(fixed) / sum(fixed), "1/s"),
            "setup_s": (statistics.median(
                self.setup_cal if calibrated else self.setup_raw), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def ops_seen(self):
        return sorted(self.op_total)


def own_peak_rss():
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The largest share of the traced operations' total time that the
#: residual may take.  It is under 2 % on every workload; a wrapper that
#: stops seeing its layer's calls moves their time into the residual.
RESIDUAL_LIMIT = 0.1


def layer_metrics(run, expected, op_self, op_total, op_wire=None):
    """Per-layer metrics: mean calibrated self time per operation.

    ``expected`` maps an operation kind to the layers every operation of
    that kind runs; ``op_self`` maps each timed operation to its layers'
    raw self times, ``op_total`` to its raw total; ``op_wire`` (serving)
    to the part of the client's round trip the server did not see.
    Raises CheckFailed when an operation's parts do not sum to its total,
    when it has no span of a layer it is expected to run, or when the
    residual takes more than ``RESIDUAL_LIMIT`` of the total.  A layer
    whose wrapper target is gone (``run.unwrapped``) is not expected, and
    the residual is then not limited: it holds that layer's time.
    """
    ops = run.ops_seen()
    factors = run.meter.factors()
    sums = {layer: 0.0 for layer in spans.LAYERS}
    residual = wire = 0.0
    raw_residual = raw_total = 0.0
    for op in ops:
        index = run.op_index[op]
        factor = factors[index]
        parts = op_self.get(op, {})
        kind = run.meter.kinds[index]
        absent = [layer for layer in expected.get(kind, ())
                  if layer not in parts and layer not in run.unwrapped]
        run.check(not absent, "op {} ({}): no span of {}".format(
            op, kind, ", ".join(absent)))
        rest = parts.get(spans.OP, 0.0) + parts.get(spans.HTTP_LAYER, 0.0)
        here_wire = op_wire.get(op, 0.0) if op_wire is not None else 0.0
        total = rest + here_wire
        for layer in spans.LAYERS:
            seconds = parts.get(layer, 0.0)
            sums[layer] += seconds * factor
            total += seconds
        unknown = set(parts) - set(spans.LAYERS) - {spans.OP, spans.HTTP_LAYER}
        run.check(not unknown, "unknown spans {}".format(unknown))
        run.check(abs(total - op_total[op]) <= 1e-9 + 1e-9 * total,
                  "op {}: parts sum to {!r}, total {!r}".format(
                      op, total, op_total[op]))
        residual += rest * factor
        wire += here_wire * factor
        raw_residual += rest
        raw_total += op_total[op]
    if not run.unwrapped:
        run.check(raw_residual <= RESIDUAL_LIMIT * raw_total,
                  "the residual is {:.1%} of the total".format(
                      raw_residual / max(raw_total, 1e-12)))
    count = max(1, len(ops))
    metrics = {
        layer + "_s": (sums[layer] / count, "s") for layer in spans.LAYERS
    }
    metrics["serve.wire_s"] = (wire / count, "s")
    metrics["residual_s"] = (residual / count, "s")
    return metrics


def html_counts(recorder, ops):
    """Mean HTML bytes and boxes per ``render_html`` call within ``ops``."""
    calls = sum(recorder.counts.get("render.html_calls", {}).get(op, 0)
                for op in ops)
    total_bytes = sum(recorder.counts.get("render.html_bytes", {}).get(op, 0)
                      for op in ops)
    boxes = sum(recorder.counts.get("render.boxes", {}).get(op, 0)
                for op in ops)
    calls = max(1, calls)
    return {
        "render.html_bytes": (total_bytes / calls, "bytes"),
        "render.boxes": (boxes / calls, "count"),
    }
