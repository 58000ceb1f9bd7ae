"""Per-layer spans recorded from the benchmark's own code.

The traced run wraps each layer's public function at the name its caller
looks up (``repro.surface.compile.parse`` is the name ``compile_source``
calls), so the program itself is unchanged.  A span is ``[layer, start,
end, parent, op]``: ``parent`` indexes the enclosing span, ``op`` is the
operation the span belongs to.  Spans stay in memory until the run ends.

A layer's self time in an operation is the time its spans cover minus
the time their child spans cover.  The operation's own span (the
benchmark's glue plus every piece of the program that no layer names)
keeps the rest, which is reported as ``residual``; so for every
operation the layer self times plus the residual sum to its total.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

#: Where each layer is timed: (layer, module, attribute at which the
#: caller looks the function up).  A ``Class.method`` attribute wraps the
#: method on the class.
TARGETS = (
    ("surface.parse", "repro.surface.compile", "parse"),
    ("surface.typecheck", "repro.surface.compile", "typecheck_problems"),
    ("surface.lower", "repro.surface.compile", "lower_program"),
    ("surface.sourcemap", "repro.surface.compile", "build_sourcemap"),
    ("typing.core_check", "repro.surface.compile", "code_problems"),
    ("typing.core_check", "repro.system.transitions", "code_problems"),
    ("system.update", "repro.system.transitions", "System.update"),
    ("system.event", "repro.system.transitions", "System.tap"),
    ("system.event", "repro.system.transitions", "System.edit"),
    ("system.event", "repro.system.transitions", "System.back"),
    ("system.event", "repro.system.transitions", "System.handle_next_event"),
    ("system.render", "repro.system.transitions", "System.render"),
    ("render.html", "repro.render", "render_html"),
    ("render.html", "repro.serve.host", "render_html"),
    ("render.fingerprint", "repro.serve.host", "display_fingerprint"),
    ("boxes.reuse", "repro.boxes.diff", "reuse"),
    ("persist.save", "repro.serve.host", "save_image"),
    ("persist.load", "repro.serve.host", "load_image"),
    ("resilience.journal", "repro.resilience.journal", "Journal.record_create"),
    ("resilience.journal", "repro.resilience.journal", "Journal.record_event"),
    ("resilience.journal", "repro.resilience.journal",
     "Journal.record_checkpoint"),
    ("resilience.journal", "repro.resilience.journal",
     "Journal.record_destroy"),
    ("serve.protocol", "repro.serve.app", "handle_request"),
)

#: Every layer a span can name, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _module, _name in TARGETS))

#: The server's request handler: its span is the server's total for one
#: request and opens a new operation.
HTTP_LAYER = "serve.http"

#: The span of one operation as the benchmark times it.
OP = "op"


class Recorder:
    """Spans and per-operation counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}      # name -> {op: value}
        self.op = 0           # the last operation begun
        self.current = 0      # the operation new spans belong to; 0: none
        self._open = threading.local()   # .span: index of the open span

    def enter(self, layer):
        parent = getattr(self._open, "span", None)
        span = [layer, perf_counter(), 0.0, parent, self.current]
        self.spans.append(span)
        self._open.span = len(self.spans) - 1
        return span, parent

    def leave(self, span, parent):
        span[2] = perf_counter()
        self._open.span = parent

    def count(self, name, value):
        per_op = self.counts.setdefault(name, {})
        per_op[self.current] = per_op.get(self.current, 0) + value

    def begin_op(self, layer=OP):
        """Open the next operation's span; returns ``(span, parent)``."""
        self.op += 1
        self.current = self.op
        return self.enter(layer)

    def end_op(self, span, parent):
        self.leave(span, parent)
        self.current = 0

    def self_times(self):
        """``{op: {layer: self seconds}}``; the op span's self time is ``OP``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        result = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            per_layer = result.setdefault(op, {})
            per_layer[name] = per_layer.get(name, 0.0) \
                + (end - start) - covered[index]
        return result

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": {
                name: {str(op): value for op, value in per_op.items()}
                for name, per_op in self.counts.items()
            }}, handle)

    @staticmethod
    def load(path):
        with open(path) as handle:
            data = json.load(handle)
        recorder = Recorder()
        recorder.spans = data["spans"]
        recorder.counts = {
            name: {int(op): value for op, value in per_op.items()}
            for name, per_op in data["counts"].items()
        }
        return recorder


def _wrap(recorder, layer, function, on_result=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        span, parent = recorder.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.leave(span, parent)
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _count_html(recorder):
    def on_result(document):
        if isinstance(document, str):
            recorder.count("render.html_bytes", len(document.encode("utf-8")))
            recorder.count("render.boxes", document.count("<div"))
            recorder.count("render.html_calls", 1)

    return on_result


def _wrap_handler_factory(recorder, make_handler):
    """Wrap the HTTP handler class's ``do_POST``: one request, one operation."""

    @functools.wraps(make_handler)
    def traced_factory(*args, **kwargs):
        handler = make_handler(*args, **kwargs)
        do_post = handler.do_POST

        def traced_post(self):
            span, parent = recorder.begin_op(HTTP_LAYER)
            try:
                return do_post(self)
            finally:
                recorder.end_op(span, parent)

        handler.do_POST = traced_post
        return handler

    return traced_factory


def install(recorder, server=False):
    """Wrap every target that exists; returns the layers with one that does not.

    A target renamed or removed by a later change of the program is
    skipped, so its layer reads zero, or only what its other targets see,
    rather than breaking the benchmark; the checks that expect the layer's
    spans leave it out.
    ``server`` also wraps the HTTP handler, for the server process.
    """
    missing = []
    unwrapped = set()
    for layer, module_name, attribute in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name + "." + attribute)
            unwrapped.add(layer)
            continue
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        function = getattr(owner, name, None) if owner is not None else None
        if not callable(function):
            missing.append(module_name + "." + attribute)
            unwrapped.add(layer)
            continue
        on_result = _count_html(recorder) if layer == "render.html" else None
        setattr(owner, name, _wrap(recorder, layer, function, on_result))
    if server:
        try:
            app = importlib.import_module("repro.serve.app")
            app.make_handler = _wrap_handler_factory(
                recorder, app.make_handler
            )
        except (ImportError, AttributeError):
            missing.append("repro.serve.app.make_handler")
            unwrapped.add(HTTP_LAYER)
    for name in missing:
        print("livebench: not traced (missing): " + name, file=sys.stderr)
    return unwrapped
