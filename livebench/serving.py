"""The serving workload: one keep-alive HTTP client driving ``repro serve``.

The server runs the mortgage app with a journal and a session pool
smaller than the number of sessions, and otherwise the CLI's defaults.
Every round works on the next session in turn; with three sessions and a
pool of two, that session was evicted by the round before, so the
round's first request rehydrates it from its image.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from time import perf_counter

import oracle
from common import CheckFailed, ROOT, SRC, WORK, html_counts, layer_metrics
from inproc import APR_CHOICES, APR_PATH, INITIAL_APR, LISTINGS_PATH, TERM

SESSIONS = 3
POOL_SIZE = 2
#: Rounds over which throughput and peak memory are measured (see
#: common.Run.rounds): about two thirds of a 30-second run here.
SERVE_ROUNDS = 100
#: Server set-ups per run; the last server serves the timed part.  A
#: single start varies by about 10 % within a run, so the median takes
#: several.
SETUP_SERVERS = 9
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: The layers every request of a kind runs (checked in the traced run).
EXPECTED_LAYERS = {
    "render": ("serve.protocol",),
    "tap": ("serve.protocol", "system.event", "system.render",
            "resilience.journal"),
    "edit_box": ("serve.protocol", "system.event", "system.render",
                 "resilience.journal"),
    "back": ("serve.protocol", "system.event", "system.render",
             "resilience.journal"),
    "edit_source": ("serve.protocol", "surface.parse", "typing.core_check",
                    "system.update", "resilience.journal"),
}
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launcher.py")


class Server:
    """A ``repro serve`` subprocess and one keep-alive connection to it."""

    def __init__(self, app, journal, spans_out=None, idle=None):
        port_file = os.path.join(WORK, "serve.port")
        if os.path.exists(port_file):
            os.remove(port_file)
        args = ["serve", app, "--port", "0", "--port-file", port_file,
                "--journal-dir", journal, "--pool-size", str(POOL_SIZE)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, LAUNCHER, spans_out] + args
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(WORK, "serve.log"), "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self.log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self.sent = 0
        self.connection = None
        try:
            port = self._wait_for_port(port_file, idle)
        except BaseException:
            self.stop()
            raise
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=STOP_TIMEOUT_S)

    def _wait_for_port(self, port_file, idle):
        """The port the server listens on; ``idle()`` runs between polls."""
        deadline = perf_counter() + START_TIMEOUT_S
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise CheckFailed("repro serve exited with {} (see {})"
                                  .format(self.process.returncode,
                                          self.log.name))
            try:
                with open(port_file) as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.strip():
                return int(text)
            if idle is not None:
                idle()
            else:
                time.sleep(0.002)
        raise CheckFailed("repro serve did not listen within {} s".format(
            START_TIMEOUT_S))

    def post(self, request):
        """One round trip: ``(HTTP status, decoded response)``."""
        body = json.dumps(request).encode("utf-8")
        self.sent += 1
        self.connection.request(
            "POST", "/", body, {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, response.read()

    def peak_rss_mb(self):
        """The server process's peak resident set size (``VmHWM``), in MB."""
        with open("/proc/{}/status".format(self.process.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for the server process")

    def stop(self):
        """SIGTERM (graceful: drains, closes the journal), then wait."""
        if self.connection is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        return self.process.returncode


def _decode(run, status, raw):
    payload = json.loads(raw)
    run.check(status == 200 and payload.get("ok") is True,
              "HTTP {}: {}".format(status, payload.get("error")))
    return payload


class Client:
    """The client's view of each session and its checks."""

    def __init__(self, run, server, source, listings):
        self.run = run
        self.server = server
        self.source = source
        self.listings = listings
        self.sessions = []
        self.memo = [0, 0]
        self.op_request = {}      # client op id -> server request number
        self.last_kind = None

    def untimed(self, request):
        return _decode(self.run, *self.server.post(request))

    def timed(self, kind, request):
        run = self.run
        server = self.server
        self.last_kind = kind
        status, raw = run.timed(kind, lambda: server.post(request))
        if run.recorder is not None:
            self.op_request[run.recorder.op] = server.sent
        return _decode(run, status, raw)

    def create(self):
        token = self.untimed({"op": "create"})["token"]
        payload = self.untimed({"op": "render", "token": token})
        state = {"token": token, "generation": payload["generation"],
                 "html": payload["html"], "header": "Hunting",
                 "apr": INITIAL_APR}
        self.sessions.append(state)
        return state, oracle.html_texts(payload["html"])

    def render(self, state, changed, check=None):
        payload = self.timed("render", {
            "op": "render", "token": state["token"],
            "generation": state["generation"]})
        run = self.run
        if not changed:
            run.check(payload.get("not_modified") is True and
                      payload["generation"] == state["generation"],
                      "an unchanged session answered {!r}".format(
                          {k: v for k, v in payload.items() if k != "html"}))
            return
        run.check("html" in payload and
                  payload["generation"] > state["generation"],
                  "generation {} did not rise past {}".format(
                      payload.get("generation"), state["generation"]))
        state["generation"] = payload["generation"]
        state["html"] = payload["html"]
        check(oracle.html_texts(payload["html"]))

    def round(self, state):
        """The round's ten requests on one session."""
        run = self.run
        rng = run.rng
        token = state["token"]
        index = rng.randrange(len(self.listings))
        title, price_text = self.listings[index]
        price = float(price_text.lstrip("$"))
        new_apr = rng.choice([a for a in APR_CHOICES if a != state["apr"]])
        word = state["header"]
        while word == state["header"]:
            word = "Hunting " + "".join(
                rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))

        def detail(rate):
            def check(texts):
                problems = oracle.detail_problems(
                    texts, title, price, TERM, rate)
                run.check(not problems, "; ".join(problems[:3]))
            return check

        def start(header):
            want = oracle.start_texts(header, self.listings)
            return lambda texts: run.check(
                texts == want, "start page {!r}".format(texts[:4]))

        self.render(state, changed=False)
        page = self.timed("tap", {"op": "tap", "token": token,
                                  "path": list(LISTINGS_PATH) + [index]})
        run.check(page.get("page") == "detail", "tap: page {!r}".format(
            page.get("page")))
        self.render(state, True, detail(state["apr"]))
        self.timed("edit_box", {"op": "edit_box", "token": token,
                                "path": list(APR_PATH),
                                "text": oracle.shown_number(new_apr)})
        state["apr"] = new_apr
        self.render(state, True, detail(new_apr))
        self.render(state, changed=False)
        page = self.timed("back", {"op": "back", "token": token})
        run.check(page.get("page") == "start", "back: page {!r}".format(
            page.get("page")))
        self.render(state, True, start(state["header"]))
        edited = self.timed("edit_source", {
            "op": "edit_source", "token": token,
            "source": self.source.replace('post "Hunting"',
                                          'post "{}"'.format(word))})
        run.check(edited.get("status") == "applied",
                  "edit_source: {!r}".format(edited.get("status")))
        self.memo[0] += edited.get("memo_hits", 0)
        self.memo[1] += edited.get("memo_misses", 0)
        state["header"] = word
        self.render(state, True, start(word))


def _describe(error):
    if isinstance(error, CheckFailed):
        return str(error)
    return "{}: {}".format(type(error).__name__, error)


def _journal_bytes(journal):
    total = 0
    for folder, _dirs, files in os.walk(journal):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def serve_mix(run):
    from repro.apps.mortgage import BASE_SOURCE

    if BASE_SOURCE.count('post "Hunting"') != 1:
        raise CheckFailed("the header literal is not in the app's source")
    app = os.path.join(WORK, "mortgage.live")
    with open(app, "w") as handle:
        handle.write(BASE_SOURCE)
    journal = os.path.join(WORK, "serve-journal")
    spans_out = os.path.join(WORK, "serve-spans.json") if run.traced \
        else None
    if spans_out is not None and os.path.exists(spans_out):
        os.remove(spans_out)
    client = None

    def set_up():
        shutil.rmtree(journal, ignore_errors=True)
        server = Server(app, journal, spans_out, idle=run.sample)
        try:
            made = Client(run, server, BASE_SOURCE, None)
            for _ in range(SESSIONS):
                _state, texts = made.create()
        except BaseException:
            server.stop()
            raise
        return made, texts

    for _ in range(SETUP_SERVERS):
        if client is not None:
            client.server.stop()
        client, texts = run.setup(set_up)
    server = client.server
    try:
        run.check(texts[:2] == ["House", "Hunting"] and len(texts) % 2 == 0,
                  "unexpected start page {!r}".format(texts[:4]))
        client.listings = list(zip(texts[2::2], texts[3::2]))
        journal_before = _journal_bytes(journal)
        requests_before = server.sent
        for rounds in run.rounds(SERVE_ROUNDS, server.peak_rss_mb):
            state = client.sessions[rounds % SESSIONS]
            try:
                client.round(state)
            except Exception as error:  # an untyped exception is a failure
                run.fail(client.last_kind, _describe(error))
                # The connection and the session's view are unknown now:
                # reconnect and re-read it untimed.  Only a server that
                # no longer answers ends the run.
                server.connection.close()
                payload = client.untimed({"op": "render",
                                          "token": state["token"]})
                state["generation"] = payload["generation"]
                state["html"] = payload["html"]
        timed_requests = server.sent - requests_before
        journal_after = _journal_bytes(journal)
    finally:
        status = server.stop()
    run.check(status == 0, "repro serve exited with {}".format(status))
    run.extra.update({
        "memo": client.memo,
        "op_request": client.op_request,
        "journal_bytes_per_op": (journal_after - journal_before)
        / max(1, timed_requests),
        "journal_mb": journal_after / 1e6,
        "spans_out": spans_out,
    })
    _check_recovery(run, app, journal, client.sessions)
    return ["render", "tap", "edit_box", "back", "edit_source"], \
        ["edit_source"], True


def _check_recovery(run, app, journal, sessions):
    """Restart on the same journal: every session's HTML must be byte-identical."""
    server = Server(app, journal)
    try:
        for state in sessions:
            run.attempted["recover"] = run.attempted.get("recover", 0) + 1
            try:
                payload = _decode(run, *server.post(
                    {"op": "render", "token": state["token"]}))
                run.check(payload.get("html") == state["html"],
                          "recovered HTML of {} differs from its last "
                          "served render".format(state["token"]))
            except Exception as error:  # an untyped exception is a failure
                run.fail("recover", _describe(error))
                server.connection.close()
    finally:
        server.stop()


def layer_split(run):
    """The per-layer split of the timed requests, from both processes."""
    from spans import HTTP_LAYER, Recorder

    server = Recorder.load(run.extra["spans_out"])
    server_self = server.self_times()
    server_total = {}
    loads = {}
    for name, start, end, _parent, op in server.spans:
        if name == HTTP_LAYER:
            server_total[op] = server_total.get(op, 0.0) + end - start
        elif name == "persist.load":
            loads[op] = loads.get(op, 0) + 1
    op_request = run.extra["op_request"]
    op_self = {}
    op_wire = {}
    for op in run.ops_seen():
        request = op_request[op]
        op_self[op] = server_self.get(request, {})
        op_wire[op] = run.op_total[op] - server_total.get(request, 0.0)
    metrics = layer_metrics(run, EXPECTED_LAYERS, op_self, run.op_total,
                            op_wire)
    requests = [op_request[op] for op in run.ops_seen()]
    metrics.update(html_counts(server, requests))
    hits, misses = run.extra["memo"]
    metrics["incremental.memo_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["serve.rehydrate_share"] = (
        sum(loads.get(r, 0) for r in requests) / max(1, len(requests)),
        "ratio")
    metrics["resilience.journal_bytes_per_op"] = (
        run.extra["journal_bytes_per_op"], "bytes")
    metrics["resilience.journal_mb"] = (run.extra["journal_mb"], "MB")
    return metrics
