"""The in-process workloads: a programmer typing, a user tapping.

Both drive one ``LiveSession`` on the paper's mortgage app with the
program's default settings and turn every display into HTML through
``render_html``, as a live view would.
"""

from __future__ import annotations

import oracle
from common import CheckFailed, own_peak_rss

#: Set-ups per run, after one that only warms imports and is not reported.
SETUP_REPEATS = 15
#: The schedule length; the workloads never edit ``term``, so every
#: detail page draws the same number of rows.
TERM = 30
#: The app's initial APR (percent), as the paper's screens show it.
INITIAL_APR = 4.5
#: Characters typed into the header literal per round, and the length of
#: the word typed into the new box: fixed, so every round holds the same
#: operations and only their text depends on the seed.
LITERAL_KEYS = 10
WORD_LETTERS = 3
#: Rounds over which throughput and peak memory are measured (see
#: common.Run.rounds): about two thirds of a 30-second run here.
TYPE_ROUNDS = 24
USE_ROUNDS = 120
#: APRs the user types: 2% to 9% in eighths, never 0 (another code path).
APR_CHOICES = tuple(2 + k / 8 for k in range(57))

#: The layers every operation of a kind runs (checked in the traced run).
TYPE_LAYERS = {
    "display": ("surface.parse", "typing.core_check", "system.update",
                "system.render", "render.html"),
    "reject": ("surface.parse",),
}
USE_LAYERS = {
    kind: ("system.event", "system.render", "render.html")
    for kind in ("tap", "apr", "back")
}

#: Paths into the app's pages (root item indexes): the listing container
#: of the start page, and the APR box of the detail page.
LISTINGS_PATH = (1,)
APR_PATH = (3, 1)


def _start(run):
    """Set the session up several times.

    Returns the app's source, the last session, its HTML, the listings as
    ``(title, price text)`` pairs read from that HTML, and ``render_html``.
    """
    from repro import LiveSession
    from repro.apps.mortgage import BASE_SOURCE, host_impls
    from repro.render import render_html
    from repro.stdlib.web import make_services

    def build():
        session = LiveSession(
            BASE_SOURCE, host_impls=host_impls(), services=make_services()
        )
        return session, render_html(session.display)

    build()  # warm imports and lazy caches; users pay these once
    for _ in range(SETUP_REPEATS):
        session, html = run.setup(build)
    texts = oracle.html_texts(html)
    if texts[:2] != ["House", "Hunting"] or len(texts) % 2:
        raise CheckFailed("unexpected start page: {!r}".format(texts[:4]))
    listings = list(zip(texts[2::2], texts[3::2]))
    return BASE_SOURCE, session, html, listings, render_html


def type_mortgage(run):
    """Type into the start page's header literal and a new box, then delete."""
    from repro import SyntaxProblem, TypeProblem

    source, session, html, listings, render_html = _start(run)
    anchor = 'post "Hunting"'
    if source.count(anchor) != 1:
        raise CheckFailed("the header literal is not in the app's source")
    literal_at = source.index(anchor) + len(anchor) - 1
    line_end = source.index("\n", literal_at)
    header_line = source[:literal_at].count("\n") + 1
    line_start = source.rindex("\n", 0, literal_at) + 1
    indent = len(source[line_start:literal_at]) - len(
        source[line_start:literal_at].lstrip(" ")) - 4
    shown = html
    counts = {"memo_hits": 0, "memo_misses": 0}

    def keystroke(new_source, expect, header, new_box, typed):
        nonlocal shown
        kind = "display" if expect == "applied" else "reject"

        def operation():
            result = session.edit_source(new_source)
            document = render_html(session.display) if result.applied \
                else None
            return result, document

        try:
            result, document = run.timed(kind, operation)
            run.check(result.status == expect, "{!r} after typing {!r}, "
                      "expected {}".format(result.status, typed, expect))
            if result.applied:
                counts["memo_hits"] += result.memo_hits
                counts["memo_misses"] += result.memo_misses
                want = oracle.start_texts(header, listings, new_box)
                got = oracle.html_texts(document)
                run.check(got == want, "display {!r} != {!r}".format(
                    got[:4], want[:4]))
                shown = document
            else:
                problem = result.problems[0] if result.problems else None
                run.check(isinstance(problem, (SyntaxProblem, TypeProblem)),
                          "untyped diagnostic {!r}".format(problem))
                line = problem.span.start.line
                last = header_line + typed.count("\n")
                run.check(header_line + 1 <= line <= last + 1,
                          "problem at line {} for typed lines {}-{}".format(
                              line, header_line + 1, last))
                run.check(render_html(session.display) == shown,
                          "a rejected keystroke changed the display")
        except CheckFailed as failure:
            run.fail(kind, failure)
        except Exception as error:  # an untyped exception is a failure
            run.fail(kind, "{}: {}".format(type(error).__name__, error))

    for _round in run.rounds(TYPE_ROUNDS, own_peak_rss):
        letters = [run.rng.choice(oracle.LITERAL_ALPHABET)
                   for _ in range(LITERAL_KEYS)]
        for typed in _there_and_back(letters):
            keystroke(source[:literal_at] + typed + source[literal_at:],
                      "applied", "Hunting" + typed, None, "")
        word = "".join(run.rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(WORD_LETTERS))
        for typed in _there_and_back(oracle.new_box_keys(word, indent)):
            expect, new_box = oracle.new_box_outcome(typed)
            keystroke(source[:line_end] + typed + source[line_end:],
                      expect, "Hunting", new_box, typed)
    run.extra.update(counts)
    return ["display"], ["reject"], False


def _there_and_back(keys):
    """Every text state while typing ``keys`` and then deleting them."""
    states = []
    typed = ""
    for key in keys:
        typed += key
        states.append(typed)
    return states + states[-2::-1] + [""]


def use_mortgage(run):
    """Tap a listing, type an APR, press back: no source edits."""
    _source, session, _html, listings, render_html = _start(run)
    apr = INITIAL_APR
    start_texts = oracle.start_texts("Hunting", listings)

    def interaction(kind, operation, check):
        try:
            document = run.timed(kind, operation)
            check(oracle.html_texts(document))
        except CheckFailed as failure:
            run.fail(kind, failure)
        except Exception as error:  # an untyped exception is a failure
            run.fail(kind, "{}: {}".format(type(error).__name__, error))

    for _round in run.rounds(USE_ROUNDS, own_peak_rss):
        index = run.rng.randrange(len(listings))
        title, price_text = listings[index]
        price = float(price_text.lstrip("$"))
        new_apr = run.rng.choice([a for a in APR_CHOICES if a != apr])

        def tap():
            session.tap(LISTINGS_PATH + (index,))
            return render_html(session.display)

        def edit():
            session.edit_box(APR_PATH, oracle.shown_number(new_apr))
            return render_html(session.display)

        def back():
            session.back()
            return render_html(session.display)

        def detail_check(rate):
            def check(texts):
                problems = oracle.detail_problems(
                    texts, title, price, TERM, rate)
                run.check(not problems, "; ".join(problems[:3]))
            return check

        interaction("tap", tap, detail_check(apr))
        apr = new_apr
        interaction("apr", edit, detail_check(apr))
        interaction("back", back, lambda texts: run.check(
            texts == start_texts, "start page {!r}".format(texts[:4])))
    return ["tap", "apr"], ["back"], False
