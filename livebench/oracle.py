"""Computations made apart from the program, against which its output is checked.

Nothing here imports ``repro``: the mortgage arithmetic, the way a number
is shown on screen, the expected page texts and the HTML text extraction
are written from the paper's description of the app (Figs. 1, 4 and 5)
and from the HTML the program emits, not from the program's code.
"""

from __future__ import annotations

import math
from html.parser import HTMLParser


# -- the mortgage app's arithmetic --------------------------------------------

def monthly_payment(price, years, apr):
    """The annuity payment for ``price`` over ``years`` at ``apr`` percent."""
    rate = apr / 1200.0
    months = years * 12
    if rate == 0:
        return price / months
    return price * rate / (1.0 - (1.0 + rate) ** -months)


def yearly_balances(price, years, apr):
    """The app's schedule: ``b ← max(0, b·(1+apr/100) − 12·monthly)`` per year."""
    yearly = 12.0 * monthly_payment(price, years, apr)
    growth = 1.0 + apr / 100.0
    balance = float(price)
    balances = []
    for _ in range(int(years)):
        balance = max(0.0, balance * growth - yearly)
        balances.append(balance)
    return balances


def shown_number(value):
    """A number as the display shows it: integral values without ``.0``."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- HTML text extraction ----------------------------------------------------------

class _Texts(HTMLParser):
    def __init__(self):
        HTMLParser.__init__(self, convert_charrefs=True)
        self.texts = []
        self._in_span = False
        self._parts = []

    def handle_starttag(self, tag, attrs):
        if tag == "span":
            self._in_span = True
            self._parts = []

    def handle_endtag(self, tag):
        if tag == "span" and self._in_span:
            self.texts.append("".join(self._parts))
            self._in_span = False

    def handle_data(self, data):
        if self._in_span:
            self._parts.append(data)


def html_texts(document):
    """Every posted text of an HTML display, in document order."""
    parser = _Texts()
    parser.feed(document)
    parser.close()
    return parser.texts


# -- the pages -----------------------------------------------------------------------

def start_texts(header, listings, new_box=None):
    """The start page: the two header boxes, an optional typed box, the listings.

    ``listings`` is a sequence of ``(title, price_text)`` pairs as the
    first start page showed them.
    """
    texts = ["House", header]
    if new_box is not None:
        texts.append(new_box)
    for title, price_text in listings:
        texts.append(title)
        texts.append(price_text)
    return texts


def detail_problems(texts, title, price, term, apr):
    """Differences between a shown detail page and the oracle's schedule.

    Returns a list of strings, empty when the page is right.  The payment
    is shown rounded to cents and is accepted within half a cent; each
    balance is accepted within a relative 1e-9 (floating-point operations
    may be ordered differently).
    """
    problems = []
    fixed = [
        title,
        "price: $" + shown_number(price),
        "term (years): ",
        shown_number(term),
        "APR %: ",
        shown_number(apr),
    ]
    rows = int(term)
    expected_len = len(fixed) + 1 + 2 * rows + 1
    if len(texts) != expected_len:
        return ["detail page has {} texts, expected {} ({} rows)".format(
            len(texts), expected_len, rows)]
    for index, want in enumerate(fixed):
        if texts[index] != want:
            problems.append("text {}: {!r} != {!r}".format(
                index, texts[index], want))
    pay_text = texts[len(fixed)]
    prefix = "monthly payment: $"
    want_pay = monthly_payment(price, term, apr)
    if not pay_text.startswith(prefix):
        problems.append("payment text {!r}".format(pay_text))
    else:
        shown = _number(pay_text[len(prefix):])
        digits = pay_text[len(prefix):].partition(".")[2]
        if shown is None or len(digits) != 2 or \
                abs(shown - want_pay) > 0.005 + 1e-9:
            problems.append("payment {!r}, oracle {:.4f}".format(
                pay_text, want_pay))
    balances = yearly_balances(price, term, apr)
    base = len(fixed) + 1
    for year in range(rows):
        label = texts[base + 2 * year]
        cell = texts[base + 2 * year + 1]
        if label != "year {}".format(year + 1):
            problems.append("row {} label {!r}".format(year + 1, label))
        want = balances[year]
        shown = _number(cell[len("balance: "):]) \
            if cell.startswith("balance: ") else None
        if shown is None or not math.isclose(
                shown, want, rel_tol=1e-9, abs_tol=1e-6):
            problems.append("row {} {!r}, oracle {!r}".format(
                year + 1, cell, want))
    if texts[-1] != "back":
        problems.append("last text {!r}".format(texts[-1]))
    return problems


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


# -- the typing programmer -------------------------------------------------------------

#: Characters the programmer types inside string literals: none needs
#: escaping, so every prefix of a typed literal is a well-formed literal.
LITERAL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


def new_box_keys(word, indent):
    """The keystrokes that type a new box under the header, one per key.

    Enter is one keystroke that also inserts the editor's auto-indent;
    every other keystroke is one character.
    """
    keys = ["\n" + " " * indent]
    keys.extend("boxed")
    keys.append("\n" + " " * (indent + 2))
    keys.extend('post "' + word + '"')
    return keys


def new_box_outcome(typed):
    """What the program must do with ``typed`` inserted after the header line.

    ``typed`` is a prefix of the new-box text.  A prefix that only opened
    a new line is a blank line, so it applies and changes nothing; the
    full text adds one box showing the word; every other prefix is an
    incomplete statement and is rejected.  Returns ``("applied", word)``
    (``word`` is None for a blank line) or ``("rejected", None)``.
    """
    if typed.strip() == "":
        return "applied", None
    lines = typed.split("\n")
    if len(lines) == 3 and lines[1].strip() == "boxed":
        post = lines[2].strip()
        if post.startswith('post "') and post.endswith('"') \
                and len(post) >= len('post ""') and post.count('"') == 2:
            return "applied", post[len('post "'):-1]
    return "rejected", None
