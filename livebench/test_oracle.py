"""Tests of the benchmark's oracles (plain Python, no ``repro`` import).

    python3 -m pytest livebench -q
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from inproc import _there_and_back  # noqa: E402


def test_hand_computed_mortgage():
    # $335,000 at 4.5% over 30 years, worked by hand: r = 0.00375,
    # (1 + r)^360 = 3.84769, payment = 1256.25 / (1 - 1 / 3.84769)
    # = 1697.40; year 1: 335000 * 1.045 - 12 * 1697.3958 = 329706.25.
    assert round(oracle.monthly_payment(335000, 30, 4.5), 2) == 1697.40
    first = oracle.yearly_balances(335000, 30, 4.5)[0]
    assert round(first, 2) == 329706.25
    assert abs(first - (335000 * 1.045 - 12 * 1697.3958)) < 0.01


def test_balances_fall_every_year_and_never_below_zero():
    # The app compounds yearly but pays the monthly-compounded annuity, so
    # a positive rate leaves a balance after the last year.
    balances = oracle.yearly_balances(100000, 30, 6)
    assert len(balances) == 30
    assert all(a > b > 0 for a, b in zip(balances, balances[1:]))
    # At 0% the payments repay the price exactly; the clamp holds at 0.
    assert oracle.yearly_balances(1200, 10, 0)[-1] == 0
    assert min(oracle.yearly_balances(1200, 10, 0)) >= 0


def test_zero_rate_is_straight_line():
    assert oracle.monthly_payment(1200, 10, 0) == 10


def test_shown_number():
    assert oracle.shown_number(335000.0) == "335000"
    assert oracle.shown_number(4.5) == "4.5"
    assert oracle.shown_number(2.125) == "2.125"


def test_html_texts_unescapes_and_skips_markup():
    document = (
        '<!DOCTYPE html>\n<html><head><title>t &amp; t</title></head><body>'
        '<div style="x"><span>a &amp; b</span>'
        '<div data-ontap="1"><span>&lt;c&gt;</span></div>'
        '<span></span></div></body></html>'
    )
    assert oracle.html_texts(document) == ["a & b", "<c>", ""]


def _detail(price, term, apr, payment=None, balances=None):
    payment = oracle.monthly_payment(price, term, apr) \
        if payment is None else payment
    balances = balances or oracle.yearly_balances(price, term, apr)
    texts = ["1 Elm St, Kent", "price: $" + oracle.shown_number(price),
             "term (years): ", oracle.shown_number(term), "APR %: ",
             oracle.shown_number(apr),
             "monthly payment: ${:.2f}".format(payment)]
    for year, balance in enumerate(balances, 1):
        texts += ["year {}".format(year), "balance: " + repr(balance)]
    return texts + ["back"]


def test_detail_page_accepted_when_right():
    texts = _detail(335000, 30, 4.5)
    assert texts[6] == "monthly payment: $1697.40"
    assert oracle.detail_problems(texts, "1 Elm St, Kent", 335000, 30,
                                  4.5) == []


def test_detail_page_wrong_payment_row_or_length_caught():
    right = oracle.yearly_balances(335000, 30, 4.5)
    wrong_payment = _detail(335000, 30, 4.5, payment=1697.42)
    assert oracle.detail_problems(wrong_payment, "1 Elm St, Kent", 335000,
                                  30, 4.5)
    wrong_row = _detail(335000, 30, 4.5,
                        balances=right[:9] + [right[9] + 1] + right[10:])
    assert oracle.detail_problems(wrong_row, "1 Elm St, Kent", 335000,
                                  30, 4.5)
    short = _detail(335000, 30, 4.5, balances=right[:29])
    assert oracle.detail_problems(short, "1 Elm St, Kent", 335000, 30, 4.5)


def test_literal_typing_states():
    assert _there_and_back(list("ab")) == ["a", "ab", "a", ""]


def test_new_box_outcomes():
    keys = oracle.new_box_keys("ab", 4)
    states = _there_and_back(keys)
    outcomes = [oracle.new_box_outcome(typed) for typed in states]
    assert len(states) == 2 * len(keys)
    # Enter alone is a blank line; the finished line adds the box; the
    # way back passes the same states; the last backspace restores.
    applied = [(typed, word) for typed, (status, word)
               in zip(states, outcomes) if status == "applied"]
    assert applied == [
        ("\n    ", None),
        ('\n    boxed\n      post "ab"', "ab"),
        ("\n    ", None),
        ("", None),
    ]
    assert oracle.new_box_outcome("\n    boxed")[0] == "rejected"
    assert oracle.new_box_outcome('\n    boxed\n      post "a')[0] \
        == "rejected"


def test_start_page_texts():
    listings = [("1 Elm St, Kent", "$100")]
    assert oracle.start_texts("Hunting", listings) == [
        "House", "Hunting", "1 Elm St, Kent", "$100"]
    assert oracle.start_texts("Hunting", listings, "abcd")[2] == "abcd"
