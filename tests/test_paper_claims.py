"""The reproduced paper points, pinned to their exact charged I/Os.

The paper benches (``benchmarks/bench_thm1_case{1,2,3}.py``,
``bench_thm2_buffered.py``, ``bench_lemma5_logmethod.py`` and
``bench_fig1_tradeoff.py``) print the reproduced tables and check their
shapes under ``make bench-all``.  These tests run the same points
through the same helpers (``benchmarks/paper_points.py``) and pin each
run's ledger — charged reads, writes and combined read-modify-writes,
never rounded ratios — so a change that bends a reproduced curve fails
tier-1.  A change that moves a point on purpose updates its golden here
and records the old value, the new value and the reason in CHANGES.md.

Ledger layouts (see ``paper_points``):

* Theorem 1 cases 1–2: ``(reads, writes, combined, certified, charged
  items)``, where ``certified`` sums the rounds' certified lower bounds;
* Theorem 1 case 3 and Lemma 5's n sweep: ``(reads, writes, combined)``
  after the inserts;
* Theorem 2 and Lemma 5's γ sweep: ``(reads, writes, combined)`` after
  the inserts, then again after the query phase;
* Figure 1: ``(insertion I/Os, reads, writes, combined)``, the last
  three after the query phase.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))

import paper_points as pp  # noqa: E402


THM1_CASE1 = {
    1.25: (3763, 0, 3763, 329, 400),
    1.5: (3628, 0, 3628, 661, 800),
    2.0: (4000, 0, 4000, 1633, 2000),
}

THM1_CASE2 = {
    2.0: (3984, 0, 3984, 1920, 1984),
    4.0: (4000, 0, 4000, 2912, 3000),
    8.0: (4000, 0, 4000, 3395, 3500),
}

THM1_CASE3 = {
    32: (4868, 992, 4388),
    64: (2873, 480, 2649),
    128: (1515, 224, 1419),
    256: (980, 96, 948),
}

THM2 = {
    "exponent": {
        "c=0.25": (1756, 480, 1532, 2761, 480, 1532),
        "c=0.5": (2897, 480, 2673, 3937, 480, 2673),
        "c=0.75": (4058, 480, 3834, 5039, 480, 3834),
    },
    "epsilon": {
        "eps=0.25": (2897, 480, 2673, 3937, 480, 2673),
        "eps=0.5": (3738, 480, 3514, 4718, 480, 3514),
        "eps=1.0": (4422, 480, 4198, 5394, 480, 4198),
    },
    "family": {
        "multiply-shift": (2897, 480, 2673, 3937, 480, 2673),
        "tabulation": (2889, 480, 2665, 3929, 480, 2665),
        "memoised-ideal": (2877, 480, 2653, 3917, 480, 2653),
    },
    "policy": {
        "paper (rmw=1 I/O)": (2897, 480, 2673, 3937, 480, 2673),
        "strict (rmw=2 I/Os)": (2897, 3153, 0, 3937, 3153, 0),
    },
}

THM2_SWEEPS = {
    "exponent": pp.thm2_exponent_points,
    "epsilon": pp.thm2_epsilon_points,
    "family": pp.thm2_family_points,
    "policy": pp.thm2_policy_points,
}

LEMMA5_GAMMA = {
    2: (2848, 0, 2848, 6186, 0, 2848),
    4: (2752, 0, 2752, 4691, 0, 2752),
    8: (3652, 0, 3652, 5074, 0, 3652),
    16: (5357, 0, 5357, 6574, 0, 5357),
}

LEMMA5_SIZE = {
    2000: (352, 0, 352),
    4000: (1056, 0, 1056),
    8000: (2848, 0, 2848),
    16000: (7184, 0, 7184),
}

FIGURE1 = {
    "standard chaining": (6000, 8000, 0, 6000),
    "buffered β=b^0.25": (2238, 3798, 480, 1534),
    "buffered β=b^0.5": (3374, 4972, 480, 2670),
    "buffered β=b^0.75": (4545, 6033, 480, 3841),
    "buffered ε-insert": (4235, 5721, 480, 3531),
    "Jensen-Pagh [12]": (6542, 8255, 287, 6079),
}


def test_goldens_cover_every_bench_point():
    assert tuple(THM1_CASE1) == pp.THM1_CASE1_EXPONENTS
    assert tuple(THM1_CASE2) == pp.THM1_CASE2_KAPPAS
    assert tuple(THM1_CASE3) == pp.THM1_CASE3_BLOCKS
    assert tuple(LEMMA5_GAMMA) == pp.LEM5_GAMMAS
    assert tuple(LEMMA5_SIZE) == pp.LEM5_SIZES


def test_theorem1_case1():
    assert {c: pp.thm1_case1_point(c)[1] for c in THM1_CASE1} == THM1_CASE1


def test_theorem1_case2():
    assert {k: pp.thm1_case2_point(k)[1] for k in THM1_CASE2} == THM1_CASE2


def test_theorem1_case3():
    assert {b: pp.thm1_case3_point(b)[1] for b in THM1_CASE3} == THM1_CASE3


@pytest.mark.parametrize("sweep", sorted(THM2))
def test_theorem2(sweep):
    points = THM2_SWEEPS[sweep]()
    assert {row["label"]: ledger for row, ledger in points} == THM2[sweep]


def test_lemma5_gamma_sweep():
    assert {g: pp.lemma5_gamma_point(g)[1] for g in LEMMA5_GAMMA} == LEMMA5_GAMMA


def test_lemma5_size_sweep():
    assert {n: pp.lemma5_size_point(n)[1] for n in LEMMA5_SIZE} == LEMMA5_SIZE


def test_figure1_measured_points():
    curves, ledgers = pp.figure1_points()
    assert ledgers == FIGURE1
    assert [p.label for p in curves.measured] == list(FIGURE1)
