"""LEM5 — Lemma 5: the logarithmic method's cost profile.

Sweeps the growth factor ``γ ∈ {2, 4, 8, 16}`` and the input size and
reports measured amortized insertion cost and average successful-query
cost next to Lemma 5's predictions ``O((γ/b)·log(n/m))`` and
``O(log_γ(n/m))``.

Expected shape: insert cost ≪ 1 I/O and grows ~linearly in γ at fixed
``n``; query cost tracks the number of live levels, which shrinks as
γ grows — the knob trades insert cost against query cost *inside* the
o(1)-insert world.
"""

from __future__ import annotations

from paper_points import (
    LEM5_GAMMAS,
    LEM5_SIZES,
    lemma5_gamma_point,
    lemma5_size_point,
)

from conftest import emit, once


def test_lemma5(benchmark):
    rows = once(benchmark, lambda: [lemma5_gamma_point(g)[0] for g in LEM5_GAMMAS])
    emit("Lemma 5: logarithmic method, γ sweep", rows)

    # Every configuration inserts in o(1) — the folklore win.
    for row in rows:
        assert row["t_u"] < 0.7, row
    # Levels (and so query cost) shrink with γ...
    levels = [r["levels"] for r in rows]
    assert levels == sorted(levels, reverse=True)
    tqs = [r["t_q"] for r in rows]
    assert tqs[-1] <= tqs[0] + 0.1
    # ...while insert cost rises with γ (within measurement slack).
    assert rows[0]["t_u"] <= rows[-1]["t_u"] + 0.05
    benchmark.extra_info["gamma2_tu"] = rows[0]["t_u"]
    benchmark.extra_info["gamma16_tu"] = rows[-1]["t_u"]


def test_lemma5_scaling_in_n(benchmark):
    """Insert cost grows like log(n/m): doubling n adds ≈ (γ/b) per item."""
    rows = once(benchmark, lambda: [lemma5_size_point(n)[0] for n in LEM5_SIZES])
    emit("Lemma 5: t_u vs n (log(n/m) growth)", rows)
    tus = [r["t_u"] for r in rows]
    # Monotone-ish growth, and still o(1) at the largest n.
    assert tus[-1] >= tus[0] - 0.02
    assert tus[-1] < 0.7


if __name__ == "__main__":
    from repro.analysis.tradeoff_curves import format_rows

    print(format_rows([lemma5_gamma_point(g)[0] for g in LEM5_GAMMAS]))
