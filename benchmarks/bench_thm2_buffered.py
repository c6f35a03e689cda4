"""THM2 — Theorem 2: the buffered hash table's two regimes.

Reproduces both halves of Theorem 2 plus two DESIGN.md ablations:

1. ``β = b^c`` for ``c ∈ {0.25, 0.5, 0.75}``: insert ``O(b^{c−1})``,
   query ``1 + O(1/b^c)``.
2. ``β = εb/(2c')`` for ``ε ∈ {0.25, 0.5, 1.0}``: insert ``≈ ε``,
   query ``1 + O(1/b)``.
3. Ablation A: hash-family sensitivity (multiply-shift vs tabulation vs
   memoised-ideal) — costs should be family-insensitive.
4. Ablation B: footnote-2 read-modify-write combining on vs off — the
   strict policy should cost at most ~2x more, shifting no conclusion.

Expected shape: measured (t_q, t_u) track the closed-form predictions
from :class:`BufferedParams`; the query excess falls as ``1/β``.
"""

from __future__ import annotations

from paper_points import (
    thm2_epsilon_points,
    thm2_exponent_points,
    thm2_family_points,
    thm2_policy_points,
)

from conftest import emit, once


def _rows(points):
    return [row for row, _ in points]


def test_theorem2_exponent_regime(benchmark):
    rows = once(benchmark, lambda: _rows(thm2_exponent_points()))
    emit("Theorem 2: β = b^c regime", rows)
    for row in rows:
        assert row["t_u"] < 1.0, row              # o(1)-side inserts
        assert row["t_q"] < 1.35, row             # near-1 queries
        assert row["recent_frac"] <= 1 / row["beta"] + 0.15, row
    # Insert cost rises with c, query staleness falls.
    tus = [r["t_u"] for r in rows]
    assert tus == sorted(tus)
    benchmark.extra_info["tus"] = tus


def test_theorem2_epsilon_regime(benchmark):
    rows = once(benchmark, lambda: _rows(thm2_epsilon_points()))
    emit("Theorem 2: t_u = ε regime (query 1 + O(1/b))", rows)
    for row in rows:
        assert row["t_q"] < 1.25, row
    # Larger ε budget → larger β → t_u grows toward ε·O(1).
    tus = [r["t_u"] for r in rows]
    assert tus == sorted(tus)


def test_ablation_hash_family(benchmark):
    rows = once(benchmark, lambda: _rows(thm2_family_points()))
    emit("Ablation A: hash-family sensitivity (β=8)", rows)
    tus = [r["t_u"] for r in rows]
    tqs = [r["t_q"] for r in rows]
    assert max(tus) - min(tus) < 0.15, rows
    assert max(tqs) - min(tqs) < 0.1, rows


def test_ablation_io_policy(benchmark):
    rows = once(benchmark, lambda: _rows(thm2_policy_points()))
    emit("Ablation B: footnote-2 I/O policy", rows)
    paper, strict = rows
    assert paper["t_u"] <= strict["t_u"] <= 2.2 * paper["t_u"], rows
    benchmark.extra_info["paper_tu"] = paper["t_u"]
    benchmark.extra_info["strict_tu"] = strict["t_u"]


if __name__ == "__main__":
    from repro.analysis.tradeoff_curves import format_rows

    print(format_rows(_rows(thm2_exponent_points())))
