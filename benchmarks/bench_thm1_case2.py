"""T1.2 — Theorem 1 case 2: ``t_q ≤ 1 + O(1/b)`` ⇒ ``t_u ≥ Ω(1)``.

The boundary case.  Sweeps the κ knob of the case-2 parameter tuple
(φ = 1/κ, ρ = 2κb/n, s = n/(κ²b), δ = 1/(κ⁴b)) and certifies, per κ,
the per-round distinct-block lower bound against the standard table.

Expected shape: the certified amortized bound stays bounded away from
zero (Ω(1)) for every κ — queries at ``1 + O(1/b)`` already pin the
insert cost to a constant.
"""

from __future__ import annotations

from paper_points import THM1_CASE2_KAPPAS, thm1_case2_point

from conftest import emit, once


def test_theorem1_case2(benchmark):
    rows = once(
        benchmark, lambda: [thm1_case2_point(k)[0] for k in THM1_CASE2_KAPPAS]
    )
    emit("Theorem 1 case 2 (t_q = 1 + Θ(1/b) boundary: t_u = Ω(1))", rows)
    for row in rows:
        assert row["t_u_certified"] > 0.5, row  # Ω(1), with a real constant
        assert row["t_u_certified"] <= row["t_u_actual"] + 1e-9, row
    benchmark.extra_info["min_certified"] = min(r["t_u_certified"] for r in rows)


if __name__ == "__main__":
    from repro.analysis.tradeoff_curves import format_rows

    print(format_rows([thm1_case2_point(k)[0] for k in THM1_CASE2_KAPPAS]))
