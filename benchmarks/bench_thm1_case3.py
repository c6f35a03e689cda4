"""T1.3 — Theorem 1 case 3: ``t_q ≤ 1 + O(1/b^c)``, ``c < 1`` ⇒
``t_u ≥ Ω(b^{c−1})`` — and Theorem 2 matches it.

Case 3 is where buffering genuinely helps, so the certificate changes
character: the Lemma 4 bin-ball bound says each round of ``s = 32n/b^c``
insertions must still touch ``Ω(1/ρ)`` distinct blocks.  We check the
two sides against each other across a grid of block sizes:

* the closed-form lower bound ``b^{c−1}`` (per insert), and
* the *measured* amortized insert cost of the Theorem 2 table at
  ``β = b^c``, whose scaling in ``b`` should track the bound's slope
  (log-log slope ≈ ``c − 1``), sandwiching the truth.
"""

from __future__ import annotations

import math

from paper_points import THM1_CASE3_BLOCKS, THM1_CASE3_C as C, thm1_case3_point

from conftest import emit, once


def test_theorem1_case3_scaling(benchmark):
    rows = once(
        benchmark, lambda: [thm1_case3_point(b)[0] for b in THM1_CASE3_BLOCKS]
    )
    emit(f"Theorem 1 case 3 / Theorem 2 match at c={C} (t_u = Θ(b^(c-1)))", rows)

    for row in rows:
        # Upper bound above lower bound, both o(1)-side.
        assert row["t_u_measured"] >= row["t_u_lower"] * 0.5, row
        assert row["t_u_measured"] < 1.0, row

    # Log-log slope of measured t_u vs b should be ≈ c − 1 = −1/2.
    xs = [math.log2(r["b"]) for r in rows]
    ys = [math.log2(r["t_u_measured"]) for r in rows]
    n = len(xs)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )
    benchmark.extra_info["loglog_slope"] = slope
    benchmark.extra_info["predicted_slope"] = C - 1
    assert -1.0 < slope < -0.15, f"slope {slope} not in the Θ(b^{C - 1}) regime"


if __name__ == "__main__":
    from repro.analysis.tradeoff_curves import format_rows

    print(format_rows([thm1_case3_point(b)[0] for b in THM1_CASE3_BLOCKS]))
