"""Entropy dimension of the binary full shift and the golden mean shift.

Both shifts have exponential orbit growth, so the log partition function
grows linearly in n and the critical exponent of log N(n, eps) ~ c n^s
lands at s = 1 no matter the scale.  The script prints the exact separated
counts on a ladder of dyadic scales, the pressure statistic across an s
grid (watch it blow up below 1 and die above 1), and the fitted exponent.
"""

import math

from pdim import (
    Estimator,
    FullShift,
    GrowthTable,
    classify_jump,
    dimension_estimate,
    entropy_dimension,
    exact_growth_table,
    golden_mean_sft,
    pressure_curve,
    zero_potential,
)

for system in (FullShift(2), golden_mean_sft()):
    print(f"== {system.label} ==")
    rows = exact_growth_table(system, zero_potential(system), 1, range(4, 33, 4))
    table = GrowthTable(rows).filter(estimator=Estimator.SEPARATED)
    for s in table.samples:
        print(f"  n={s.n:3d}  log N(n, eps_1) = {s.log_value:8.4f}"
              f"   per step {s.log_value / s.n:.4f}")

    curve, est = entropy_dimension(system, range(10, 201, 10), [0, 1, 2])
    print("  s grid:   ", "  ".join(f"{s:5.2f}" for s in curve.s_grid))
    print("  pressure: ", "  ".join(f"{v:5.2f}" for v in curve.values))
    jump = classify_jump(curve)
    print(f"  jump bracket {jump.bracket}, monotone={jump.monotone}")
    print(f"  dimension estimate {est.s0_hat:.4f} "
          f"(window n in {est.window}, stderr {est.stderr:.2e})")

    # golden mean sanity: counts are Fibonacci, growth rate the golden ratio
    if system.label.startswith("sft"):
        from pdim.systems import word_total

        ratio = word_total(system, 20) / word_total(system, 19)
        print(f"  word-count ratio F(21)/F(20) = {ratio:.6f} "
              f"vs golden ratio {(1 + math.sqrt(5)) / 2:.6f}")
    print()
