"""The level structure behind the runtime bound, piece by piece.

Levels are nested product sets (A_j x B_j) the populations should sweep
through; the current level is the deepest one holding at least a gamma0
fraction of the lambda^2 population pairs.  This script builds the two-phase
level sequence for a small game, tracks the current level along a real run,
computes exact selection probabilities from the closed-form winner law over
the two one-count histograms, checks one of the selection growth inequalities, validates the
reference drift potential, and prices the generic runtime bound.

Run:  python3 demos/level_machinery_tour.py
"""

import numpy as np

from coevo import (
    BilinearParams,
    LevelFunctionParams,
    PdcoeaConfig,
    build_bilinear_levels,
    check_growth_lemmas,
    current_level,
    eta_window,
    exact_selection_distribution,
    reference_g1_g2,
    run_trial,
    trajectory_columns,
    level_process_bound,
    recipe_mutation_rate,
    validate_level_function,
)
params = BilinearParams(n=20, alpha=0.9, beta=0.05, epsilon=0.1)
seq = build_bilinear_levels(params)
print(f"level sequence for n={params.n}: {seq.m1} descent levels + {seq.m2} ascent levels "
      f"= {seq.m} <= 2(n+1) = {2 * (params.n + 1)}")
for j in (1, 2, seq.m1, seq.m1 + 1, seq.m):
    (a_lo, a_hi), (b_lo, b_hi) = seq[j]
    print(f"  level {j:2d}: predators in [{a_lo}, {a_hi}) ones, prey in [{b_lo}, {b_hi})")

print("\ncurrent level along a run (gamma0 = 9/25):")
gamma0 = 9 / 25
cfg = PdcoeaConfig(lam=30, chi=recipe_mutation_rate(0.01), seed=7,
                   budget_generations=20_000, game=params)
record = run_trial(cfg, record=True)
levels = current_level(record.counts[:, 0], record.counts[:, 1], seq, gamma0)  # one per generation
marks = sorted(set([0, 1, 2, 5] + list(range(0, len(levels), max(1, len(levels) // 10)))))
for i in marks:
    print(f"  gen {i:5d}: level {levels[i]:2d} / {seq.m}")
print(f"  hit after {record.generations_run} generations "
      f"(final observed level {levels[-1]} of {seq.m})")

print("\nexact selection distribution on a 4-member toy state:")
pred, prey = [0, 1, 16, 19], [2, 3, 17, 18]
row = trajectory_columns(np.array(pred), np.array(prey), params, 0)
print(f"  p0={row.p0:g} (predators below beta*n), q0={row.q0:g} (prey at alpha*n or above)")
prob = exact_selection_distribution(pred, prey, params, lambda cx, cy: cx < params.beta_n)
print(f"  P(selected predator lands below beta*n) = {prob} = {float(prob):.4f}")
print("  (counts the lambda^4 = 256 equally likely draw outcomes in closed form,\n"
      "   from the two one-count histograms alone)")

print("\none selection growth inequality, checked exactly (case 17):")
small = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
report = check_growth_lemmas(17, [2, 2, 2, 7, 7, 7], [3, 3, 2, 1, 1, 0], small, l=2)
print(f"  measured sel/unif ratio over R0: {report.ratio} = {float(report.ratio):.4f}")
print(f"  guaranteed lower bound:          {report.bound} = {float(report.bound):.4f}")
print(f"  holds: {report.passed}")

print("\nreference drift potential g1 + g2:")
lam, m, delta = 20, 10, 0.5
lo, hi = eta_window(delta, lam)
lf = LevelFunctionParams(eta=(lo + hi) / 2, phi=0.5, z=(0.5,) * (m - 1), lam=lam, m=m)
g1, g2 = reference_g1_g2(lf)
total = lambda k, j: g1(k, j) + g2(k, j)
print(f"  validates the three level-function conditions: {validate_level_function(total, lam, m)}")
cap = 3 * lf.eta * lam**2 * m / min(lf.z)
print(f"  distance from the start g(0,1) = {total(0, 1):.3f} < cap {cap:.3f}")

print("\ngeneric runtime bound (interactions), priced for this level count:")
z = tuple(0.36 * recipe_mutation_rate(0.01) * (20 - j) / 20 for j in range(m - 1))
bound = level_process_bound(m, lam, 0.5, z, c_pp=1.01)
print(f"  value = {bound.value:.3g}  (level term {bound.terms['level_term']:.3g}, "
      f"upgrade term {bound.terms['upgrade_term']:.3g})")
