"""A walk through the bilinear payoff game and its dominance structure.

The payoff ||y||(||x|| - beta*n) - alpha*n*||x|| depends on the two genomes
only through their one-counts, so the whole game fits on an (n+1) x (n+1)
grid.  This script prints the landscape, the worst-case curve the predator
actually climbs, a few dominance verdicts, and an intransitive 4-cycle.

Run:  python3 demos/bilinear_game_tour.py
"""

import numpy as np

from coevo import (
    BilinearParams,
    BitVector,
    dominates_by_onecounts,
    intransitivity_witness,
    payoff_by_onecounts,
    worst_case_f,
)

params = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
print(f"game: n={params.n}, alpha={params.alpha}, beta={params.beta}")
print(f"saddle at (||x||, ||y||) = ({params.beta_n:.0f}, {params.alpha_n:.0f})\n")

print("payoff grid (rows ||x|| = 0..n, columns ||y|| = 0..n):")
for cx in range(params.n + 1):
    row = [payoff_by_onecounts(cx, cy, params) for cy in range(params.n + 1)]
    print("  " + " ".join(f"{v:6.0f}" for v in row))

print("\nworst-case value f(x) = min_y payoff(x, y) by predator one-count:")
for c in range(params.n + 1):
    f = worst_case_f(BitVector([1] * c + [0] * (params.n - c)), params)
    bar = "#" * int((f + 60) / 3)
    print(f"  ||x||={c:2d}  f={f:7.1f}  {bar}")
print("the curve peaks at ||x|| = beta*n: the predator's maximin play.\n")

print("dominance verdicts ((x1,y1) vs (x2,y2), one-counts):")
for quad in ((7, 2, 8, 3), (7, 2, 8, 1), (5, 5, 5, 5)):
    verdict = dominates_by_onecounts(*quad, params)
    print(f"  {quad[:2]} >= {quad[2:]} ?  {verdict}")

print("\nintransitive cycle near the saddle (n=20 version):")
big = BilinearParams(n=20, alpha=0.4, beta=0.6, epsilon=0.05)
cycle = intransitivity_witness(big)
chain = " > ".join(str(p) for p in cycle) + f" > {cycle[0]}"
print(f"  {chain}")
print("each pair dominates the next, none dominates two steps ahead:")
print("selection pressure can circulate forever, which is why runtime")
print("analysis tracks population-level occupancy rather than a best-so-far.")
