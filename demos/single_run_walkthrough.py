"""One seeded run of the dominance-selection process, narrated.

Shows the two-phase dynamics: predators first descend below beta*n while
prey fall away from the target band, then prey climb back up into
[(alpha-epsilon)*n, alpha*n) and the run stops at the first generation whose
populations contain an approximating pair.  Runtime is reported in
interactions (generations times lambda).

Run:  python3 demos/single_run_walkthrough.py
"""

import numpy as np

from coevo import (
    BilinearParams,
    PdcoeaConfig,
    TrajectoryRow,
    recipe_mutation_rate,
    run_trial,
    trajectory_columns,
)

delta = 0.01
game = BilinearParams(n=60, alpha=0.9, beta=0.05, epsilon=0.1)
cfg = PdcoeaConfig(
    lam=80,
    chi=recipe_mutation_rate(delta),
    seed=20260808,
    budget_generations=50_000,
    game=game,
)

print(f"n={cfg.n}, lambda={cfg.lam}, chi={cfg.chi:.6f} (recipe at slack {delta})")
print(f"target: some predator below {game.beta_n:.0f} ones and some prey in "
      f"[{game.target_lo:.0f}, {game.alpha_n:.0f}) ones\n")

record = run_trial(cfg, record=True)
print(f"hit={record.hit}  T={record.T_interactions} interactions "
      f"({record.generations_run} generations x lambda={cfg.lam})\n")

print("  gen   pred mean [min,max]   prey mean [min,max]    p0      q0")
counts = record.counts  # (generations evaluated, 2, lambda) one-counts
columns = trajectory_columns(counts[:, 0], counts[:, 1], game, np.arange(len(counts)))
marks = sorted({0, 1, 2, 5, 10, len(counts) - 1}
               | {i for i in range(0, len(counts), max(1, len(counts) // 12))})
for i in marks:
    r = TrajectoryRow._make(column[i] for column in columns)
    print(f"  {r.generation:5d}   {r.pred_mean:6.2f} [{r.pred_min:3d},{r.pred_max:3d}]"
          f"      {r.prey_mean:6.2f} [{r.prey_min:3d},{r.prey_max:3d}]"
          f"   {r.p0:5.2f}   {r.q0:5.2f}")

print("\np0 is the predator fraction below beta*n; once it saturates, the")
print("prey population turns around and ascends toward alpha*n, and the")
print("run ends the moment one prey enters the epsilon band.")
