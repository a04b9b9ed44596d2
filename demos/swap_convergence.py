"""Convergence of memory-assisted protocols to cone vertices.

Distance to the target vertex as the memory size N doubles, at infinite
temperature (polynomial rate, slope -1/2 on a log-log plot) and at finite
temperature where truncated protocols converge exponentially. The fitted
exponential rate is printed alongside the measured series.
"""

import numpy as np

from memtp import fit_exponential_rate
from memtp.experiments import converge_sweep, nested_cycle_order
from memtp.export import rows_to_csv

p = [0.37, 0.24, 0.16, 0.11, 0.07, 0.05]
energies = list(range(6))
sizes = [2 ** k for k in range(4, 10)]
target = nested_cycle_order(6, 1)  # full cycle of the order

# the beta = 0 chain law is the full-mode law; a truncated chain of more
# than one swap has no prediction (NaN)
print("infinite temperature, full-cycle target, full mode")
rows = converge_sweep(p, energies, 0.0, target, sizes, mode="full")
print(f"{'N':>5} {'delta':>12} {'predicted':>12}")
for r in rows:
    print(f"{r['N']:>5} {r['delta']:>12.3e} {r['delta_predicted']:>12.3e}")
slope = np.polyfit(np.log([r["N"] for r in rows]),
                   np.log([r["delta"] for r in rows]), 1)[0]
print(f"log-log slope: {slope:.3f} (transposition rate gives -1/2)")

print("\nfinite temperature beta=0.1, cycle plus two extra swaps, truncated mode")
target_ft = nested_cycle_order(6, 1, 2)
rows = converge_sweep(p, energies, 0.1, target_ft, sizes, mode="truncated")
for r in rows:
    ratio = r["delta"] * np.sqrt(np.pi * r["N"])
    print(f"N={r['N']:>4}  delta={r['delta']:.3e}  "
          f"delta*sqrt(pi N)={ratio:.4f} (shrinks: beats the sqrt rate)")
fit = fit_exponential_rate([r["N"] for r in rows],
                           [r["delta"] for r in rows])
print(f"fitted exponential rate: exponent={fit.exponent:.4f} "
      f"intercept={fit.intercept:.3f}")

with open("swap_convergence.csv", "w") as fh:
    fh.write(rows_to_csv(rows, {"beta": 0.1, "target": list(target_ft.order)}))
print("wrote swap_convergence.csv")
