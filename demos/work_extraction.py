"""Battery charging error versus memory size.

A two-level system colder than its environment charges a two-level
battery by W. The failure probability epsilon interpolates, as the memory
grows, between the memoryless protocol (N = 1) and the reference value
set by the full reachability order. The kink in the reference curve sits
at W = log(1 + exp(-beta * gap)) / beta.
"""

import numpy as np

from memtp.experiments import WorkExtractionConfig, work_extraction
from memtp.export import rows_to_csv

config = WorkExtractionConfig(
    gap=1.0, beta_source=2.0, beta=1.0,
    works=tuple(np.linspace(0.05, 0.65, 7)),
    memory_sizes=(1, 4, 16, 64))
result = work_extraction(config)

print(f"kink at W = {result.kink:.4f}; epsilon monotone in N: {result.monotone}")
eps_to = {r["W"]: r["epsilon_to"] for r in result.reference}
header = "     W | " + " | ".join(f" N={N:>3}" for N in config.memory_sizes)
print(header + " | reference")
for W in config.works:
    eps = [r["epsilon"] for r in result.rows if r["W"] == W]
    cells = " | ".join(f"{e:.4f}" for e in eps)
    print(f"{W:6.2f} | {cells} |    {eps_to[W]:.4f}")

rows = [dict(r, epsilon_to=eps_to[r["W"]]) for r in result.rows]
with open("work_extraction.csv", "w") as fh:
    fh.write(rows_to_csv(rows, {"gap": config.gap, "beta": config.beta,
                                "beta_source": config.beta_source}))
print("wrote work_extraction.csv")
