"""Heat kernel degeneration probes in both regimes.

Interior regime: the family kernel at a fixed interior point converges to
the conic-limit kernel.  Scaled regime: after the exact parabolic rescaling
the kernel equals that of the fixed complete space truncated at radius
1/eps, and the probe resolves the domain-monotone wall effect, which the
image-charge estimate exp(-(2(1/eps-1))^2 / (4 tau)) tracks.
"""

import math

from acclab.geometry import WarpFamily
from acclab.heat import (cone_mode_kernel, interior_probe, scaled_probe,
                         scaling_identity_defect)

fam = WarpFamily.capped(n=3, c=0.8, mode_count=12)

print("interior probe at x = x' = 0.5, t in [0.1, 1]:")
res = interior_probe(fam, [0.2, 0.1, 0.05, 0.025], times=(0.1, 0.5, 1.0),
                     ell_max=6)
for eps, d in zip(res.schedule, res.distances):
    print(f"  eps={eps:7.4f}  max relative gap {d:.3e}")
print("  strictly decreasing:", res.strictly_decreasing)

print("\nscaled probe at rho = rho' = 1, tau = 0.5:")
sched = [1 / 2, 1 / 2.25, 1 / 2.5, 1 / 2.75, 1 / 3]
res2 = scaled_probe(fam, sched, ell_max=6)
for eps, d in zip(res2.schedule, res2.distances):
    wall = math.exp(-(2 * (1 / eps - 1)) ** 2 / 2.0)
    print(f"  eps={eps:7.4f}  relative gap {d:.3e}   wall estimate {wall:.3e}")
print("  strictly decreasing:", res2.strictly_decreasing)

print("\nflat-ball scaling identity (exactness oracle):")
flat = WarpFamily.capped(n=3, c=1.0)
for s in (0.5, 0.25):
    print(f"  s={s}: defect {scaling_identity_defect(flat, s):.2e}")

print("\nthe mode kernel of the exact cone is explicit; nu = 1/2 reduces to")
print("the half-line image kernel over (x x'):")
print("  k_(1/2)(0.3, 0.45, 0.05) =", cone_mode_kernel(0.5, 3, 0.3, 0.45, 0.05))
