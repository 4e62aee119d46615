"""
Sampling points and checking the relations on them
==================================================

Seeds exact integral points on the classical big cell and on the
degenerate orbit, then evaluates every generator on them.
"""

from sympbw.relations import generate_ideal
from sympbw.verify import (
    check_counts,
    check_isotropy_projection,
    check_roundtrip,
    check_s_bridge,
    check_vanishing,
    sample_classical_flag,
    sample_degenerate_point,
)

n = 2
seeds = range(5)

classical = [sample_classical_flag(n, s) for s in seeds]
degenerate = [sample_degenerate_point(n, s) for s in seeds]

point = classical[0]
print("classical point, level-1 coordinates:")
for J, value in sorted(point.coords[1].items()):
    print(f"  x_{J} = {value}")

print()
print(check_vanishing(generate_ideal(n, "classical"), classical))
print(check_vanishing(generate_ideal(n, "degenerate"), degenerate))
print(check_s_bridge(generate_ideal(n, "s-family"), classical))

# degenerate points project isotropically level by level; classical ones don't
print("\nisotropy at degenerate points:",
      all(check_isotropy_projection(p, 1) for p in degenerate))
print("isotropy at classical points: ",
      any(check_isotropy_projection(p, 1) for p in classical))

# counting and bijection audits as reports
print()
print(check_counts(n, (1, 1)))
print(check_roundtrip(n, (1, 1)))
