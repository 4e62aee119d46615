"""
Generators of the defining ideals
=================================

The classical flag variety, its PBW degeneration, and the s-family
that interpolates between them share one set of generator labels.
"""

from sympbw.relations import (
    degenerate_component,
    generate_ideal,
    pluecker_relation,
    relation_text,
    s_deformed_relation,
    specialize_s,
    symplectic_relation,
)

n = 2

for kind in ("classical", "degenerate", "s-family"):
    rels = generate_ideal(n, kind)
    print(f"{kind}: {len(rels)} generators")
    for r in rels:
        print(f"  {r.label}: {relation_text(n, r)}")
    print()

# one exchange relation, taken apart
p = pluecker_relation(2, (1, 2), (3,), 1)
print("R^1_{(1,2),(2bar)}      :", relation_text(2, p))
print("its degenerate component:", relation_text(2, degenerate_component(p)))
s = s_deformed_relation(p)
print("s-deformed              :", relation_text(2, s))
print("at s=1                  :", relation_text(2, specialize_s(s, 1)))
print("at s=0                  :", relation_text(2, specialize_s(s, 0)))

# a linear relation from an index whose filling is not a symplectic column, n=4
rel = symplectic_relation(4, (1, 2, 7, 8))
print("\nS_{(2bar,2,1bar,1)} at n=4:", relation_text(4, rel))
