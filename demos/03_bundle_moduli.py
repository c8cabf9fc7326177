"""Classes of the moduli spaces of rank-2 bundles with fixed determinant.

Odd degree: the flip chain of pair-moduli spaces ends in a projective
fibration over the moduli space, and the chain sum divides out exactly; an
independent closed binomial expression must give the same class.

Even degree: the moduli space is singular, so the pipeline works with pure
classes: subtract the strictly-semistable boundary (a projective bundle over
a symmetric product), divide by the fibration factor as a series, and add the
twisted Kummer class back.  The division is not exact; the report records
which components terminate and how the result compares with the odd case.
"""

from motiveforge import (betti, hn_closed, kummer, n0_even, n0_odd,
                         n0_odd_chain, n0_odd_closed, pair_moduli)

# --- the pair-moduli chain ------------------------------------------------------

g = 2
print("pair moduli at g=2, degree 5:")
for i in range(3):
    print(f"  M_{i} = {pair_moduli(g, 5, i).render()}")

# --- odd degree -----------------------------------------------------------------

print()
print("odd-determinant moduli class:")
for g in (2, 3, 4):
    chain = n0_odd_chain(g)
    closed = n0_odd_closed(g)
    assert chain == closed
    print(f"  g={g}: {chain.render()}")

print()
print("Betti numbers against the Harder-Narasimhan polynomial:")
for g in (2, 3, 4):
    poly = betti(n0_odd(g))
    assert poly == hn_closed(g)
    print(f"  g={g}: {poly.render('t')}")

# --- even degree ----------------------------------------------------------------

print()
print("Kummer classes (even exterior algebra, rank 2^(2g-1)):")
for g in (2, 3):
    print(f"  g={g}: {kummer(g).render()}  rank {kummer(g).rank()}")

print()
print(n0_even(2).render_text())

# below weight 2g-2 the pure even class reproduces the odd one
for g in (3, 4):
    cut, diffs = n0_even(g).stage("truncation_vs_odd").value
    print(f"g={g}: even vs odd below weight {cut}:",
          "agree" if not diffs else f"differ at {sorted(diffs)}")
