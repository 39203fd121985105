"""The transform side: Parseval mass and the coset-energy identity.

The squared fiber mass of E over the cosets of W (an exact integer)
equals p^-m times the spectral mass on the annihilator Per(W).  This is
the one place the package leaves exact arithmetic, so the integer side
is always the reference and the spectral side is tested against it.

Run with:  python3 demos/04_fourier_identity.py
"""

import itertools

import numpy as np

from fpproj import (
    AmbientSpace,
    dft,
    enumerate_subspaces,
    perp,
    plancherel_defect,
    random_point_set,
    serialize_subspace,
    verify_coset_identity,
)

ambient = AmbientSpace(5, 3)
E = random_point_set(ambient, 30, seed=11)

table = dft(E)
print(f"|E| = {E.size}; value at zero frequency = {table.values[0].real:.6f}")
print(f"Parseval defect: {plancherel_defect(E, table=table):.3e} "
      f"(mass should be p^n |E| = {ambient.point_count * E.size})")

# The same transform straight from the definition: one character sum
# exp(-2 pi i x.xi / p) over x in E per frequency xi, in code order
# (coordinate 0 varies fastest).
p = ambient.p
freqs = np.array(list(itertools.product(range(p), repeat=ambient.n)))[:, ::-1]
roots = np.exp(-2j * np.pi * np.arange(p) / p)
direct = roots[freqs @ E.coordinates().T % p].sum(axis=1)
print("factored vs direct, max abs difference:",
      f"{np.max(np.abs(table.values - direct)):.3e}")

print("\ncoset identity over every plane:")
worst = 0.0
for W in enumerate_subspaces(ambient, 2):
    res = verify_coset_identity(E, W, tol=1e-6, table=table)
    worst = max(worst, abs(res.spatial - res.spectral))
    assert res.passed
print(f"  all {len(enumerate_subspaces(ambient, 2))} planes pass; "
      f"worst absolute defect {worst:.3e}")

W = enumerate_subspaces(ambient, 2)[3]
res = verify_coset_identity(E, W, table=table)
print(f"\nexample W = {serialize_subspace(W)}")
print(f"  spatial (exact)  {res.spatial}")
print(f"  spectral         {res.spectral:.9f}")
print(f"  frequencies used: the {5**1} points of Per(W) = {serialize_subspace(perp(W))}")
