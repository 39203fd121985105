"""Project a point set along subspaces and count how often it crushes.

The projection of E along W is the set of cosets of W meeting E; it has
at most min(|E|, p^m) elements (m = codim W).  We watch how often a
random set projects small, and check the exact pair-counting chain that
controls those counts.

Run with:  python3 demos/03_projections_and_energy.py
"""

from fpproj import (
    AmbientSpace,
    cauchy_schwarz_gap,
    enumerate_cosets,
    energy,
    exceptional_count,
    family_coset_energy,
    full_family,
    incidence_decomposition,
    project,
    random_point_set,
)

ambient = AmbientSpace(5, 3)
E = random_point_set(ambient, 20, seed=7)
G = full_family(ambient, 1)  # all 31 planes, codimension 1
print(f"|E| = {E.size}, family of {len(G)} planes, p^m = 5 cosets each")

sizes = sorted(project(E, W).size for W in G)
print("projection sizes across the family:", sizes)

# The energy of E over the cosets of one W is the squared fiber mass;
# Cauchy-Schwarz turns it into a lower bound on the image size.
W = G.members[0]
print("\nfor one W:")
print("  fiber energy       ", energy(E, enumerate_cosets(W)))
lhs, rhs = cauchy_schwarz_gap(E, W)
print(f"  |E|^2 <= |image| * energy: {lhs} <= {rhs}")

# Over the whole family the energy splits into incidences plus ordered
# pairs that share a coset: an exact identity, no tolerance.
I, P2 = incidence_decomposition(E, G)
print("\nfamily energy    ", family_coset_energy(E, G))
print("incidences + pairs", I, "+", P2, "=", I + P2)
print("incidences are |G|*|E|:", I == len(G) * E.size)

# The exceptional census: how many W see an image of size at most N,
# against the bound |G| N (1/|E| + p^-m).  One census holds every
# threshold as columns; bound_num / bound_den is the exact bound.
print("\nexceptional counts:")
census = exceptional_count(E, G, (1, 2, 3, 4, 5))
columns = (census.count, census.bound_num, census.bound_den, census.ratio)
for N, count, num, den, ratio in zip(census.thresholds, *(c[0].tolist() for c in columns)):
    print(f"  N={N}: count={count:2d} bound={num / den:7.2f} ratio={ratio:.3f}")
