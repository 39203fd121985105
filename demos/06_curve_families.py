"""Two explicit line families that already behave like random ones.

The circle {(x1, x2, 1) : x1^2 + x2^2 = 1} and the moment curve
{(a, a^2, ..., a^n)} give direction families whose members are spread:
any fixed plane meets the circle in at most 2 points, and any
hyperplane meets the moment curve in at most n-1 points (a Vandermonde
argument).  That spreadness is exactly what the projection audit needs.

Run with:  python3 demos/06_curve_families.py
"""

from fpproj import (
    affine_flat_set,
    circle_family,
    circle_set,
    decode,
    exceptional_count,
    hyperplane_intersection_max,
    moment_curve_set,
    moment_family,
    random_point_set,
    spread_perp,
)

print("circle sizes by residue class of p mod 4:")
for p in (5, 7, 11, 13):
    S = circle_set(p)
    G = circle_family(p)
    print(f"  p={p:2d} ({p % 4} mod 4): |S1| = {S.size:2d}, "
          f"|family| = {len(G):2d}, spread_perp = {spread_perp(G).max_count}")

print("\nmoment curve, hyperplane intersections stay below n:")
for p, n in ((7, 3), (11, 3), (13, 4)):
    S = moment_curve_set(p, n)
    G = moment_family(p, n)
    print(f"  p={p:2d}, n={n}: |family| = {len(G):2d} (= p-1), "
          f"max hyperplane hit = {hyperplane_intersection_max(S)} (<= {n - 1})")

# The payoff: projections of any set along circle directions are rarely
# small, with the same bound shape as the random model.
G = circle_family(11)
ambient = G.ambient
print(f"\nexceptional ratios along the {len(G)} circle directions (p=11):")
for label, E in (
    ("random 40", random_point_set(ambient, 40, seed=1)),
    ("random 200", random_point_set(ambient, 200, seed=2)),
    ("a flat line", affine_flat_set(G.members[0], decode(ambient, 57))),
):
    census = exceptional_count(E, G, (1, 4))
    for N, count, ratio in zip(census.thresholds, census.count[0].tolist(), census.ratio[0].tolist()):
        print(f"  {label:11s} N={N}: count={count} ratio={ratio:.4f}")
