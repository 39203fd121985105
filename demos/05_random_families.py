"""The seeded random family: size concentration, spreadness, ratio audit.

Each subspace of G(n, n-m) is kept independently with probability
delta = p^alpha / |G(n, n-m)|, so the family size concentrates near
p^alpha.  Spread families make every projection census small, and the
audit measures the constants empirically.

Run with:  python3 demos/05_random_families.py
"""

from fractions import Fraction

from fpproj import (
    AmbientSpace,
    RandomFamilyConfig,
    audit_family,
    exceptional_count,
    random_point_set,
    sample_random_family,
    size_concentration_report,
    spread_containing,
)

ambient = AmbientSpace(7, 3)
cfg = RandomFamilyConfig(ambient, m=1, alpha=Fraction(3, 2), seed=42)
print(f"delta ~ {float(cfg.delta):.4f} over |G(3,2)| = {cfg.grassmannian_size}, "
      f"target size p^1.5 ~ {7**1.5:.1f}")

G = sample_random_family(cfg)
print(f"seed 42 gives {len(G)} members; resampling is identical: "
      f"{sample_random_family(cfg).members == G.members}")

report = size_concentration_report(cfg, seeds=range(200))
print(f"\nover 200 seeds: sizes {min(report.sizes)}..{max(report.sizes)}, "
      f"{report.deviating} deviate by more than p^alpha/2 "
      f"(Chebyshev predicts at most {report.chebyshev_bound:.3f} of them)")

# Spreadness: no nonzero frequency should sit in too many members.
count, witness = spread_containing(G)
print(f"\nmost popular frequency lies in {count} members "
      f"(witness {witness.coords}); 8|G|/p = {8 * len(G) / 7:.1f}")

audit = audit_family(
    G,
    "contains",
    beta=1,
    C=8,
    test_sets=[random_point_set(ambient, s, seed=s) for s in (5, 25, 100)],
)
print(f"audit passed: {audit.passed} "
      f"(spread {audit.spread.max_count} <= {audit.spread_bound_float:.1f}, "
      f"{len(audit.energy_checks)} energy checks)")

print("\nexceptional ratios for a random 20-point set:")
E = random_point_set(ambient, 20, seed=7)
census = exceptional_count(E, G, (1, 2, 4))
for N, count, ratio in zip(census.thresholds, census.count[0].tolist(), census.ratio[0].tolist()):
    print(f"  N={N}: count={count} ratio={ratio:.4f} (<= 16)")
