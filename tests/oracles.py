"""Brute-force oracles, independent of the library's internals.

Everything here enumerates from first principles (all vectors, all
spans, all coset translates) so the fast paths in the package are
checked against a second route.
"""

import cmath
import itertools
from fractions import Fraction


def all_vectors(p, n):
    return list(itertools.product(range(p), repeat=n))


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(k, u, p):
    return tuple((k * a) % p for a in u)


def span_set(rows, p, n):
    """All linear combinations of the rows, as a frozenset of tuples."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = (0,) * n
        for k, row in zip(coeffs, rows):
            v = vec_add(v, vec_scale(k, row, p), p)
        out.add(v)
    return frozenset(out)


def matvec(rows, v, p):
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in rows)


def brute_nullspace_set(rows, p, n):
    """All v with M v = 0, by exhausting the p^n vectors."""
    zero = (0,) * len(rows)
    return frozenset(v for v in all_vectors(p, n) if matvec(rows, v, p) == zero)


def all_subspace_spans(p, n, k):
    """Every k-dimensional subspace as a frozenset of its points.

    Enumerates all k-tuples of vectors and keeps the spans of full rank;
    only usable for tiny parameters.
    """
    spans = set()
    for rows in itertools.product(all_vectors(p, n), repeat=k):
        s = span_set(rows, p, n)
        if len(s) == p**k:
            spans.add(s)
    return spans


def coset_of(point, subspace_points, p):
    return frozenset(vec_add(point, w, p) for w in subspace_points)


def point_code(v, p):
    code = 0
    for c in reversed(v):
        code = code * p + c
    return code


def min_code_in_coset(point, subspace_points, p):
    return min(point_code(x, p) for x in coset_of(point, subspace_points, p))


def brute_projection_cosets(E_points, subspace_points, p):
    """The distinct cosets of the subspace meeting E, as frozensets."""
    return {coset_of(x, subspace_points, p) for x in E_points}


def brute_fiber_counts(E_points, subspace_points, p):
    """|E ∩ coset| for each coset meeting E."""
    E = set(E_points)
    return [len(c & E) for c in brute_projection_cosets(E_points, subspace_points, p)]


def brute_energy_over_cosets(E_points, subspace_points, p, n):
    """Sum of |E ∩ coset|^2 over ALL cosets of the subspace."""
    E = set(E_points)
    seen = set()
    total = 0
    for x in all_vectors(p, n):
        c = coset_of(x, subspace_points, p)
        if c in seen:
            continue
        seen.add(c)
        total += len(c & E) ** 2
    return total


def energy_by_differences(E_points, subspace_points, p):
    """energy_W(E) = sum over d in W of r_E(d), r_E(d) = #{(x, y) in E^2 : x - y = d}.

    x and y share a coset of W iff x - y lies in W, so this counts the
    ordered pairs inside each coset: the sum of squared fibers.  It
    costs |E|^2 + |W| steps, not the p^n cosets of brute_energy_over_cosets.
    """
    from collections import Counter

    r = Counter(tuple((a - b) % p for a, b in zip(x, y)) for x in E_points for y in E_points)
    return sum(r[d] for d in subspace_points)


def direct_dft_value(E_points, xi, p):
    """sum over x in E of exp(-2 pi i (x.xi)/p), straight from the definition."""
    total = 0j
    for x in E_points:
        d = sum(a * b for a, b in zip(x, xi)) % p
        total += cmath.exp(-2j * cmath.pi * d / p)
    return total


def brute_gaussian_count(p, n, k):
    return len(all_subspace_spans(p, n, k))


def enumerate_rref_bases(p, n, k):
    """Every k x n RREF basis of full rank as nested tuples, sorted.

    One template per pivot pattern, every free entry (right of its
    row's pivot, outside the pivot columns) running over F_p: the
    reference for the library's array-built Grassmannian and its order.
    """
    bases = []
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            bases.append(tuple(tuple(r) for r in rows))
    return sorted(bases)


def exceptional_report_from_stats(set_size, p, m, sizes, energies, N):
    """One (set, N) census row, computed the way the library did per row.

    sizes and energies are one set's per-member image sizes and
    energies.  Returns (count, theta, bound, ratio, pairs_ok): how many
    members have image size <= N, their summed energies, the bound
    |G| N (1/|E| + p^-m) and count/bound as Fractions, and whether
    count |E|^2 <= theta N (True for N = 0).
    """
    if set_size == 0:
        raise ValueError("exceptional counts need a nonempty set (bound uses 1/|E|)")
    if N < 0:
        raise ValueError("threshold N must be nonnegative")
    exceptional = [s <= N for s in sizes]
    count = sum(exceptional)
    theta = sum(e for e, hit in zip(energies, exceptional) if hit)
    bound = Fraction(len(sizes) * N * (p**m + set_size), set_size * p**m)
    ratio = Fraction(count) / bound if bound else Fraction(0)
    pairs_ok = count * set_size * set_size <= theta * N if N >= 1 else True
    return count, theta, bound, ratio, pairs_ok


# ---------------------------------------------------------------------------
# per-item references for the stacked sampler, transform and annihilators
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix_key(seed, index):
    """The counter-based key of item index under seed, written out once more."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def choose_without_replacement(seed, population, size):
    """One seed's sample: the size items with the smallest keys, ties by index, sorted."""
    keys = [splitmix_key(seed, i) for i in range(population)]
    return sorted(sorted(range(population), key=lambda i: (keys[i], i))[:size])


def dft_factored(mask, p, n):
    """The transform of one indicator mask by one fftn over its (p,)*n cube."""
    import numpy as np

    cube = np.asarray(mask).astype(np.complex128).reshape((p,) * n)
    return np.fft.fftn(cube).reshape(-1)


def perp_basis(p, n, basis):
    """Canonical basis of Per(W) for one RREF basis, the closed-form rows reduced by scalar_rref."""
    if not basis:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    pivots = [next(j for j, c in enumerate(row) if c) for row in basis]
    rows = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for row, c in zip(basis, pivots):
            v[c] = -row[f] % p
        rows.append(tuple(v))
    R, rank, _ = scalar_rref(rows, p, n)
    assert rank == len(rows)
    return R


def top_one_codes(p, r):
    """Codes of F_p^r with top nonzero digit 1, read off a mask set block by block."""
    import numpy as np

    top_one = np.zeros(p**r, dtype=bool)
    for d in range(r):
        top_one[p**d : 2 * p**d] = True  # codes with top digit 1 at position d
    return np.flatnonzero(top_one)


def line_minima_by_top_digit(p, n):
    """Each code's smallest multiple: the point scaled by the inverse of its top nonzero digit."""
    out = []
    for code in range(p**n):
        digits = [code // p**i % p for i in range(n)]
        scale = pow(next((d for d in reversed(digits) if d), 1), p - 2, p)
        out.append(sum(d * scale % p * p**i for i, d in enumerate(digits)))
    return out


# ---------------------------------------------------------------------------
# the scalar elimination and the direct transform, one item at a time
# ---------------------------------------------------------------------------


def scalar_rref(rows, p, n):
    """(rows, rank, pivots): the reduced row echelon form over F_p, row by row in Python integers.

    Pivot entries are 1, pivot columns are otherwise 0, zero rows are
    dropped and pivot columns strictly increase.
    """
    rows = [[int(c) % p for c in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), r, tuple(pivots)


def scalar_nullspace(rows, p, n):
    """RREF-canonical basis of {x : M x^T = 0}: 1 at each free column f, -R[i][f] at pivot i, reduced."""
    R, _, pivots = scalar_rref(rows, p, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for row, c in zip(R, pivots):
            v[c] = -row[f] % p
        basis.append(tuple(v))
    out, rank, _ = scalar_rref(basis, p, n)
    assert rank == len(basis)
    return out


def dft_direct(E):
    """E_hat at every frequency code by one character sum over E each, O(p^n |E|)."""
    import numpy as np

    p, n = E.ambient.p, E.ambient.n
    roots = np.exp(-2j * np.pi * np.arange(p) / p)
    freqs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)[:, ::-1]
    pts = E.coordinates()
    if pts.shape[0] == 0:
        return np.zeros(p**n, dtype=np.complex128)
    return roots[freqs @ pts.T % p].sum(axis=1)


# ---------------------------------------------------------------------------
# per-cell references for the column-wise CSV writer and the columnar census
# ---------------------------------------------------------------------------


def csv_text_by_cell(header, rows):
    """The CSV text with every cell rendered on its own by acceptance._cell."""
    from fpproj.acceptance import _cell

    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def stacked_census_cells(batteries, edges, m, sizes, energies, thresholds, C=None):
    """Per cell, per set, its census tuples, built one cell at a time in Python integers.

    The census loop the library ran before its census became columns,
    counted in plain Python: per (cell, set, N), the count and
    theta-energy of exceptional_report_from_stats over the cell's
    columns, the bound in lowest terms (one math.gcd), the
    cross-multiplied ratio test, the correctly rounded float ratio and
    the pair-counting inequality.  Each tuple is (threshold, count,
    bound_num, bound_den, ratio, within, pairs_lhs, pairs_rhs,
    pairs_bound_ok), the fields of census_tuples.
    """
    import math

    sizes, energies = [list(map(int, row)) for row in sizes], [list(map(int, row)) for row in energies]
    if edges is None:
        edges = [0, len(sizes[0]) if sizes else 0]
    edges = [int(edge) for edge in edges]
    thresholds = [int(N) for N in thresholds]
    C = None if C is None else Fraction(C)
    out = []
    for sets, lo, hi in zip(batteries, edges, edges[1:]):
        K = hi - lo
        cell_rows = []
        for E, size_row, energy_row in zip(sets, sizes, energies):
            e, p = E.size, E.ambient.p
            q = p**m
            row = []
            for N in thresholds:
                count, th, *_ = exceptional_report_from_stats(e, p, m, size_row[lo:hi], energy_row[lo:hi], N)
                num, den = K * N * (q + e), e * q
                g = math.gcd(num, den)
                num, den = num // g, den // g
                if C is None:
                    within = None
                elif num:
                    within = count * den * C.denominator <= C.numerator * num
                else:
                    within = 0 <= C
                lhs, rhs = count * e * e, th * N
                ratio = count * den / num if num else 0.0
                row.append((N, count, num, den, ratio, within, lhs, rhs, lhs <= rhs or N == 0))
            cell_rows.append(row)
        out.append(cell_rows)
    return out


def census_tuples(census):
    """Per set of an (S, T) Census, its (threshold, *columns) tuples in threshold order.

    Each tuple is zipped from the columns' Python values, within None
    when the census has no C: what stacked_census_cells builds per cell.
    """
    S, T = census.count.shape
    columns = [itertools.repeat(None) if c is None else c.ravel().tolist() for c in census.columns()]
    flat = list(zip(census.thresholds * S, *columns))
    return [flat[s * T : (s + 1) * T] for s in range(S)]


def typed(value):
    """value with each leaf paired with its type, nested lists and tuples as lists.

    typed(a) == typed(b) checks value and Python type at once, where
    1 == 1.0 == True == np.int64(1) would pass a bare ==.
    """
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return type(value), value


def spread_by_span_points(p, n, member_rows):
    """(max count, smallest witness code) over nonzero codes of how many members' spans hold each.

    member_rows is a (K, r, n) array of each member's spanning rows; no
    member gives (0, None).  The spans are listed from every coefficient
    tuple and counted with a Counter.
    """
    from collections import Counter

    import numpy as np

    if len(member_rows) == 0:
        return 0, None
    coeffs = np.array(list(itertools.product(range(p), repeat=member_rows.shape[1])), dtype=np.int64)
    points = np.einsum("cr,krn->kcn", coeffs, member_rows) % p
    codes = points @ (p ** np.arange(n, dtype=np.int64))
    counter = Counter(code for member in codes.tolist() for code in set(member) if code)
    best = max(counter.values())
    return best, min(code for code, count in counter.items() if count == best)


def spread_profile_by_span_points(p, n, member_rows):
    """(p^n,) how many members' spans hold each code, counting every point of every span.

    member_rows is a (K, r, n) array of each member's spanning rows.
    Each span is listed from all p^r coefficient tuples, as a set, so
    entry 0 is K.
    """
    import numpy as np

    profile = np.zeros(p**n, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=member_rows.shape[1])), dtype=np.int64)
    weights = p ** np.arange(n, dtype=np.int64)
    for rows in member_rows:
        codes = (coeffs @ rows % p) @ weights
        profile[sorted(set(codes.tolist()))] += 1
    return profile


# ---------------------------------------------------------------------------
# the sort that SubspaceStack.distinct ran on every stack
# ---------------------------------------------------------------------------


def distinct_by_lexsort(bases):
    """Indices of the distinct members of a (K, k, n) bases array, sorted by basis read row by row.

    One lexsort over every basis entry, member index breaking ties,
    then the first of each run of equal bases.
    """
    import numpy as np

    flat = bases.reshape(len(bases), bases.shape[1] * bases.shape[2])
    order = np.lexsort((np.arange(len(flat)), *flat.T[::-1]))
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = np.diff(flat[order], axis=0).any(axis=1)
    return order[keep]


# ---------------------------------------------------------------------------
# the unpruned census: every image size from the fiber kernel
# ---------------------------------------------------------------------------


def unpruned_census(sets, G, thresholds, C=None):
    """The census of one battery against G as it was built before census_stats.

    Every image size comes from battery_projection_stats, the fiber
    kernel on every (set, member) pair, with nothing pruned.
    """
    from fpproj.projection import battery_projection_stats, stacked_census
    from fpproj.subspaces import SubspaceStack

    m = SubspaceStack.of(sets[0].ambient, None, G).codim
    return stacked_census((sets,), None, m, *battery_projection_stats(sets, G), thresholds, C)[0]
