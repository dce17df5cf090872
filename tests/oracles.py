"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the code paths they verify: binomials come from a
Pascal triangle, Poisson coefficients from explicit divided-power calculus
on untruncated monomial dictionaries, congruences from linear scans, reduced
echelon forms from a dense Gauss-Jordan pass over whole rows.
"""

from math import comb

Mono = tuple[int, int]
Poly = dict[Mono, int]


def pascal_binom(a: int, b: int, p: int) -> int:
    """C(a, b) mod p from an explicitly built Pascal triangle."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    return row[b]


def dp_mul(f: Poly, g: Poly, p: int) -> Poly:
    """Divided-power product, no truncation: x^(a) x^(c) = C(a+c, a) x^(a+c)."""
    out: Poly = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            coeff = cf * cg * comb(a + c, a) * comb(b + d, b) % p
            if coeff:
                key = (a + c, b + d)
                out[key] = (out.get(key, 0) + coeff) % p
                if not out[key]:
                    del out[key]
    return out


def dp_partial(f: Poly, axis: int) -> Poly:
    out: Poly = {}
    for (a, b), c in f.items():
        key = (a - 1, b) if axis == 0 else (a, b - 1)
        if key[axis] >= 0:
            out[key] = c
    return out


def dp_poisson(f: Poly, g: Poly, p: int) -> Poly:
    """{f, g} = d2(f) d1(g) - d1(f) d2(g)."""
    t1 = dp_mul(dp_partial(f, 1), dp_partial(g, 0), p)
    t2 = dp_mul(dp_partial(f, 0), dp_partial(g, 1), p)
    out = dict(t1)
    for key, c in t2.items():
        out[key] = (out.get(key, 0) - c) % p
        if not out[key]:
            del out[key]
    return out


def poisson_coefficient(i: int, j: int, k: int, l: int, p: int) -> int:
    """Coefficient of x^(i+k-1) y^(j+l-1) in {x^(i)y^(j), x^(k)y^(l)}."""
    if i + k < 1 or j + l < 1:
        return 0
    prod = dp_poisson({(i, j): 1}, {(k, l): 1}, p)
    return prod.get((i + k - 1, j + l - 1), 0)


def scan_congruences(r: int, s: int, m1: int, m2: int) -> int:
    """Smallest nonnegative k with k = r mod m1 and k = s mod m2, by scan."""
    for k in range(m1 * m2):
        if k % m1 == r % m1 and k % m2 == s % m2:
            return k
    raise AssertionError("no solution found")


def poly_pow_mod(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    """Naive polynomial power with reduction, for Frobenius cross-checks."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return reduce(out)

    def reduce(a):
        a = list(a)
        while len(a) >= len(modulus):
            lead = a[-1]
            shift = len(a) - len(modulus)
            for i, c in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * c) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    result = [1]
    for _ in range(exponent):
        result = mul(result, base)
    return result + [0] * (len(modulus) - 1 - len(result))


def oracle_rref(field, rows):
    """Reduced row echelon form with unit pivots, zero rows dropped: every
    row operation runs over all columns, zero entries included."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    out = []
    pivots = []
    for row in mat:
        row = list(row)
        for prow, pc in zip(out, pivots):
            c = row[pc]
            if c:
                for idx in range(ncols):
                    row[idx] = row[idx] - c * prow[idx]
        pc = next((idx for idx, c in enumerate(row) if c), None)
        if pc is None:
            continue
        inv = row[pc].inverse()
        row = [inv * c for c in row]
        for prow in out:
            c = prow[pc]
            if c:
                for idx in range(ncols):
                    prow[idx] = prow[idx] - c * row[idx]
        out.append(row)
        pivots.append(pc)
    order = sorted(range(len(out)), key=lambda r: pivots[r])
    return [out[r] for r in order]
