"""Small independent reference implementations used by the test suite.

Everything here is written from scratch against textbook definitions and
deliberately shares no code with the package, so disagreements point at real
bugs rather than shared mistakes.
"""

from fractions import Fraction


def hull2d(points):
    """Andrew monotone chain; returns hull vertices in counterclockwise
    order, endpoints not repeated."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area2d(points):
    """Exact area of the convex hull of the points (shoelace)."""
    hull = hull2d(points)
    if len(hull) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def minkowski2d(pts1, pts2):
    return [(a[0] + b[0], a[1] + b[1]) for a in pts1 for b in pts2]


def mixed_area(pts1, pts2):
    """Mixed volume of two polygons via the volume polynomial:
    area(P+Q) - area(P) - area(Q)."""
    return area2d(minkowski2d(pts1, pts2)) - area2d(pts1) - area2d(pts2)


def contains2d(points, q):
    """Exact convex position test against the oracle hull."""
    hull = hull2d(points)
    if len(hull) == 1:
        return tuple(q) == tuple(hull[0])
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        cr = (x2 - x1) * (Fraction(q[1]) - y1) - (y2 - y1) * (Fraction(q[0]) - x1)
        if cr != 0:
            return False
        t1 = min(x1, x2), max(x1, x2)
        t2 = min(y1, y2), max(y1, y2)
        return t1[0] <= q[0] <= t1[1] and t2[0] <= q[1] <= t2[1]
    for i in range(len(hull)):
        o = hull[i]
        a = hull[(i + 1) % len(hull)]
        cr = (a[0] - o[0]) * (Fraction(q[1]) - o[1]) \
            - (a[1] - o[1]) * (Fraction(q[0]) - o[0])
        if cr < 0:
            return False
    return True


def lattice_points2d(points):
    """Brute force lattice point enumeration inside the oracle hull."""
    import math
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    out = []
    for x in range(math.floor(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.floor(min(ys)), math.floor(max(ys)) + 1):
            if contains2d(points, (x, y)):
                out.append((x, y))
    return sorted(out)


def pow_mod_row(exponents, point, p):
    """Monomial values mod p, one pow per (monomial, coordinate), with
    x^-k taken as (x^(p-2))^k: the per-entry reference for row_mod."""
    out = []
    for e in exponents:
        v = 1
        for x, k in zip(point, e):
            if k:
                base = x if k > 0 else pow(x, p - 2, p)
                v = v * pow(base, abs(k), p) % p
        out.append(v)
    return tuple(out)


def gfp_kernel_back_substitution(rows, p, ncols):
    """Kernel basis mod p in Python ints, by forward elimination to unit
    pivots and back-substitution per free column, each vector scaled so
    its first nonzero entry is 1: the reference for gfp_kernel."""
    M = [[x % p for x in row] for row in rows]
    ech = []
    piv = []
    for c in range(ncols):
        i0 = next((i for i, row in enumerate(M) if row[c]), None)
        if i0 is None:
            continue
        top = M.pop(i0)
        inv = pow(top[c], p - 2, p)
        top = [x * inv % p for x in top]
        M = [[(a - row[c] * b) % p for a, b in zip(row, top)] for row in M]
        ech.append(top)
        piv.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in piv):
        x = [0] * ncols
        x[f] = 1
        for row, c in reversed(list(zip(ech, piv))):
            x[c] = -sum(row[j] * x[j] for j in range(c + 1, ncols)) % p
        inv = pow(next(v for v in x if v), p - 2, p)
        basis.append(tuple(v * inv % p for v in x))
    return basis
