"""Workload inputs, generated from a seed, and the checks on their artifacts.

Every check here is independent of the program: Horn samples of the
discriminant, exact and modular polynomial evaluation, Euler's relation
and the expected vertices are computed with plain ``int``/``Fraction``
arithmetic and never call ``tropimpl``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

GF101_MATRIX = [[1, 1, 1, 1, 1, 1],
                [2, 3, 5, 7, 11, 13],
                [8, 6, 4, 3, 2, 1]]

CRT_MATRIX = [[1, 1, 1, 1, 1, 1],
              [2, 3, 5, 7, 11, 13],
              [7, 6, 4, 3, 2, 1]]

SPLIT_PRIME_MATRIX = [[1, 1, 1, 1, 0, 0, 0, 0],
                      [0, 0, 0, 0, 1, 1, 1, 1],
                      [2, 3, 5, 7, 11, 13, 17, 19],
                      [19, 17, 13, 11, 7, 5, 3, 2]]

QUADRATIC_MATRIX = [[1, 1, 1], [0, 1, 2]]

# x = 11t^2 + 5t^3 - t^4, y = 11 + 11t + 7t^8
PLANE_CURVE = {"d": 1, "n": 2, "components": [
    {"terms": [{"coeff": 11, "exp": [2]}, {"coeff": 5, "exp": [3]},
               {"coeff": -1, "exp": [4]}]},
    {"terms": [{"coeff": 11, "exp": [0]}, {"coeff": 11, "exp": [1]},
               {"coeff": 7, "exp": [8]}]}]}

QUARTIC = {"d": 1, "n": 3, "components": [
    {"terms": [{"coeff": 1, "exp": [3]}, {"coeff": -1, "exp": [1]}]},
    {"terms": [{"coeff": 1, "exp": [3]}, {"coeff": 1, "exp": [2]}]},
    {"terms": [{"coeff": 1, "exp": [4]}, {"coeff": -1, "exp": [3]}]}]}

# The quartic's tropicalization, read off from the orders of its coordinate
# functions at t = 0, 1, -1, oo; its components share roots, so the cycle
# is given rather than derived from the supports.
QUARTIC_RAYS = [(0, 1, 2, 3), (0, 1, 1, 0), (0, 1, 0, 1), (0, -3, -3, -4)]

QUARTIC_SHIFT = [1, 0, 0, 1]

QUARTIC_TRANSLATED = sorted([
    (0, 2, 3, 1), (0, 3, 1, 2), (0, 4, 1, 1), (1, 0, 4, 1),
    (1, 2, 3, 0), (1, 3, 0, 2), (1, 4, 0, 1), (1, 4, 1, 0),
    (2, 0, 1, 3), (2, 0, 4, 0), (2, 4, 0, 0), (3, 0, 0, 3),
])

QUARTIC_CHOW = sorted([
    (1, 2, 3, 2), (1, 3, 1, 3), (1, 4, 1, 2), (2, 0, 4, 2),
    (2, 2, 3, 1), (2, 3, 0, 3), (2, 4, 0, 2), (2, 4, 1, 1),
    (3, 0, 1, 4), (3, 0, 4, 1), (3, 4, 0, 1), (4, 0, 0, 4),
])

QUARTIC_SPOT_COEFFS = {
    ((0, 3), (0, 3), (0, 3), (0, 3)): 1,
    ((0, 2), (0, 3), (0, 3), (1, 3)): -5,
    ((0, 1), (0, 2), (0, 3), (2, 3)): 11,
    ((0, 1), (1, 2), (2, 3), (2, 3)): -2,
}

# triangles per mfp-search job, about 1.3 s each
MFP_BATCH = 2
MFP_COORD = 100


@dataclass(frozen=True)
class Workload:
    """One named workload: a CLI job, its seeded input and its checks.

    ``make_input(seed, job)`` gives the input of the job-th job of a run.
    ``check(artifact, inp, seed)`` returns ``(unit, problem)`` pairs; a
    unit is one job, or one triple of an mfp batch.  ``sha256`` is the
    artifact hash recorded at the commit that defined the benchmark, for
    artifacts that do not depend on the seed.
    """

    name: str
    why: str
    argv: tuple
    make_input: Callable
    check: Callable
    units: Callable = lambda inp: 1
    sha256: str | None = None


# ---------------------------------------------------------------------------
# independent arithmetic


def _rand_rat(rng, height=12):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height),
                    rng.randint(1, height))


def kernel_rows(A):
    """Rows spanning {b : A b = 0} over Q, by Gauss-Jordan on Fractions."""
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    out = []
    for free in (c for c in range(n) if c not in pivots):
        b = [Fraction(0)] * n
        b[free] = Fraction(1)
        for row, pc in zip(M, pivots):
            b[pc] = -row[free]
        out.append(b)
    return out


def horn_points(A, count, rng):
    """Points of the A-discriminant: x_j = t^(a_j) (u B)_j."""
    B = kernel_rows(A)
    n = len(A[0])
    pts = []
    while len(pts) < count:
        u = [_rand_rat(rng) for _ in B]
        t = [_rand_rat(rng) for _ in A]
        ub = [sum(ur * row[j] for ur, row in zip(u, B)) for j in range(n)]
        if any(v == 0 for v in ub):
            continue
        x = []
        for j in range(n):
            v = ub[j]
            for ti, arow in zip(t, A):
                v *= ti ** arow[j]
            x.append(v)
        pts.append(x)
    return pts


def curve_points(param, count, rng):
    """Points x_i = f_i(t) of a parametrized curve or surface."""
    pts = []
    while len(pts) < count:
        t = [_rand_rat(rng) for _ in range(param["d"])]
        x = []
        for comp in param["components"]:
            v = Fraction(0)
            for term in comp["terms"]:
                m = Fraction(term["coeff"])
                for ti, e in zip(t, term["exp"]):
                    m *= ti ** e
                v += m
            x.append(v)
        if all(x):
            pts.append(x)
    return pts


def _poly_terms(poly):
    return [(Fraction(str(t["coeff"])), tuple(t["exp"]))
            for t in poly["terms"]]


def eval_exact(terms, x):
    total = Fraction(0)
    for c, e in terms:
        if c:
            m = c
            for xi, k in zip(x, e):
                if k:
                    m *= xi ** k
            total += m
    return total


def eval_mod(terms, x, p):
    """F(x) mod p, or None when a coordinate has a denominator p."""
    xm = []
    for v in x:
        if v.denominator % p == 0:
            return None
        xm.append(v.numerator * pow(v.denominator, -1, p) % p)
    total = 0
    for c, e in terms:
        if c:
            m = c.numerator * pow(c.denominator, -1, p)
            for xi, k in zip(xm, e):
                if k:
                    m = m * pow(xi, k, p) % p
            total += m
    return total % p


def euler_ok(f_vector):
    """sum (-1)^i f_i = 1 - (-1)^d for a d-polytope's proper faces."""
    d = len(f_vector)
    return sum((-1) ** i * f for i, f in enumerate(f_vector)) == 1 - (-1) ** d


def _check_seed_rng(seed):
    # a stream the program never sees: it gets only --seed, not this string
    return random.Random(f"perfbench-check-{seed}")


# ---------------------------------------------------------------------------
# checks


def _load(artifact):
    try:
        return json.loads(artifact), None
    except (ValueError, UnicodeDecodeError) as exc:
        return None, f"artifact is not JSON: {exc}"


def _check_polytope(poly, f_vector, lattice_points):
    problems = []
    if poly.get("f_vector") != list(f_vector):
        problems.append(f"f-vector {poly.get('f_vector')} != {f_vector}")
    if not euler_ok(poly.get("f_vector") or [1]):
        problems.append("f-vector violates Euler's relation")
    if poly.get("lattice_point_count") != lattice_points:
        problems.append(f"lattice points {poly.get('lattice_point_count')} "
                        f"!= {lattice_points}")
    return problems


def polynomial_check(points, modulus, f_vector, lattice_points, samples):
    """Checks for adisc and implicitize artifacts with an equation.

    ``points(rng, k)`` draws k fresh points of the hypersurface.  With a
    modulus the equation must vanish mod p; without one it must vanish
    exactly and carry a nonzero coefficient at every vertex of P.
    """

    def check(artifact, inp, seed):
        obj, err = _load(artifact)
        if err:
            return [(0, err)]
        problems = _check_polytope(obj["polytope"], f_vector, lattice_points)
        poly = obj.get("polynomial")
        if poly is None:
            return [(0, p) for p in problems + ["no polynomial"]]
        if poly.get("modulus") != modulus:
            problems.append(f"modulus {poly.get('modulus')} != {modulus}")
        terms = _poly_terms(poly)
        if len(terms) != lattice_points or not any(c for c, _ in terms):
            problems.append("equation is zero or has the wrong basis")
        if modulus is None:
            coeff = dict((e, c) for c, e in terms)
            for v in obj["polytope"]["vertices"]:
                if not coeff.get(tuple(v)):
                    problems.append(f"vertex {v} has coefficient zero")
        rng = _check_seed_rng(seed)
        checked = 0
        while checked < samples:
            (x,) = points(rng, 1)
            if modulus is None:
                value = eval_exact(terms, x)
            else:
                value = eval_mod(terms, x, modulus)
            if value is None:
                continue
            if value:
                problems.append(f"equation is {value} at a fresh sample")
                break
            checked += 1
        return [(0, p) for p in problems]

    return check


def polytope_check(f_vector, lattice_points):
    def check(artifact, inp, seed):
        obj, err = _load(artifact)
        if err:
            return [(0, err)]
        return [(0, p) for p in _check_polytope(obj["polytope"], f_vector,
                                                lattice_points)]
    return check


def chow_check(artifact, inp, seed):
    obj, err = _load(artifact)
    if err:
        return [(0, err)]
    problems = []
    if obj.get("shift") != QUARTIC_SHIFT:
        problems.append(f"shift {obj.get('shift')} != {QUARTIC_SHIFT}")
    got = sorted(tuple(v) for v in obj["translated_polytope"]["vertices"])
    if got != QUARTIC_TRANSLATED:
        problems.append("translated Chow polytope vertices differ")
    got = sorted(tuple(v) for v in obj["polytope"]["vertices"])
    if got != QUARTIC_CHOW:
        problems.append("Chow polytope vertices differ")
    coeffs = {tuple(tuple(f) for f in t["factors"]): Fraction(str(t["coeff"]))
              for t in obj["chow_form"]["terms"]}
    for factors, want in QUARTIC_SPOT_COEFFS.items():
        if coeffs.get(factors) != want:
            problems.append(f"Chow form coefficient at {factors} is "
                            f"{coeffs.get(factors)}, expected {want}")
    return [(0, p) for p in problems]


def mfp_check(artifact, inp, seed):
    """One record per fixed triple, echoing it, with a valid f-vector."""
    triples = inp["fixed"]
    problems = []
    try:
        records = [json.loads(line) for line in artifact.splitlines()]
    except (ValueError, UnicodeDecodeError) as exc:
        return [(k, f"records are not JSON lines: {exc}")
                for k in range(len(triples))]
    for k, triple in enumerate(triples):
        rec = next((r for r in records if r.get("trial") == k), None)
        if rec is None:
            problems.append((k, "no record"))
        elif "error" in rec:
            problems.append((k, f"{rec['error']}: {rec.get('message')}"))
        elif rec.get("kind") != "fixed" or rec.get("points") != triple:
            problems.append((k, "record does not echo its input triple"))
        elif not rec.get("f_vector") or not euler_ok(rec["f_vector"]) \
                or rec["f_vector"][0] != rec.get("vertices"):
            problems.append((k, f"bad f-vector {rec.get('f_vector')}"))
    if len(records) != len(triples):
        problems.append((len(triples) - 1,
                         f"{len(records)} records for {len(triples)} triples"))
    return problems


# ---------------------------------------------------------------------------
# inputs


def random_triangles(seed, count, coord):
    """count triples of lattice triangles, none of them degenerate."""
    rng = random.Random(f"perfbench-mfp-{seed}")
    out = []
    while len(out) < count:
        triple = []
        while len(triple) < 3:
            (a, b), (c, d), (e, f) = pts = [
                (rng.randint(-coord, coord), rng.randint(-coord, coord))
                for _ in range(3)]
            if (c - a) * (f - b) - (d - b) * (e - a) != 0:
                triple.append([list(p) for p in pts])
        out.append(triple)
    return out


def mfp_input(count, coord):
    # each job of a run searches a batch of its own, as a long search does;
    # the run's median then covers several batches, not one seed's luck
    def make(seed, job):
        return {"vertex_counts": [3, 3, 3], "trials": 0,
                "fixed": random_triangles(f"{seed}-{job}", count, coord)}
    return make


def chow_input(seed, job):
    ones = [1, 1, 1, 1]
    cycle = {"ambient_dim": 4, "pure_dim": 2, "items": [
        {"cone": {"rays": [list(r)], "lineality": [ones]}, "weight": 1}
        for r in QUARTIC_RAYS]}
    return {"parametrization": QUARTIC, "cycle": cycle}


def _const(obj):
    return lambda seed, job: obj


def _horn(A):
    return lambda rng, k: horn_points(A, k, rng)


def _curve(param):
    return lambda rng, k: curve_points(param, k, rng)


# The benchmarked workloads, listed in BENCHMARK.json.  Together they run
# every traced layer.  Runs are long (40 s) because the speed of a shared
# host drifts over tens of seconds; three workloads at that length keep a
# full set of repeated runs under an hour.
WORKLOADS = [
    Workload(
        name="adisc-crt",
        why="6-point discriminant over Q from 4 word-size primes: per-prime "
            "row evaluation, CRT lifting and exact verification dominate",
        argv=("adisc", "--field", "crt:2"),
        make_input=_const({"rows": CRT_MATRIX}),
        check=polynomial_check(_horn(CRT_MATRIX), None, (10, 15, 7), 205,
                               3),
        sha256=("ce0b58c751d48af087d5f5efb2473525"
                "b582117b2ce20e7c0f877291d063a2a9"),
    ),
    Workload(
        name="mfp-triangles",
        why="mixed fiber polytopes of seeded triangle triples: the image "
            "cycle path, mixed volumes over hundreds of tiny hulls",
        argv=("mfp-search",),
        make_input=mfp_input(MFP_BATCH, MFP_COORD),
        check=mfp_check,
        units=lambda inp: len(inp["fixed"]),
    ),
    Workload(
        name="chow-quartic",
        why="Chow form of the space quartic from its given cycle: the only "
            "workload on stable sums, shift search and Chow-form solves",
        argv=("chow",),
        make_input=chow_input,
        check=chow_check,
        sha256=("2e472333dc6d4d12e0b9fc3e55bbf525"
                "12813cceed5b0f7b59114de2f4ba05aa"),
    ),
]

# Runnable by name but not benchmarked: the kernel-bound and the
# hull- and enumeration-bound jobs.  Their layers are traced on the
# benchmarked workloads too, with other weights.
EXTRA_WORKLOADS = [
    Workload(
        name="adisc-gf101",
        why="6-point discriminant mod 101 (496 monomials): the small-prime "
            "modular kernel and its rank-deficient first solve dominate",
        argv=("adisc", "--field", "gf:101"),
        make_input=_const({"rows": GF101_MATRIX}),
        check=polynomial_check(_horn(GF101_MATRIX), 101, (12, 18, 8), 496,
                               10),
        sha256=("03e589a40ce14c12854dc811cd4da58d"
                "f33f3294320c8317569911b624e119f7"),
    ),
    Workload(
        name="adisc-split8",
        why="polytope of the split 8-point discriminant: vertex oracle, "
            "about 30 large hulls, 43400 lattice points; no kernel at all",
        argv=("adisc", "--polytope-only"),
        make_input=_const({"rows": SPLIT_PRIME_MATRIX}),
        check=polytope_check((45, 92, 63, 16), 43400),
        sha256=("b0e549dc6625068f6dd62cdcaa8bcd42"
                "45349a464f4d59ea2f24349e5e3c8879"),
    ),
]

# Tiny inputs for the harness self-test: the README's quadratic
# discriminant b^2 - 4ac and its plane curve.
SELFTEST_WORKLOADS = [
    Workload(
        name="quadratic-gf101",
        why="b^2 - 4ac mod 101",
        argv=("adisc", "--field", "gf:101"),
        make_input=_const({"rows": QUADRATIC_MATRIX}),
        check=polynomial_check(_horn(QUADRATIC_MATRIX), 101, (2,), 2, 10),
    ),
    Workload(
        name="quadratic-crt",
        why="b^2 - 4ac by CRT",
        argv=("adisc", "--field", "crt:2"),
        make_input=_const({"rows": QUADRATIC_MATRIX}),
        check=polynomial_check(_horn(QUADRATIC_MATRIX), None, (2,), 2, 3),
    ),
    Workload(
        name="plane-curve",
        why="the README plane curve over Q",
        argv=("implicitize",),
        make_input=_const(PLANE_CURVE),
        check=polynomial_check(_curve(PLANE_CURVE), None, (3, 3), 25, 3),
    ),
    Workload(
        name="mfp-small",
        why="one small triangle triple",
        argv=("mfp-search",),
        make_input=mfp_input(1, 3),
        check=mfp_check,
        units=lambda inp: len(inp["fixed"]),
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS + EXTRA_WORKLOADS + SELFTEST_WORKLOADS}


def write_input(w, seed, directory, job=0):
    """Generate the input of one job of a run and write it as JSON."""
    inp = w.make_input(seed, job)
    path = directory / f"{w.name}.in.json"
    path.write_text(json.dumps(inp) + "\n")
    return inp, path
