"""Batch front end: each pipeline stage is a subcommand with JSON files.

    tropimpl trop-cycle  --in param.json  --out cycle.json
    tropimpl newton      --in cycle.json  --out polytope.json
    tropimpl implicitize --in param.json  --out result.json [--field gf:101]
    tropimpl adisc       --in matrix.json --out result.json [--polytope-only]
    tropimpl chow        --in chow.json   --out result.json
    tropimpl mfp-search  --in config.json --out leaderboard.jsonl

Artifacts are written atomically on success.  mfp-search instead appends
one JSON record per line, so long random searches are crash safe and a
record file can accumulate over many invocations.  On failure a machine
readable error object goes to stdout and the exit code is 2 (unreadable
input), 3 (precondition violated) or 4 (computation failed).

All randomness flows from the master ``--seed`` through a counter based
splitter, so identical invocations produce byte identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import random
import tempfile
from dataclasses import dataclass

from . import exactcore as ec
from .chow import chow_fan, chow_polytope
from .errors import (
    DimensionMismatch,
    InputFormatError,
    OracleInconsistent,
    TropicalError,
    UnbalancedCycle,
    VerificationFailed,
)
from .implicitize import (
    Parametrization,
    get_trop_a_disc,
    get_tropical_cycle,
    reconstruct_polytope,
)
from .interpolate import implicit_equation, parse_field
from .polyhedra import Polytope
from .tropical import TropicalCycle, homogenize_cycle

COMMANDS = ("trop-cycle", "adisc", "newton", "implicitize", "chow",
            "mfp-search")
ERROR_KIND = {2: "parse", 3: "precondition", 4: "computation"}
# An mfp-search vertex count is the number of points drawn for one input
# polytope of every random trial, and each trial's record holds them all.
# With three counts of 10^4 in the plane one trial takes about 4 s and
# writes a 0.3 MB record (2-vCPU host), while the search is meant for a
# few points per polytope; a count of 2^70 could never be drawn.
MAX_VERTEX_COUNT = 10 ** 4


@dataclass
class JobSpec:
    command: str
    input_path: str
    output_path: str
    field: str = "q"
    seed: int = 0
    height: int = 20
    delta: int = 1
    polytope_only: bool = False
    force: bool = False

    def validate(self):
        parse_field(self.field)
        if self.height < 2:
            raise InputFormatError("height must be at least 2")
        if self.delta < 1:
            raise InputFormatError("delta must be a positive integer")


# add_argument keywords of each optional flag; the defaults are JobSpec's
FLAGS = {
    "--field": {"help": "q, gf:<prime>, or crt:<count> as an alias of q"},
    "--seed": {"type": int},
    "--height": {"type": int, "help": "height of random rational samples"},
    "--delta": {"type": int,
                "help": "degree of the parametrization onto its image"},
    "--polytope-only": {"action": "store_true",
                        "help": "stop after polytope reconstruction"},
    "--force": {"action": "store_true",
                "help": "lift the lattice-point sweep budget"},
}

# the flags each subcommand reads; it rejects any other
COMMAND_FLAGS = {
    "trop-cycle": ("--delta",),
    "adisc": ("--field", "--seed", "--height", "--polytope-only", "--force"),
    "newton": ("--delta", "--force"),
    "implicitize": ("--field", "--seed", "--height", "--delta",
                    "--polytope-only", "--force"),
    "chow": ("--seed", "--height", "--delta", "--polytope-only"),
    "mfp-search": ("--seed", "--delta"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as InputFormatError, so it ends in the
    one-line JSON error and exit 2 like any other unreadable input."""

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: argparse leaves
    every parser and formatter it builds in reference cycles, and parsing
    with a finished one leaves none."""
    parser = _Parser(
        prog="tropimpl",
        description="tropical implicitization pipeline with JSON i/o")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # a flag left out stays out of the namespace: JobSpec's default holds
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--in", dest="input_path", required=True,
                        help="input JSON file")
        sp.add_argument("--out", dest="output_path", required=True,
                        help="output artifact file")
        for flag in COMMAND_FLAGS[name]:
            sp.add_argument(flag, **FLAGS[flag])
    return parser


# ---------------------------------------------------------------------------
# shared plumbing

def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON in {path}: {exc}") from exc


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tropimpl-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dumps(obj):
    """``json.dumps(obj, indent=2)`` and a newline, for string keys.

    Written out because json's indenting encoder leaves its recursive
    closures in a reference cycle on every call."""
    return _indented(obj, "\n") + "\n"


def _indented(obj, pad):
    if type(obj) is int:
        return int.__repr__(obj)
    if obj and isinstance(obj, (dict, list, tuple)):
        inner = pad + "  "
        if isinstance(obj, dict):
            body = ",".join(f"{inner}{json.dumps(k)}: {_indented(v, inner)}"
                            for k, v in obj.items())
            return f"{{{body}{pad}}}"
        body = ",".join(inner + _indented(v, inner) for v in obj)
        return f"[{body}{pad}]"
    return json.dumps(obj)


def _trial_seed(master, index):
    digest = hashlib.blake2b(f"{master}:{index}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _as_matrix(obj):
    try:
        rows = [list(ec.vec_from_json(row)) for row in obj["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad matrix: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputFormatError("matrix rows missing or ragged")
    return rows


def _as_cycle(obj, delta):
    """Parse a given cycle and check that it is balanced when every cone
    is one ray r_i over a common lineality L.  With k_i the index of
    L + Z r_i in its saturation, the ``index`` of one ``saturate`` of
    those generators, r_i / k_i generates the cone's lattice modulo L, so
    the sum of w_i r_i / k_i must lie in span_Q(L) (Maclagan, Sturmfels,
    Introduction to Tropical Geometry, 3.3).  Other cycles pass
    unchecked.
    ``--delta``, the degree of a parametrization onto its image, has no
    meaning for a given cycle, so any value but 1 is InputFormatError.
    """
    if delta != 1:
        raise InputFormatError(
            "--delta applies to a parametrization or polytopes, not to a "
            "given cycle")
    try:
        C = TropicalCycle.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad cycle: {exc}") from exc
    cones = [cone for cone, _ in C]
    if cones and all(len(c.rays) == 1 and c.lineality == cones[0].lineality
                     for c in cones):
        L = list(cones[0].lineality)
        total = (0,) * C.ambient_dim
        for cone, w in C:
            k = ec.saturate(L + [cone.rays[0]], C.ambient_dim).index
            total = ec.vec_add(
                total, tuple(ec.div_exact(w * x, k) for x in cone.rays[0]))
        if ec.rational_rank(L + [total]) > len(L):
            raise UnbalancedCycle(
                "cycle is not balanced: its weighted primitive ray "
                f"generators sum to {[ec.rat_to_json(x) for x in total]}, "
                "outside the span of the lineality")
    return C


def _input_polytopes(obj):
    """Newton polytopes from a parametrization, or explicit polytopes."""
    if isinstance(obj, dict) and "components" in obj:
        return Parametrization.from_json(obj).newton_polytopes()
    if isinstance(obj, dict) and "polytopes" in obj:
        try:
            return [Polytope.from_json(p) for p in obj["polytopes"]]
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"bad polytope list: {exc}") from exc
    raise InputFormatError(
        "input needs a parametrization (components) or a polytope list")


def _check_newton_polytope(P, support, what):
    """VerificationFailed unless every vertex of P lies in support, the
    exponents (or weights) of the nonzero terms: P must be the Newton
    polytope (or Chow polytope) of what was interpolated on it."""
    for v in P.vertices:
        if tuple(v) not in support:
            raise VerificationFailed(
                f"vertex {list(v)} of the polytope is not {what}")


def _check_equation(P, poly):
    # a true vertex coefficient may vanish mod p, so gf is not checked
    if poly.modulus is None:
        _check_newton_polytope(P, {e for _, e in poly.terms()},
                               "the exponent of a term of the equation")


def _polytope_artifact(P, force=False):
    out = P.to_json()
    out["f_vector"] = list(P.f_vector())
    out["lattice_point_count"] = len(P.lattice_points(force=force))
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_trop_cycle(spec, obj):
    polys = _input_polytopes(obj)
    C = get_tropical_cycle(polys, spec.delta)
    return {"cycle": C.to_json()}


def cmd_newton(spec, obj):
    if isinstance(obj, dict) and "cycle" in obj:
        C = _as_cycle(obj["cycle"], spec.delta)
    elif isinstance(obj, dict) and "items" in obj:
        C = _as_cycle(obj, spec.delta)
    else:
        C = get_tropical_cycle(_input_polytopes(obj), spec.delta)
    P = reconstruct_polytope(C)
    return {"polytope": _polytope_artifact(P, spec.force)}


def cmd_implicitize(spec, obj):
    f = Parametrization.from_json(obj)
    C = get_tropical_cycle(f.newton_polytopes(), spec.delta)
    P = reconstruct_polytope(C)
    out = {"cycle": C.to_json(),
           "polytope": _polytope_artifact(P, spec.force)}
    if not spec.polytope_only:
        poly = implicit_equation(f, P, field=spec.field, seed=spec.seed,
                                 height=spec.height)
        _check_equation(P, poly)
        out["polynomial"] = poly.to_json()
    return out


def cmd_adisc(spec, obj):
    A = _as_matrix(obj)
    C = get_trop_a_disc(A)
    P = reconstruct_polytope(C)
    out = {"cycle": C.to_json(),
           "polytope": _polytope_artifact(P, spec.force)}
    if not spec.polytope_only:
        poly = implicit_equation((A, ec.gale_dual(A)), P, field=spec.field,
                                 seed=spec.seed, height=spec.height)
        _check_equation(P, poly)
        out["polynomial"] = poly.to_json()
    return out


def cmd_chow(spec, obj):
    if not isinstance(obj, dict) or "parametrization" not in obj:
        raise InputFormatError("chow input needs a parametrization")
    f = Parametrization.from_json(obj["parametrization"])
    d, n = f.d, f.n
    if "cycle" in obj:
        C = _as_cycle(obj["cycle"], spec.delta)
    else:
        C = get_tropical_cycle(f.newton_polytopes(), spec.delta)
    if (C.ambient_dim, C.pure_dim) == (n, d):
        C = homogenize_cycle(C)
    elif (C.ambient_dim, C.pure_dim) != (n + 1, d + 1):
        raise DimensionMismatch(
            f"cycle of dimension {C.pure_dim} in R^{C.ambient_dim} does not "
            f"match a {d}-dimensional variety in P^{n}")
    fan = chow_fan(C, d)
    out = {"fan": fan.to_json()}
    if spec.polytope_only:
        out["translated_polytope"] = reconstruct_polytope(
            fan.negated()).to_json()
        return out
    translated, shift, P, form = chow_polytope(
        fan, d, f, seed=spec.seed, height=spec.height)
    _check_newton_polytope(P, set(form.weights()),
                           "the weight of a term of the Chow form")
    out["translated_polytope"] = translated.to_json()
    out["shift"] = list(shift)
    out["polytope"] = P.to_json()
    out["chow_form"] = form.to_json()
    return out


def cmd_mfp_search(spec, obj):
    """Random search for mixed fiber polytopes with many vertices.

    The config gives the vertex counts of the input polytopes (their
    number fixes the dimension), a coordinate height, a random trial
    count and optionally fixed point configurations.  Every fixed trial,
    every improvement of the vertex record and every failed trial is
    appended to the record file with its own seed.  The config, fixed
    configurations included, is checked before the record file is opened;
    each random trial draws its points from its seed when it runs.
    """
    if not isinstance(obj, dict):
        raise InputFormatError("search config must be a JSON object")
    try:
        counts = ec.vec_from_json(obj["vertex_counts"])
        coord_height = ec.int_from_json(obj.get("height", 100))
        trials = ec.int_from_json(obj.get("trials", 0))
        fixed = list(obj.get("fixed", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad search config: {exc}") from exc
    if len(counts) < 2 or any(v < 1 for v in counts):
        raise InputFormatError("vertex_counts needs >= 2 entries, all >= 1")
    if max(counts) > MAX_VERTEX_COUNT:
        raise InputFormatError(
            f"vertex_counts entries must be at most {MAX_VERTEX_COUNT}")
    if coord_height < 1 or trials < 0:
        raise InputFormatError("height must be >= 1 and trials >= 0")
    d = len(counts) - 1
    jobs = []
    for pts in fixed:
        try:
            pts = [[ec.vec_from_json(p) for p in poly] for poly in pts]
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"bad fixed configuration: {exc}") from exc
        if len(pts) != len(counts) or any(
                len(p) != d for poly in pts for p in poly):
            raise InputFormatError(
                f"fixed configurations need {len(counts)} polytopes with "
                f"{d}-dimensional points")
        jobs.append((None, pts))

    def drawn(k):
        s = _trial_seed(spec.seed, k)
        rng = random.Random(s)
        return s, [[tuple(rng.randint(-coord_height, coord_height)
                          for _ in range(d)) for _ in range(v)]
                   for v in counts]

    best = None
    written = 0
    with open(spec.output_path, "a") as fh:
        def emit(rec):
            fh.write(json.dumps(rec) + "\n")
            fh.flush()

        for index, (s, pts) in enumerate(
                itertools.chain(jobs, map(drawn, range(trials)))):
            rec = {"trial": index,
                   "kind": "fixed" if s is None else "random",
                   "points": [[list(p) for p in poly] for poly in pts]}
            if s is not None:
                rec["seed"] = s
            try:
                polys = [Polytope(p) for p in pts]
                C = get_tropical_cycle(polys, spec.delta)
                P = reconstruct_polytope(C)
                nv = len(P.vertices)
                if P.dim <= 1 and nv > 2:
                    raise OracleInconsistent(
                        f"{nv} vertices on a result of dimension {P.dim}")
                rec["vertices"] = nv
                rec["f_vector"] = list(P.f_vector())
                improved = best is None or nv > best
                if improved:
                    best = nv
                if s is None or improved:
                    emit(rec)
                    written += 1
            except (TropicalError, ValueError) as exc:
                rec["error"] = type(exc).__name__
                rec["message"] = str(exc)
                emit(rec)
                written += 1
    print(json.dumps({"trials": len(jobs) + trials, "records": written,
                      "best_vertices": best}))
    return None


DISPATCH = {
    "trop-cycle": cmd_trop_cycle,
    "adisc": cmd_adisc,
    "newton": cmd_newton,
    "implicitize": cmd_implicitize,
    "chow": cmd_chow,
    "mfp-search": cmd_mfp_search,
}


def main(argv=None):
    try:
        spec = JobSpec(**vars(_build_parser().parse_args(argv)))
        spec.validate()
        obj = _load_json(spec.input_path)
        artifact = DISPATCH[spec.command](spec, obj)
        if artifact is not None:
            _write_atomic(spec.output_path, _dumps(artifact))
    except TropicalError as exc:
        print(json.dumps({"error": ERROR_KIND[exc.exit_code],
                          "type": type(exc).__name__,
                          "message": str(exc)}))
        return exc.exit_code
    except ValueError as exc:
        print(json.dumps({"error": "precondition",
                          "type": type(exc).__name__,
                          "message": str(exc)}))
        return 3
    except OSError as exc:
        print(json.dumps({"error": "precondition",
                          "type": type(exc).__name__,
                          "message": str(exc)}))
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
