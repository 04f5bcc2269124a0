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
import hashlib
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
    VerificationFailed,
)
from .implicitize import (
    OracleConfig,
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
    "--field": {"help": "q, gf:<prime> or crt:<count>"},
    "--seed": {"type": int},
    "--height": {"type": int, "help": "height of random rational samples"},
    "--delta": {"type": int,
                "help": "degree of the parametrization onto its image"},
    "--polytope-only": {"action": "store_true",
                        "help": "stop after polytope reconstruction"},
    "--force": {"action": "store_true",
                "help": "lift the lattice enumeration size guard"},
}

# the flags each subcommand reads; it rejects any other
COMMAND_FLAGS = {
    "trop-cycle": ("--delta",),
    "adisc": ("--field", "--seed", "--height", "--polytope-only", "--force"),
    "newton": ("--seed", "--delta", "--force"),
    "implicitize": ("--field", "--seed", "--height", "--delta",
                    "--polytope-only", "--force"),
    "chow": ("--field", "--seed", "--height", "--delta", "--polytope-only"),
    "mfp-search": ("--seed", "--delta"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as InputFormatError, so it ends in the
    one-line JSON error and exit 2 like any other unreadable input."""

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


def _build_parser():
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
    return json.dumps(obj, indent=2) + "\n"


def _oracle_cfg(seed):
    return OracleConfig(rng_seed=seed)


def _trial_seed(master, index):
    digest = hashlib.blake2b(f"{master}:{index}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _as_matrix(obj):
    try:
        rows = [[int(x) for x in row] for row in obj["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad matrix: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputFormatError("matrix rows missing or ragged")
    return rows


def _as_cycle(obj):
    try:
        return TropicalCycle.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad cycle: {exc}") from exc


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
                f"vertex {[ec.rat_to_json(x) for x in v]} of the polytope "
                f"is not {what}")


def _check_equation(spec, P, poly):
    # a true vertex coefficient may vanish mod p, so gf is not checked
    if parse_field(spec.field)[0] != "gf":
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
        C = _as_cycle(obj["cycle"])
    elif isinstance(obj, dict) and "items" in obj:
        C = _as_cycle(obj)
    else:
        C = get_tropical_cycle(_input_polytopes(obj), spec.delta)
    P = reconstruct_polytope(C, _oracle_cfg(spec.seed))
    return {"polytope": _polytope_artifact(P, spec.force)}


def cmd_implicitize(spec, obj):
    f = Parametrization.from_json(obj)
    C = get_tropical_cycle(f.newton_polytopes(), spec.delta)
    P = reconstruct_polytope(C, _oracle_cfg(spec.seed))
    out = {"cycle": C.to_json(),
           "polytope": _polytope_artifact(P, spec.force)}
    if not spec.polytope_only:
        poly = implicit_equation(f, P, field=spec.field, seed=spec.seed,
                                 height=spec.height)
        _check_equation(spec, P, poly)
        out["polynomial"] = poly.to_json()
    return out


def cmd_adisc(spec, obj):
    A = _as_matrix(obj)
    C = get_trop_a_disc(A)
    P = reconstruct_polytope(C, _oracle_cfg(spec.seed))
    out = {"cycle": C.to_json(),
           "polytope": _polytope_artifact(P, spec.force)}
    if not spec.polytope_only:
        B = [list(b) for b in ec.rational_kernel(A)]
        poly = implicit_equation((A, B), P, field=spec.field, seed=spec.seed,
                                 height=spec.height)
        _check_equation(spec, P, poly)
        out["polynomial"] = poly.to_json()
    return out


def cmd_chow(spec, obj):
    kind, _ = parse_field(spec.field)
    if kind != "q":
        raise InputFormatError("chow runs over exact rationals; use --field q")
    if not isinstance(obj, dict) or "parametrization" not in obj:
        raise InputFormatError("chow input needs a parametrization")
    f = Parametrization.from_json(obj["parametrization"])
    d, n = f.d, f.n
    if "cycle" in obj:
        C = _as_cycle(obj["cycle"])
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
            fan.negated(), _oracle_cfg(spec.seed)).to_json()
        return out
    translated, shift, P, form = chow_polytope(
        C, d, f, seed=spec.seed, height=spec.height,
        cfg=_oracle_cfg(spec.seed))
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
    appended to the record file with its own seed.
    """
    if not isinstance(obj, dict):
        raise InputFormatError("search config must be a JSON object")
    try:
        counts = [int(v) for v in obj["vertex_counts"]]
        coord_height = int(obj.get("height", 100))
        trials = int(obj.get("trials", 0))
        fixed = list(obj.get("fixed", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad search config: {exc}") from exc
    if len(counts) < 2 or any(v < 1 for v in counts):
        raise InputFormatError("vertex_counts needs >= 2 entries, all >= 1")
    if coord_height < 1 or trials < 0:
        raise InputFormatError("height must be >= 1 and trials >= 0")
    d = len(counts) - 1
    jobs = []
    for pts in fixed:
        try:
            pts = [[tuple(int(x) for x in p) for p in poly] for poly in pts]
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"bad fixed configuration: {exc}") from exc
        if len(pts) != len(counts) or any(
                len(p) != d for poly in pts for p in poly):
            raise InputFormatError(
                f"fixed configurations need {len(counts)} polytopes with "
                f"{d}-dimensional points")
        jobs.append((None, pts))
    for k in range(trials):
        s = _trial_seed(spec.seed, k)
        rng = random.Random(s)
        pts = [[tuple(rng.randint(-coord_height, coord_height)
                      for _ in range(d)) for _ in range(v)]
               for v in counts]
        jobs.append((s, pts))

    best = None
    written = 0
    with open(spec.output_path, "a") as fh:
        def emit(rec):
            fh.write(json.dumps(rec) + "\n")
            fh.flush()

        for index, (s, pts) in enumerate(jobs):
            rec = {"trial": index,
                   "kind": "fixed" if s is None else "random",
                   "points": [[list(p) for p in poly] for poly in pts]}
            if s is not None:
                rec["seed"] = s
            try:
                polys = [Polytope(p) for p in pts]
                C = get_tropical_cycle(polys, spec.delta)
                P = reconstruct_polytope(
                    C, _oracle_cfg(spec.seed if s is None else s))
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
    print(json.dumps({"trials": len(jobs), "records": written,
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
