"""End-to-end tests of the command line front end.

Every test drives main() with real files in a temp directory, checking the
artifact wire formats, the error object contract and byte determinism.
The curve fixtures and their expected equations match the library tests.
"""

import hashlib
import json
import os
import importlib
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import tropimpl
from oracle_utils import (
    inflating_gfp_kernel,
    pluecker_poly_from_json,
    pluecker_poly_value,
    unreachable_after,
)
from tropimpl import chow, cli, polyhedra
from tropimpl import exactcore as ec
from tropimpl.chow import PluckerPoly
from tropimpl.cli import JobSpec, _trial_seed, main
from tropimpl.errors import InputFormatError
from tropimpl.interpolate import (
    VERIFY_SAMPLES,
    ImplicitPolynomial,
    MonomialBasis,
)
from tropimpl.tropical import TropicalCycle

CURVE = {"d": 1, "n": 2, "components": [
    {"terms": [{"coeff": 11, "exp": [2]}, {"coeff": 5, "exp": [3]},
               {"coeff": -1, "exp": [4]}]},
    {"terms": [{"coeff": 11, "exp": [0]}, {"coeff": 11, "exp": [1]},
               {"coeff": 7, "exp": [8]}]}]}

# x = t^4 + t, y = t^2 + 2t; its equation has a lattice point of the
# Newton polytope with coefficient zero
SPARSE_CURVE = {"d": 1, "n": 2, "components": [
    {"terms": [{"coeff": 1, "exp": [4]}, {"coeff": 1, "exp": [1]}]},
    {"terms": [{"coeff": 1, "exp": [2]}, {"coeff": 2, "exp": [1]}]}]}

CUSP_JOB = {"parametrization": {"d": 1, "n": 2, "components": [
    {"terms": [{"coeff": 1, "exp": [2]}]},
    {"terms": [{"coeff": 1, "exp": [3]}]}]}}

# criterion 07's space quartic with its given cycle: rays modulo the
# all-ones line, read off at t = 0, 1, -1, oo
QUARTIC_JOB = {
    "parametrization": {"d": 1, "n": 3, "components": [
        {"terms": [{"coeff": 1, "exp": [3]}, {"coeff": -1, "exp": [1]}]},
        {"terms": [{"coeff": 1, "exp": [3]}, {"coeff": 1, "exp": [2]}]},
        {"terms": [{"coeff": 1, "exp": [4]}, {"coeff": -1, "exp": [3]}]}]},
    "cycle": {"ambient_dim": 4, "pure_dim": 2, "items": [
        {"cone": {"rays": [ray], "lineality": [[1, 1, 1, 1]]}, "weight": 1}
        for ray in ([0, 1, 2, 3], [0, 1, 1, 0], [0, 1, 0, 1],
                    [0, -3, -3, -4])]}}

TRIANGLES = [
    [[898, -614], [-570, 817], [892, -594]],
    [[-603, -481], [-623, -127], [-36, 732]],
    [[-548, -864], [-151, 873], [800, -861]]]


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv, capsys=None):
    rc = main(argv)
    if capsys is None:
        return rc, None
    return rc, capsys.readouterr().out


def fresh_run_imports_numpy(argv):
    """Whether ``main(argv)``, run in a fresh interpreter, imports numpy;
    the run must exit 0."""
    src = os.path.dirname(os.path.dirname(tropimpl.__file__))
    script = ("import sys\n"
              "from tropimpl.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "print(rc, 'numpy' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    rc, imported = proc.stdout.split()
    assert rc == "0", proc.stderr
    return imported == "True"


@pytest.mark.parametrize("command,obj", [
    ("implicitize", CURVE), ("adisc", {"rows": [[1, 1, 1], [0, 1, 2]]})])
def test_small_q_job_never_imports_numpy(tmp_path, command, obj):
    # bases of at most ec.GFP_PYTHON_COLUMNS monomials are evaluated and
    # solved in Python ints, as in a chow job
    assert fresh_run_imports_numpy(
        [command, "--in", write(tmp_path / "in.json", obj),
         "--out", str(tmp_path / "o.json")]) is False


class TestJobSpec:
    def test_defaults_validate(self):
        JobSpec("implicitize", "a.json", "b.json").validate()

    def test_bad_field_rejected(self):
        with pytest.raises(InputFormatError):
            JobSpec("implicitize", "a", "b", field="gf:10").validate()

    def test_bad_height_rejected(self):
        with pytest.raises(InputFormatError):
            JobSpec("implicitize", "a", "b", height=1).validate()


class TestTrialSeed:
    def test_deterministic_and_spread(self):
        seeds = [_trial_seed(0, k) for k in range(50)]
        assert seeds == [_trial_seed(0, k) for k in range(50)]
        assert len(set(seeds)) == 50
        assert set(seeds).isdisjoint(_trial_seed(1, k) for k in range(50))


class TestTropCycle:
    def test_curve_cycle_artifact(self, tmp_path):
        out = tmp_path / "cycle.json"
        rc, _ = run(["trop-cycle", "--in", write(tmp_path / "p.json", CURVE),
                     "--out", str(out)])
        assert rc == 0
        art = json.loads(out.read_text())
        C = TropicalCycle.from_json(art["cycle"])
        assert C.ambient_dim == 2 and C.pure_dim == 1
        got = sorted((cone.rays[0], w) for cone, w in C)
        assert got == [((-1, -2), 4), ((0, 1), 8), ((1, 0), 2), ((1, 0), 2)]

    def test_chains_into_newton(self, tmp_path):
        cycle_file = tmp_path / "cycle.json"
        run(["trop-cycle", "--in", write(tmp_path / "p.json", CURVE),
             "--out", str(cycle_file)])
        out = tmp_path / "polytope.json"
        rc, _ = run(["newton", "--in", str(cycle_file), "--out", str(out)])
        assert rc == 0
        art = json.loads(out.read_text())["polytope"]
        assert sorted(map(tuple, art["vertices"])) == [(0, 0), (0, 4), (8, 0)]
        assert art["f_vector"] == [3, 3]
        assert art["lattice_point_count"] == 25


class TestImplicitize:
    def test_zero_coefficient_is_kept(self, tmp_path):
        out = tmp_path / "out.json"
        rc, _ = run(["implicitize",
                     "--in", write(tmp_path / "p.json", SPARSE_CURVE),
                     "--out", str(out)])
        assert rc == 0
        art = json.loads(out.read_text())
        assert sorted(art) == ["cycle", "polynomial", "polytope"]
        terms = {tuple(t["exp"]): t["coeff"]
                 for t in art["polynomial"]["terms"]}
        assert terms == {
            (0, 1): 7, (0, 2): 6, (0, 3): "0/1", (0, 4): 1,
            (1, 0): -14, (1, 1): -16, (1, 2): -2, (2, 0): 1}

    def test_polytope_only_drops_polynomial(self, tmp_path):
        out = tmp_path / "out.json"
        rc, _ = run(["implicitize",
                     "--in", write(tmp_path / "p.json", CURVE),
                     "--out", str(out), "--polytope-only"])
        assert rc == 0
        assert sorted(json.loads(out.read_text())) == ["cycle", "polytope"]

    def test_byte_identical_reruns(self, tmp_path):
        src = write(tmp_path / "p.json", CURVE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["implicitize", "--in", src, "--out", str(a),
                    "--seed", "7"])[0] == 0
        assert run(["implicitize", "--in", src, "--out", str(b),
                    "--seed", "7"])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_artifact_overwritten_in_place(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("stale")
        rc, _ = run(["implicitize",
                     "--in", write(tmp_path / "p.json", SPARSE_CURVE),
                     "--out", str(out)])
        assert rc == 0
        json.loads(out.read_text())


class TestADisc:
    def test_quadratic_discriminant(self, tmp_path):
        out = tmp_path / "out.json"
        rc, _ = run(["adisc",
                     "--in", write(tmp_path / "a.json",
                                   {"rows": [[1, 1, 1], [0, 1, 2]]}),
                     "--out", str(out)])
        assert rc == 0
        art = json.loads(out.read_text())
        assert art["polytope"]["f_vector"] == [2]
        assert art["polytope"]["lattice_point_count"] == 2
        terms = {tuple(t["exp"]): t["coeff"]
                 for t in art["polynomial"]["terms"]}
        assert terms == {(0, 2, 0): 1, (1, 0, 1): -4}

    def test_finite_field_artifact_records_modulus(self, tmp_path):
        out = tmp_path / "out.json"
        rc, _ = run(["adisc",
                     "--in", write(tmp_path / "a.json",
                                   {"rows": [[1, 1, 1], [0, 1, 2]]}),
                     "--out", str(out), "--field", "gf:101"])
        assert rc == 0
        art = json.loads(out.read_text())
        assert art["polynomial"]["modulus"] == 101
        terms = {tuple(t["exp"]): t["coeff"]
                 for t in art["polynomial"]["terms"]}
        assert terms == {(0, 2, 0): 1, (1, 0, 1): 97}

    def test_a_job_leaves_no_reference_cycles(self, tmp_path):
        # the six-point discriminant mod 101 takes the numpy kernel; the
        # first job builds the parser and imports what loads lazily
        argv = ["adisc", "--in", write(tmp_path / "a.json",
                                       TestGoldenArtifacts.SIX_POINTS),
                "--out", str(tmp_path / "out.json"), "--field", "gf:101"]
        assert main(argv) == 0
        codes = []
        assert unreachable_after(lambda: codes.append(main(argv))) == 0
        assert codes == [0]


@pytest.mark.parametrize("command,obj", [
    ("implicitize", CURVE),
    # discriminant of the binary quartic: 16 lattice points
    ("adisc", {"rows": [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]})])
def test_force_reaches_the_equation(tmp_path, monkeypatch, command, obj):
    # with the sweep budget below the lattice point count, --force must
    # lift it for the Newton polytope's enumeration and for the monomial
    # basis of the equation, which is the same enumeration
    src = write(tmp_path / "in.json", obj)
    plain, forced = tmp_path / "plain.json", tmp_path / "forced.json"
    assert run([command, "--in", src, "--out", str(plain)])[0] == 0
    monkeypatch.setattr(polyhedra, "LATTICE_POINT_BUDGET", 10)
    assert run([command, "--in", src, "--out", str(forced)])[0] == 4
    assert not forced.exists()
    assert run([command, "--in", src, "--out", str(forced), "--force"])[0] == 0
    assert forced.read_bytes() == plain.read_bytes()

    # one enumeration per job, shared by the artifact and the equation
    enumerate_points = polyhedra.Polytope._enumerate_lattice_points
    calls = []

    def counted(self, force):
        calls.append(force)
        return enumerate_points(self, force)

    monkeypatch.setattr(polyhedra.Polytope, "_enumerate_lattice_points",
                        counted)
    assert run([command, "--in", src, "--out", str(forced), "--force"])[0] == 0
    assert calls == [True]


class TestChow:
    def test_cusp_artifact(self, tmp_path):
        out = tmp_path / "out.json"
        rc, _ = run(["chow", "--in", write(tmp_path / "c.json", CUSP_JOB),
                     "--out", str(out)])
        assert rc == 0
        art = json.loads(out.read_text())
        assert sorted(art) == ["chow_form", "fan", "polytope", "shift",
                               "translated_polytope"]
        assert sorted(map(tuple, art["translated_polytope"]["vertices"])) \
            == [(0, 3, 0), (1, 0, 2)]
        assert art["shift"] == [2, 0, 1]
        assert sorted(map(tuple, art["polytope"]["vertices"])) \
            == [(2, 3, 1), (3, 0, 3)]

    def test_polytope_only_stops_at_fan(self, tmp_path):
        out = tmp_path / "out.json"
        rc, _ = run(["chow", "--in", write(tmp_path / "c.json", CUSP_JOB),
                     "--out", str(out), "--polytope-only"])
        assert rc == 0
        assert sorted(json.loads(out.read_text())) \
            == ["fan", "translated_polytope"]

    def test_chow_fan_built_once_per_job(self, tmp_path, monkeypatch):
        # cmd_chow hands its fan to chow_polytope, which must not rebuild it
        calls = []
        fan = chow.chow_fan

        def spy(*args):
            calls.append(args)
            return fan(*args)

        monkeypatch.setattr(chow, "chow_fan", spy)
        monkeypatch.setattr(cli, "chow_fan", spy)
        rc, _ = run(["chow", "--in", write(tmp_path / "c.json", QUARTIC_JOB),
                     "--out", str(tmp_path / "o.json")])
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("job", [QUARTIC_JOB, CUSP_JOB],
                             ids=["quartic", "cusp"])
    def test_one_chow_form_per_job(self, tmp_path, monkeypatch, job):
        # the shift is pinned, not searched: one translate, one solve
        forms, translates = [], []
        chow_form, translate = chow.chow_form, polyhedra.Polytope.translate

        def form_spy(*args):
            forms.append(args)
            return chow_form(*args)

        def translate_spy(*args):
            translates.append(args)
            return translate(*args)

        monkeypatch.setattr(chow, "chow_form", form_spy)
        monkeypatch.setattr(polyhedra.Polytope, "translate", translate_spy)
        rc, _ = run(["chow", "--in", write(tmp_path / "c.json", job),
                     "--out", str(tmp_path / "o.json")])
        assert rc == 0
        assert (len(forms), len(translates)) == (1, 1)

    def test_doubled_cycle_fails_fast(self, tmp_path):
        # twice the quartic's cycle pins degree 8 and twice its polytope,
        # whose ansatz has a kernel of many forms: one solve, then exit 4
        job = json.loads(json.dumps(QUARTIC_JOB))
        for item in job["cycle"]["items"]:
            item["weight"] *= 2
        src = os.path.dirname(os.path.dirname(tropimpl.__file__))
        target = tmp_path / "o.json"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom tropimpl.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n",
             "chow", "--in", write(tmp_path / "c.json", job),
             "--out", str(target)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert time.monotonic() - start < 30
        assert proc.returncode == 4
        assert proc.stderr == ""
        line, = proc.stdout.splitlines()
        assert json.loads(line)["error"] == "computation"
        assert not target.exists()

    # t -> (t^4, t^6) runs over the cusp twice
    CUSP_TWICE = {"parametrization": {"d": 1, "n": 2, "components": [
        {"terms": [{"coeff": 1, "exp": [4]}]},
        {"terms": [{"coeff": 1, "exp": [6]}]}]}}

    # x = t + 1/t, y = t - 1/t, once around the conic x^2 - y^2 = 4,
    # whose cycle has every weight 2: twice the cycle of a line
    CONIC = {"d": 1, "n": 2, "components": [
        {"terms": [{"coeff": 1, "exp": [1]}, {"coeff": 1, "exp": [-1]}]},
        {"terms": [{"coeff": 1, "exp": [1]}, {"coeff": -1, "exp": [-1]}]}]}
    CONIC_CYCLE = {"ambient_dim": 3, "pure_dim": 2, "items": [
        {"cone": {"rays": [ray], "lineality": [[1, 1, 1]]}, "weight": 2}
        for ray in ([0, 1, 0], [0, 0, 1], [0, -1, -1])]}

    @staticmethod
    def form_degrees(monkeypatch):
        """The degree of each Chow form that chow_polytope interpolates."""
        degrees = []
        chow_form = chow.chow_form

        def spy(stream, P, seed=0):
            degrees.append(sum(P.vertices[0]) // (stream.d + 1))
            return chow_form(stream, P, seed)

        monkeypatch.setattr(chow, "chow_form", spy)
        return degrees

    @pytest.mark.parametrize(("job", "degree"), [
        ({**QUARTIC_JOB, "cycle": {**QUARTIC_JOB["cycle"], "items": [
            {**item, "weight": 2} for item in QUARTIC_JOB["cycle"]["items"]]}},
         4),
        (CUSP_TWICE, 3),
    ], ids=["doubled-quartic", "cusp-twice"])
    def test_cycle_counting_its_variety_twice_is_refused(
            self, tmp_path, capsys, monkeypatch, job, degree):
        # the variety's Chow form is found on half the polytope first, so
        # the dilated ansatz is never solved
        degrees = self.form_degrees(monkeypatch)
        target = tmp_path / "o.json"
        rc, out = run(["chow", "--in", write(tmp_path / "c.json", job),
                       "--out", str(target)], capsys)
        assert rc == 4
        error = json.loads(out)
        assert (error["error"], error["type"]) == \
            ("computation", "NonReducedCycle")
        assert error["message"].startswith(
            "the cycle counts its variety 2 times: divide its weights by 2")
        assert error["message"].endswith("multiply its degree delta by 2")
        assert degrees == [degree]
        assert not target.exists()

    def test_cusp_twice_with_its_degree_gives_the_cusp(self, tmp_path):
        forms = []
        for job, flags in ((self.CUSP_TWICE, ["--delta", "2"]),
                           (CUSP_JOB, [])):
            out = tmp_path / f"o{len(forms)}.json"
            rc, _ = run(["chow", "--in", write(tmp_path / "c.json", job),
                         "--out", str(out)] + flags)
            assert rc == 0
            forms.append(json.loads(out.read_text())["chow_form"])
        assert forms[0] == forms[1]

    @pytest.mark.parametrize("given", [False, True],
                             ids=["computed", "given"])
    def test_conic_with_even_weights_keeps_its_form(
            self, tmp_path, monkeypatch, given):
        # half the polytope pins no form, so the conic's own degree 2 is
        # solved; a plane curve's Chow form is its equation, here
        # p01^2 - p02^2 + 4 p12^2
        degrees = self.form_degrees(monkeypatch)
        job = {"parametrization": self.CONIC}
        if given:
            job["cycle"] = self.CONIC_CYCLE
        out = tmp_path / "o.json"
        rc, _ = run(["chow", "--in", write(tmp_path / "c.json", job),
                     "--out", str(out)])
        assert rc == 0
        assert degrees == [1, 2]
        form = pluecker_poly_from_json(
            json.loads(out.read_text())["chow_form"])
        assert pluecker_poly_value(form, {(0, 1): 3, (0, 2): 5,
                                          (1, 2): 2}) == 0
        assert pluecker_poly_value(form, {(0, 1): 1, (0, 2): 1,
                                          (1, 2): 1}) != 0

    # a balanced curve cycle whose Chow polytope has degree 13
    DEGREE_13_CYCLE = {"ambient_dim": 4, "pure_dim": 2, "items": [
        {"cone": {"rays": [ray], "lineality": [[1, 1, 1, 1]]},
         "weight": weight}
        for ray, weight in (([0, -1, 0, 1], 2), ([0, 1, -2, 1], 1),
                            ([0, -2, 2, 1], 2), ([0, 5, -2, -5], 1))]}

    @pytest.mark.parametrize("translate", [
        None,
        # coordinate maxima (2, 2, 1, 1) and sum 3 pin degree 3/2
        [(2, 0, 0, 1), (0, 2, 1, 0)],
        # pinned degree 1, below the maximum 2 of coordinate 0
        [(2, 0, 0, 0), (0, 1, 1, 0)],
    ], ids=["degree-13", "non-integral", "maximum-above-degree"])
    def test_unpinnable_translate_exits_4(self, tmp_path, capsys,
                                          monkeypatch, translate):
        job = dict(QUARTIC_JOB, cycle=self.DEGREE_13_CYCLE)
        if translate is not None:
            # a translate no balanced curve cycle was seen to give
            job = QUARTIC_JOB
            monkeypatch.setattr(chow, "reconstruct_polytope",
                                lambda *args: polyhedra.Polytope(translate))
        target = tmp_path / "o.json"
        rc, out = run(["chow", "--in", write(tmp_path / "c.json", job),
                       "--out", str(target)], capsys)
        assert rc == 4
        assert not target.exists()
        err = json.loads(out)
        assert (err["error"], err["type"]) == ("computation",
                                               "ShiftSearchFailed")

    def test_chow_job_never_imports_numpy(self, tmp_path):
        # Chow solves are narrow enough for the pure-Python GF(p) kernel,
        # which keeps numpy's memory out of a chow job
        assert fresh_run_imports_numpy(
            ["chow", "--in", write(tmp_path / "c.json", CUSP_JOB),
             "--out", str(tmp_path / "o.json")]) is False

    def test_finite_field_rejected(self, tmp_path, capsys):
        rc, out = run(["chow", "--in", write(tmp_path / "c.json", CUSP_JOB),
                       "--out", str(tmp_path / "o.json"),
                       "--field", "gf:101"], capsys)
        assert rc == 2
        assert json.loads(out)["error"] == "parse"


class TestMfpSearch:
    def test_fixed_triangles_record(self, tmp_path, capsys):
        cfg = {"vertex_counts": [3, 3, 3], "trials": 0,
               "fixed": [TRIANGLES]}
        out = tmp_path / "lead.jsonl"
        rc, printed = run(["mfp-search",
                           "--in", write(tmp_path / "cfg.json", cfg),
                           "--out", str(out)], capsys)
        assert rc == 0
        assert json.loads(printed) == {
            "trials": 1, "records": 1, "best_vertices": 25}
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 1
        assert recs[0]["kind"] == "fixed"
        assert recs[0]["f_vector"] == [25, 49, 26]
        assert recs[0]["points"] == TRIANGLES

    def test_random_search_is_deterministic(self, tmp_path):
        cfg = {"vertex_counts": [3, 3], "height": 9, "trials": 5}
        src = write(tmp_path / "cfg.json", cfg)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["mfp-search", "--in", src, "--out", str(a),
                    "--seed", "3"])[0] == 0
        assert run(["mfp-search", "--in", src, "--out", str(b),
                    "--seed", "3"])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()

    def test_record_file_appends(self, tmp_path):
        cfg = {"vertex_counts": [3, 3], "height": 9, "trials": 2}
        src = write(tmp_path / "cfg.json", cfg)
        out = tmp_path / "lead.jsonl"
        run(["mfp-search", "--in", src, "--out", str(out)])
        once = len(out.read_text().splitlines())
        run(["mfp-search", "--in", src, "--out", str(out)])
        assert len(out.read_text().splitlines()) == 2 * once

    def test_monomial_inputs_stay_low_dimensional(self, tmp_path):
        # single-point supports give a monomial image whose polytope is a
        # point or a segment, so records never exceed two vertices
        cfg = {"vertex_counts": [1, 1], "height": 4, "trials": 6}
        out = tmp_path / "lead.jsonl"
        rc, _ = run(["mfp-search",
                     "--in", write(tmp_path / "cfg.json", cfg),
                     "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            if "vertices" in rec:
                assert rec["vertices"] <= 2

    def test_trials_are_drawn_when_they_run(self, tmp_path, monkeypatch):
        # a long search stopped when it draws its second trial has written
        # the first trial's record and drawn no later trial
        class Stop(Exception):
            pass

        drawn = []

        def spy(master, index):
            drawn.append(index)
            if index == 1:
                raise Stop
            return _trial_seed(master, index)

        monkeypatch.setattr(cli, "_trial_seed", spy)
        cfg = {"vertex_counts": [3, 3, 3], "trials": 300000}
        out = tmp_path / "lead.jsonl"
        with pytest.raises(Stop):
            run(["mfp-search", "--in", write(tmp_path / "cfg.json", cfg),
                 "--out", str(out), "--seed", "5"])
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["trial"], r["seed"]) for r in recs] == [
            (0, _trial_seed(5, 0))]
        assert drawn == [0, 1]

    def test_vertex_count_above_the_bound_exits_2_at_once(self, tmp_path,
                                                          capsys):
        at_bound = {"vertex_counts": [cli.MAX_VERTEX_COUNT] * 2, "trials": 0}
        rc, out = run(["mfp-search",
                       "--in", write(tmp_path / "ok.json", at_bound),
                       "--out", str(tmp_path / "ok.jsonl")], capsys)
        assert rc == 0
        cfg = {"vertex_counts": [3, 2 ** 70], "trials": 1}
        target = tmp_path / "lead.jsonl"
        start = time.perf_counter()
        rc, out = run(["mfp-search",
                       "--in", write(tmp_path / "cfg.json", cfg),
                       "--out", str(target)], capsys)
        assert time.perf_counter() - start < 2
        assert rc == 2
        assert len(out.splitlines()) == 1
        assert json.loads(out)["type"] == "InputFormatError"
        assert not target.exists()

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = {"vertex_counts": [3]}
        rc, out = run(["mfp-search",
                       "--in", write(tmp_path / "cfg.json", cfg),
                       "--out", str(tmp_path / "lead.jsonl")], capsys)
        assert rc == 2
        assert json.loads(out)["error"] == "parse"


class TestGoldenArtifacts:
    """Artifact bytes for fixed small inputs and the default seed, pinned
    by sha256 so a refactor cannot change any output silently."""

    QUADRATIC = {"rows": [[1, 1, 1], [0, 1, 2]]}
    QUADRATIC_OVER_Q = (
        "92e76add0662aba1d1a01ede825e99bdc433e605195a06d77ad47f45fe671c9e")
    CUSP_CHOW = (
        "9a11ca07c2aa7ab7de6d5e096c5d56205de25079445a4203605e249dea994ca0")
    QUARTIC_CHOW = (
        "2e472333dc6d4d12e0b9fc3e55bbf52512813cceed5b0f7b59114de2f4ba05aa")
    # 6-point discriminant, 205 monomials, over Q from 4 word-size primes
    SIX_POINTS = {"rows": [[1, 1, 1, 1, 1, 1], [2, 3, 5, 7, 11, 13],
                           [7, 6, 4, 3, 2, 1]]}
    # (1 + x)(1 + y + z): the plane x = 0 is given by two pairs of
    # opposite rays and the x-axis by an opposite pair, so every cone
    # carries lineality hidden among its rays
    X_AXIS = [[1, 0, 0], [-1, 0, 0]]
    PRISM_CYCLE = {"ambient_dim": 3, "pure_dim": 2, "items": [
        {"cone": {"rays": [[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]},
         "weight": 1},
        {"cone": {"rays": X_AXIS + [[0, 1, 0]]}, "weight": 1},
        {"cone": {"rays": X_AXIS + [[0, 0, 1]]}, "weight": 1},
        {"cone": {"rays": X_AXIS + [[0, -1, -1]]}, "weight": 1}]}
    # three triangles in Z^2: the image cycle projected from the graph
    # cycle in R^5, whose cones come from the normal fan of the triangles'
    # sum in R^2; its Newton polytope has f-vector (12, 22, 12)
    THREE_TRIANGLES = {"polytopes": [
        {"vertices": [[0, 0], [3, 1], [1, 4]]},
        {"vertices": [[0, 0], [2, -1], [-1, 3]]},
        {"vertices": [[1, 1], [-2, 0], [0, -3]]}]}
    JOBS = [
        ("trop-cycle", CURVE, [],
         "318b47e349f85973993dd38addc3adabdf185f8ccb54c0752629f6ac1fbe3c43"),
        ("newton", CURVE, [],
         "8474ada9c6d3bbb410c03eb6436f98564a7560ccaa3a286024eac7426ac29136"),
        ("implicitize", CURVE, [],
         "358a53c287f2031475544a9033ea8e832d0b9271019be7503f05470daa46a979"),
        ("implicitize", CURVE, ["--field", "gf:101"],
         "b6322b3588fbcf207e627d23d261da8c3dcc721dd8e201f9c4d028768e207f83"),
        ("implicitize", CURVE, ["--field", "crt:2"],
         "358a53c287f2031475544a9033ea8e832d0b9271019be7503f05470daa46a979"),
        ("implicitize", SPARSE_CURVE, [],
         "3bb4af0f12e60f2045936a052c83598c6f590bc4824464e93659952f10686617"),
        ("adisc", QUADRATIC, [], QUADRATIC_OVER_Q),
        ("adisc", QUADRATIC, ["--field", "gf:101"],
         "d6d7011e8416f46e723f49d3b43e354c13e75556b4ba62f6e0a5a5fc18953d34"),
        ("chow", CUSP_JOB, [], CUSP_CHOW),
        ("adisc", SIX_POINTS, ["--field", "crt:2"],
         "ce0b58c751d48af087d5f5efb2473525b582117b2ce20e7c0f877291d063a2a9"),
        ("newton", PRISM_CYCLE, [],
         "df07b324d9d976091ba4ebfc2d8cb13b21a33ac19aa64c41016a8db1684257c5"),
        ("chow", QUARTIC_JOB, [], QUARTIC_CHOW),
        # the Chow form, its polytope and shift do not depend on the seed
        *[("chow", job, ["--seed", seed], digest)
          for job, digest in ((CUSP_JOB, CUSP_CHOW),
                              (QUARTIC_JOB, QUARTIC_CHOW))
          for seed in ("1", "7")],
        ("trop-cycle", THREE_TRIANGLES, [],
         "baae97565650e8399d2f246022c380b9c654b4ec37de538e24e1f8ae8e3ed3ca"),
        ("newton", THREE_TRIANGLES, [],
         "d67c94a93071abf6988052c4d54c7b1e1c67804cac20483fb0120675bb189594"),
        # crt:k is an alias of q: every correct lift is the same vector
        *[("adisc", matrix, ["--field", field], digest)
          for matrix, digest in (
              (QUADRATIC, QUADRATIC_OVER_Q),
              (SIX_POINTS, "ce0b58c751d48af087d5f5efb2473525"
                           "b582117b2ce20e7c0f877291d063a2a9"))
          for field in ("q", "crt:1", "crt:2", "crt:100000")],
    ]

    @pytest.mark.parametrize("command,obj,flags,digest", JOBS)
    def test_artifact_hash(self, tmp_path, command, obj, flags, digest):
        out = tmp_path / "out.json"
        rc, _ = run([command, "--in", write(tmp_path / "in.json", obj),
                     "--out", str(out)] + flags)
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_six_points_evaluate_rows_in_one_batch_per_prime(
            self, tmp_path, monkeypatch):
        # each prime's rows come from one row_mod call; only the fresh
        # samples are evaluated one at a time, mod the deciding prime
        real = MonomialBasis.row_mod
        calls = []

        def spy(self, points, p):
            calls.append((p, len(points)))
            return real(self, points, p)

        monkeypatch.setattr(MonomialBasis, "row_mod", spy)
        kernels = inflating_gfp_kernel(monkeypatch, lambda call, p: False)
        out = tmp_path / "out.json"
        rc, _ = run(["adisc", "--in", write(tmp_path / "in.json",
                                            self.SIX_POINTS),
                     "--out", str(out), "--field", "q"])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ce0b58c751d48af087d5f5efb2473525b582117b2ce20e7c0f877291d063a2a9")
        batches = [(p, k) for p, k in calls if k > 1]
        # the deciding prime and each lift prime, then the prime whose
        # rows the lift annihilates
        assert len(kernels) == 4
        assert [p for p, _ in batches[:-1]] == [p for p, _ in kernels]
        assert batches[0] == (ec.DEFAULT_PRIME, 204)
        assert len(batches) == 5
        assert len({p for p, _ in batches}) == 5
        assert calls == batches[:1] + [(ec.DEFAULT_PRIME, 1)] * \
            VERIFY_SAMPLES + batches[1:]


class TestErrorContract:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, out = run(["implicitize", "--in", str(bad),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 2
        err = json.loads(out)
        assert err["error"] == "parse"
        assert "message" in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc, out = run(["implicitize", "--in", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 2
        assert json.loads(out)["error"] == "parse"

    def test_precondition_exits_3(self, tmp_path, capsys):
        rc, out = run(["adisc",
                       "--in", write(tmp_path / "a.json",
                                     {"rows": [[1, 2]]}),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 3
        err = json.loads(out)
        assert err["error"] == "precondition"
        assert err["type"] == "RowSpanMissingOnes"

    def test_computation_exits_4(self, tmp_path, capsys):
        rc, out = run(["trop-cycle",
                       "--in", write(tmp_path / "p.json", CURVE),
                       "--out", str(tmp_path / "o.json"),
                       "--delta", "3"], capsys)
        assert rc == 4
        err = json.loads(out)
        assert err["error"] == "computation"
        assert err["type"] == "NonDivisibleDegree"

    def test_bad_flag_value_exits_2(self, tmp_path, capsys):
        rc, out = run(["implicitize",
                       "--in", write(tmp_path / "p.json", CURVE),
                       "--out", str(tmp_path / "o.json"),
                       "--height", "1"], capsys)
        assert rc == 2
        assert json.loads(out)["error"] == "parse"

    def test_zero_denominator_coefficient_exits_2(self, tmp_path, capsys):
        param = json.loads(json.dumps(CURVE))
        param["components"][0]["terms"][0]["coeff"] = "1/0"
        rc, out = run(["trop-cycle",
                       "--in", write(tmp_path / "p.json", param),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 2
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert "denominator" in err["message"]

    def test_zero_denominator_vertex_exits_2(self, tmp_path, capsys):
        obj = {"polytopes": [{"vertices": [["1/0", 0], [1, 1]]},
                             {"vertices": [[0, 0], [2, 1]]}]}
        rc, out = run(["trop-cycle",
                       "--in", write(tmp_path / "p.json", obj),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 2
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert "denominator" in err["message"]

    @pytest.mark.parametrize("command", ["trop-cycle", "newton"])
    def test_non_integral_newton_polytope_exits_2(self, tmp_path, capsys,
                                                  command):
        # a fractional vertex once gave a fractional mixed volume, cut to
        # a zero weight and reported as a violated precondition
        obj = {"polytopes": [{"vertices": [[0, 0], ["1/2", 1], [1, 3]]},
                             {"vertices": [[0, 0], [2, 1]]}]}
        target = tmp_path / "o.json"
        rc, out = run([command, "--in", write(tmp_path / "p.json", obj),
                       "--out", str(target)], capsys)
        assert rc == 2
        assert not target.exists()
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert err["type"] == "InputFormatError"
        assert "1/2" in err["message"]

    # a float or boolean in an integer field is refused, never cut to an
    # int that would make the job answer a different question
    TROPICAL_LINE = {"ambient_dim": 2, "pure_dim": 1, "items": [
        {"cone": {"rays": [ray]}, "weight": 1}
        for ray in ([1, 0], [0, 1], [-1, -1])]}

    @pytest.mark.parametrize("command,obj", [
        ("adisc", {"rows": [[1, 1, 1], [0, 1.7, 2]]}),
        ("implicitize", {**CURVE, "components": [
            {"terms": [{"coeff": 11, "exp": [1.9]}]},
            *CURVE["components"][1:]]}),
        ("newton", {**TROPICAL_LINE, "items": [
            {"cone": {"rays": [[1.5, 0]]}, "weight": 1},
            *TROPICAL_LINE["items"][1:]]}),
        ("newton", {**TROPICAL_LINE, "items": [
            {"cone": {"rays": [[1, 0]]}, "weight": True},
            *TROPICAL_LINE["items"][1:]]}),
        ("mfp-search", {"vertex_counts": [3, 3, 3.5], "trials": 0}),
    ])
    def test_non_integral_integer_field_exits_2(self, tmp_path, capsys,
                                                command, obj):
        rc, out = run([command, "--in", write(tmp_path / "in.json", obj),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 2
        assert len(out.splitlines()) == 1
        assert json.loads(out)["error"] == "parse"

    # a JSON string of digits where an array of integers belongs is
    # refused, never read digit by digit as the array
    @pytest.mark.parametrize("command,obj", [
        ("adisc", {"rows": ["111", "012"]}),
        ("trop-cycle", {"polytopes": [
            {"vertices": ["00", [1, 0], [0, 1]]},
            {"vertices": [[0, 0], [2, 0], [0, 1]]}]}),
        ("implicitize", {**CURVE, "components": [
            {"terms": [{"coeff": 11, "exp": "2"}]},
            *CURVE["components"][1:]]}),
        ("newton", {**TROPICAL_LINE, "items": [
            {"cone": {"rays": ["10"]}, "weight": 1},
            *TROPICAL_LINE["items"][1:]]}),
        ("chow", {**QUARTIC_JOB, "cycle": {**QUARTIC_JOB["cycle"], "items": [
            {"cone": {**item["cone"], "lineality": ["1111"]}, "weight": 1}
            for item in QUARTIC_JOB["cycle"]["items"]]}}),
        ("mfp-search", {"vertex_counts": "33", "trials": 0}),
        ("mfp-search", {"vertex_counts": [3, 3], "fixed": [
            [["0", [1], [2]], [[0], [1], [3]]]]}),
    ], ids=["matrix-rows", "vertices", "exponents", "cycle-rays",
            "lineality", "vertex-counts", "fixed"])
    def test_digit_string_vector_exits_2(self, tmp_path, capsys, command,
                                         obj):
        target = tmp_path / "o.json"
        rc, out = run([command, "--in", write(tmp_path / "in.json", obj),
                       "--out", str(target)], capsys)
        assert rc == 2
        assert not target.exists()
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert "not an array" in err["message"]

    @pytest.mark.parametrize("command,obj", [
        ("newton", {"cycle": TROPICAL_LINE}),
        ("newton", TROPICAL_LINE),
        ("chow", QUARTIC_JOB),
    ], ids=["newton-wrapped", "newton-bare", "chow"])
    def test_delta_with_a_given_cycle_exits_2(self, tmp_path, capsys,
                                              command, obj):
        # --delta divides a cycle computed from a parametrization or
        # polytopes; a given cycle is taken as it is
        target = tmp_path / "o.json"
        path = write(tmp_path / "in.json", obj)
        rc, out = run([command, "--in", path, "--out", str(target),
                       "--delta", "7"], capsys)
        assert rc == 2
        assert not target.exists()
        assert len(out.splitlines()) == 1
        assert json.loads(out)["error"] == "parse"
        assert "--delta" in json.loads(out)["message"]
        rc, _ = run([command, "--in", path, "--out", str(target),
                     "--delta", "1"])
        assert rc == 0

    def test_prime_above_word_size_exits_2(self, tmp_path, capsys):
        # int64 elimination mod this prime overflows: the equation found
        # would fail verification
        rc, out = run(["implicitize",
                       "--in", write(tmp_path / "p.json", SPARSE_CURVE),
                       "--out", str(tmp_path / "o.json"),
                       "--field", "gf:4294967311"], capsys)
        assert rc == 2
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert "2^31" in err["message"]

    @pytest.mark.parametrize("field", ["crt:x", "gf:x", "crt:", "gf:"])
    def test_malformed_field_spec_exits_2(self, tmp_path, capsys, field):
        target = tmp_path / "o.json"
        rc, out = run(["implicitize",
                       "--in", write(tmp_path / "p.json", CURVE),
                       "--out", str(target), "--field", field], capsys)
        assert rc == 2
        assert not target.exists()
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert err["type"] == "InputFormatError"
        assert field in err["message"]

    def test_huge_prime_count_stops_at_the_hadamard_bound(self, tmp_path):
        # more primes than the bound needs cannot change the lift: the
        # artifact is the q golden, and no 100 000 kernels are computed
        out = tmp_path / "out.json"
        start = time.perf_counter()
        rc, _ = run(["adisc", "--in", write(tmp_path / "in.json",
                                            TestGoldenArtifacts.QUADRATIC),
                     "--out", str(out), "--field", "crt:100000"])
        assert time.perf_counter() - start < 2
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            TestGoldenArtifacts.QUADRATIC_OVER_Q

    @pytest.mark.parametrize("cone", [
        {"rays": [[1, 0, 5]], "lineality": []},
        {"rays": [[1, 0]], "lineality": [[1]]}])
    def test_cycle_generator_of_wrong_length_exits_2(self, tmp_path, capsys,
                                                     cone):
        cycle = {"ambient_dim": 2, "pure_dim": 1, "items": [
            {"cone": cone, "weight": 1},
            {"cone": {"rays": [[0, 1]], "lineality": []}, "weight": 1},
            {"cone": {"rays": [[-1, -1]], "lineality": []}, "weight": 1}]}
        rc, out = run(["newton", "--in", write(tmp_path / "c.json", cycle),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 2
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert "length 2" in err["message"]

    def test_unbalanced_cycle_exits_3(self, tmp_path, capsys):
        # a single ray in R^2 is not balanced; it used to reach the oracle
        # and exit 4 with OracleInconsistent
        cycle = {"ambient_dim": 2, "pure_dim": 1, "items": [
            {"cone": {"rays": [[1, 0]]}, "weight": 1}]}
        target = tmp_path / "o.json"
        rc, out = run(["newton", "--in", write(tmp_path / "c.json", cycle),
                       "--out", str(target)], capsys)
        assert rc == 3
        assert not target.exists()
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "precondition"
        assert err["type"] == "UnbalancedCycle"

    def test_cycle_balanced_only_with_lattice_indices_exits_0(self,
                                                              tmp_path):
        # rays modulo the lineality (2, 1, 0) are (0, -1, 0), (0, 0, 1) and
        # (0, 1, -2), of lattice indices 2, 1 and 2 over it: they balance
        # only once divided by their indices
        lin = [[2, 1, 0]]
        cycle = {"ambient_dim": 3, "pure_dim": 2, "items": [
            {"cone": {"rays": [ray], "lineality": lin}, "weight": 1}
            for ray in ([1, 0, 0], [0, 0, 1], [-1, 0, -1])]}
        target = tmp_path / "o.json"
        rc, _ = run(["newton", "--in", write(tmp_path / "c.json", cycle),
                     "--out", str(target)])
        assert rc == 0
        P = json.loads(target.read_text())["polytope"]
        assert P["vertices"] == [[0, 2, 0], [0, 2, 1], [1, 0, 0]]

    @pytest.mark.parametrize("field,code", [
        ("q", 4), ("crt:2", 4), ("gf:101", 0)])
    def test_vertex_without_coefficient_fails(self, tmp_path, capsys,
                                              monkeypatch, field, code):
        # P = Newt(F): an equation with a zero coefficient at the vertex
        # (8, 0) of P is rejected, except mod p, where a true vertex
        # coefficient may vanish
        def zero_at_vertex(*args, **kwargs):
            F = implicit_equation(*args, **kwargs)
            return ImplicitPolynomial(
                F.basis, [0 if e == (8, 0) else c
                          for e, c in zip(F.basis, F.coefficients)],
                F.modulus)

        implicit_equation = cli.implicit_equation
        monkeypatch.setattr(cli, "implicit_equation", zero_at_vertex)
        target = tmp_path / "o.json"
        rc, out = run(["implicitize",
                       "--in", write(tmp_path / "p.json", CURVE),
                       "--out", str(target), "--field", field], capsys)
        assert rc == code
        assert target.exists() == (code == 0)
        if code:
            assert len(out.splitlines()) == 1
            err = json.loads(out)
            assert err["type"] == "VerificationFailed"
            assert "[8, 0]" in err["message"]

    def test_adisc_vertex_without_coefficient_fails(self, tmp_path, capsys,
                                                    monkeypatch):
        def drop_first_term(*args, **kwargs):
            F = implicit_equation(*args, **kwargs)
            first = F.terms()[0][1]
            return ImplicitPolynomial(
                F.basis, [0 if e == first else c
                          for e, c in zip(F.basis, F.coefficients)])

        implicit_equation = cli.implicit_equation
        monkeypatch.setattr(cli, "implicit_equation", drop_first_term)
        rc, out = run(["adisc",
                       "--in", write(tmp_path / "a.json",
                                     {"rows": [[1, 1, 1], [0, 1, 2]]}),
                       "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 4
        assert json.loads(out)["type"] == "VerificationFailed"

    def test_chow_vertex_without_term_fails(self, tmp_path, capsys,
                                            monkeypatch):
        # drop the terms of the Chow form whose weight is the vertex
        # (3, 0, 3) of the cusp's Chow polytope
        def drop_vertex_terms(*args, **kwargs):
            translated, shift, P, form = chow_polytope(*args, **kwargs)
            kept = [(m, c) for m, c in form.terms
                    if chow._weight(m, form.n) != (3, 0, 3)]
            return translated, shift, P, PluckerPoly(form.d, form.n, kept)

        chow_polytope = cli.chow_polytope
        monkeypatch.setattr(cli, "chow_polytope", drop_vertex_terms)
        target = tmp_path / "o.json"
        rc, out = run(["chow", "--in", write(tmp_path / "c.json", CUSP_JOB),
                       "--out", str(target)], capsys)
        assert rc == 4
        assert not target.exists()
        err = json.loads(out)
        assert err["type"] == "VerificationFailed"
        assert "[3, 0, 3]" in err["message"]

    def test_no_artifact_written_on_failure(self, tmp_path, capsys):
        target = tmp_path / "o.json"
        rc, _ = run(["adisc",
                     "--in", write(tmp_path / "a.json", {"rows": [[1, 2]]}),
                     "--out", str(target)], capsys)
        assert rc == 3
        assert not target.exists()

    @pytest.mark.parametrize("command,flag", [
        ("adisc", ["--delta", "2"]),
        *[(command, flag) for command in ("trop-cycle", "newton", "mfp-search")
          for flag in (["--field", "q"], ["--height", "20"],
                       ["--polytope-only"])],
        *[(command, ["--force"])
          for command in ("trop-cycle", "mfp-search", "chow")],
        ("trop-cycle", ["--seed", "1"]),
        ("chow", ["--field", "q"]),
        ("newton", ["--seed", "1"])])
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys,
                                              command, flag):
        target = tmp_path / "o.json"
        rc, out = run([command, "--in", write(tmp_path / "p.json", CURVE),
                       "--out", str(target)] + flag, capsys)
        assert rc == 2
        assert not target.exists()
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "parse"
        assert flag[0] in err["message"]

    @pytest.mark.parametrize("argv", [
        ["adisc", "--seed", "1", "--field", "crt:2"],
        ["adisc", "--seed", "1", "--polytope-only"],
        ["implicitize", "--seed", "1"],
        ["mfp-search", "--seed", "1"],
        ["chow", "--seed", "1"]])
    def test_benchmark_command_lines_parse(self, argv):
        args = cli._build_parser().parse_args(
            argv[:1] + ["--in", "i.json", "--out", "o.json"] + argv[1:])
        assert args.seed == 1


def test_perfbench_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names when a run traces; read its
    # table without importing the harness, so a rename in the package
    # fails here rather than at the next traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    assert tracer.TARGETS
    for layer, module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module("tropimpl." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), layer
        else:
            assert callable(getattr(owner, attr, None)), layer
