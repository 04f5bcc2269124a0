"""End-to-end tests of the command line front end.

Every test drives main() with real files in a temp directory, checking the
artifact wire formats, the error object contract and byte determinism.
The curve fixtures and their expected equations match the library tests.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import tropimpl
from tropimpl import cli
from tropimpl.chow import PluckerPoly
from tropimpl.cli import JobSpec, _trial_seed, main
from tropimpl.errors import InputFormatError
from tropimpl.interpolate import ImplicitPolynomial
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

    def test_chow_job_never_imports_numpy(self, tmp_path):
        # Chow solves are narrow enough for the pure-Python GF(p) kernel,
        # which keeps numpy's memory out of a chow job
        src = os.path.dirname(os.path.dirname(tropimpl.__file__))
        script = ("import sys\n"
                  "from tropimpl.cli import main\n"
                  "rc = main(sys.argv[1:])\n"
                  "print(rc, 'numpy' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "chow",
             "--in", write(tmp_path / "c.json", CUSP_JOB),
             "--out", str(tmp_path / "o.json")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.split() == ["0", "False"], proc.stderr

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
        ("adisc", QUADRATIC, [],
         "92e76add0662aba1d1a01ede825e99bdc433e605195a06d77ad47f45fe671c9e"),
        ("adisc", QUADRATIC, ["--field", "gf:101"],
         "d6d7011e8416f46e723f49d3b43e354c13e75556b4ba62f6e0a5a5fc18953d34"),
        ("chow", CUSP_JOB, [],
         "9a11ca07c2aa7ab7de6d5e096c5d56205de25079445a4203605e249dea994ca0"),
        ("adisc", SIX_POINTS, ["--field", "crt:2"],
         "ce0b58c751d48af087d5f5efb2473525b582117b2ce20e7c0f877291d063a2a9"),
        ("newton", PRISM_CYCLE, [],
         "df07b324d9d976091ba4ebfc2d8cb13b21a33ac19aa64c41016a8db1684257c5"),
        ("chow", QUARTIC_JOB, [],
         "2e472333dc6d4d12e0b9fc3e55bbf52512813cceed5b0f7b59114de2f4ba05aa"),
    ]

    @pytest.mark.parametrize("command,obj,flags,digest", JOBS)
    def test_artifact_hash(self, tmp_path, command, obj, flags, digest):
        out = tmp_path / "out.json"
        rc, _ = run([command, "--in", write(tmp_path / "in.json", obj),
                     "--out", str(out)] + flags)
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
                    if m.weight() != (3, 0, 3)]
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
        ("trop-cycle", ["--seed", "1"])])
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
