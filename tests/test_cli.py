import json
import math

import numpy as np
import pytest

from qhb import barycenter as bc
from qhb import cli, verify
from qhb import quaternions as q
from qhb.errors import NotInBall


def write_points(tmp_path, name, dimension, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"dimension": dimension, "points": entries}))
    return str(path)


@pytest.fixture
def two_weighted_file(tmp_path):
    return write_points(tmp_path, "two.json", 1, [
        {"coords": [[0.5, 0, 0, 0]], "weight": 2.0},
        {"coords": [[-0.25, 0, 0, 0]], "weight": 1.0},
    ])


@pytest.fixture
def four_symmetric_file(tmp_path):
    return write_points(tmp_path, "four.json", 1, [
        {"coords": [[0.5, 0, 0, 0]]},
        {"coords": [[-0.5, 0, 0, 0]]},
        {"coords": [[0, 0.5, 0, 0]]},
        {"coords": [[0, -0.5, 0, 0]]},
    ])


@pytest.fixture
def region_file(tmp_path):
    path = tmp_path / "region.json"
    path.write_text(json.dumps({
        "kind": "geodesic_ball",
        "center": [[0.3, 0, 0, 0]],
        "radius": 1.0,
        "dimension": 1,
    }))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_barycenter_two_weighted(capsys, two_weighted_file):
    code, out, _ = run(capsys, "barycenter", two_weighted_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["barycenter"][0][0] - 2 / 7) <= 1e-10
    assert payload["config"] == {"max_iters": 500, "tol": 1e-12}


def test_barycenter_symmetric(capsys, four_symmetric_file):
    code, out, _ = run(capsys, "barycenter", four_symmetric_file)
    assert code == 0
    payload = json.loads(out)
    assert np.linalg.norm(payload["barycenter"]) <= 1e-10


def test_barycenter_empty_points(capsys, tmp_path):
    path = write_points(tmp_path, "empty.json", 1, [])
    code, _, err = run(capsys, "barycenter", path)
    assert code == 1
    assert "EmptyData" in err


def test_barycenter_reports_offending_index(capsys, tmp_path):
    path = write_points(tmp_path, "bad.json", 1, [
        {"coords": [[0.1, 0, 0, 0]]},
        {"coords": [[1.5, 0, 0, 0]]},
    ])
    code, _, err = run(capsys, "barycenter", path)
    assert code == 1
    assert "point 1" in err

    path = write_points(tmp_path, "badw.json", 1, [
        {"coords": [[0.1, 0, 0, 0]], "weight": -2.0},
    ])
    code, _, err = run(capsys, "barycenter", path)
    assert code == 1
    assert "point 0" in err and "weight" in err

    path = write_points(tmp_path, "badn.json", 2, [
        {"coords": [[0.1, 0, 0, 0], [0, 0, 0, 0]]},
        {"coords": [[0.1, 0, 0, 0]]},
    ])
    code, _, err = run(capsys, "barycenter", path)
    assert code == 1
    assert "DimensionMismatch" in err and "point 1" in err


def test_point_within_boundary_margin_is_rejected(capsys, tmp_path):
    # |q| = 1 - 5e-13 lies in the open ball but not in |q| < 1 - 1e-12
    edge = 1.0 - 5e-13
    with pytest.raises(NotInBall, match="point 1"):
        bc.WeightedPoints(points=np.array([[[0.1, 0, 0, 0]], [[edge, 0, 0, 0]]]),
                          weights=np.ones(2))
    path = write_points(tmp_path, "edge.json", 1, [
        {"coords": [[0.1, 0, 0, 0]]},
        {"coords": [[edge, 0, 0, 0]]},
    ])
    code, _, err = run(capsys, "barycenter", path)
    assert code == 1
    assert "NotInBall" in err and "point 1" in err


@pytest.mark.parametrize("entry", [
    '{"coords": [[0.1, 0, 0, 0]], "weight": NaN}',
    '{"coords": [[0.1, 0, 0, 0]], "weight": Infinity}',
    '{"coords": [[0.1, NaN, 0, 0]]}',
], ids=["nan-weight", "inf-weight", "nan-coordinate"])
def test_barycenter_rejects_non_finite(capsys, tmp_path, entry):
    # Python's json module reads the NaN and Infinity literals
    path = tmp_path / "nonfinite.json"
    path.write_text('{"dimension": 1, "points": [{"coords": [[0.3, 0, 0, 0]]}, %s]}' % entry)
    code, _, err = run(capsys, "barycenter", str(path))
    assert code == 1
    assert "NonFinite" in err and "point 1" in err


def test_energy_at_non_finite_point(capsys, two_weighted_file):
    code, _, err = run(capsys, "energy", two_weighted_file, "--at", "NaN")
    assert code == 1
    assert "NonFinite" in err


def test_barycenter_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "barycenter", str(path))
    assert code == 1
    assert err.startswith("error:")


_REGION = ("region-barycenter", "--samples", "1000")


@pytest.mark.parametrize("command, text, field", [
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, 0, 0]], "weight": null}]}',
     "'weight'"),
    (("barycenter",), '{"dimension": 1, "points": 5}', "'points'"),
    (("barycenter",), '{"dimension": 1, "points": {"a": 1}}', "'points'"),
    (("barycenter",), '{"dimension": 1, "points": "ab"}', "'points'"),
    (("barycenter",), '{"dimension": 1.7, "points": [{"coords": [[0.1, 0, 0, 0]]}]}', "'dimension'"),
    (_REGION, '{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": null, "dimension": 1}', "'radius'"),
    (_REGION, '{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": 1.0, "dimension": null}', "'dimension'"),
    (_REGION, '{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": 1.0, "dimension": 1.7}', "'dimension'"),
    (_REGION, '[{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": 1.0, "dimension": 1}]', "'dimension'"),
], ids=["null-weight", "scalar-points", "object-points", "string-points", "fractional-dimension",
        "null-radius", "null-region-dimension", "fractional-region-dimension", "list-region"])
def test_malformed_field_is_named(capsys, tmp_path, command, text, field):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, _, err = run(capsys, *command, str(path))
    assert code == 1
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text, field", [
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, 0, 0]], "weight": true}]}',
     "point 0: missing or malformed 'weight'"),
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, 0, 0]]}, '
     '{"coords": [[0.1, 0, false, 0]]}]}', "point 1: missing or malformed 'coords'"),
    (_REGION, '{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": true, "dimension": 1}', "region: missing or malformed 'radius'"),
    (_REGION, '{"kind": "euclidean_ball", "center": [[true, 0, 0, 0]], '
     '"radius": 0.4, "dimension": 1}', "region: missing or malformed 'center'"),
], ids=["weight", "coordinate", "radius", "center-coordinate"])
def test_boolean_is_not_a_number(capsys, tmp_path, command, text, field):
    # numpy and float() read true and false as 1 and 0
    path = tmp_path / "boolean.json"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: ") and field in err and "boolean" in err


@pytest.mark.parametrize("argv", [
    ("distance", "false", "0.5"),
    ("distance", "0.5", "[true, 0, 0, 0]"),
    ("energy", "{file}", "--at", "[[0.1, 0, 0, true]]"),
], ids=["distance-first", "distance-second", "energy-at"])
def test_boolean_cli_point_is_refused(capsys, two_weighted_file, argv):
    code, out, err = run(capsys, *(a.format(file=two_weighted_file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: point ") and "boolean" in err


_HUGE = "1" + "0" * 400    # a JSON integer beyond the largest float


@pytest.mark.parametrize("command, text, field, cause", [
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, 0, 0]], "weight": "2.5"}]}',
     "point 0: missing or malformed 'weight'", "string"),
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, 0, 0]]}, '
     '{"coords": [[0.1, 0, "0.1", 0]]}]}', "point 1: missing or malformed 'coords'", "string"),
    (_REGION, '{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": "1.5", "dimension": 1}', "region: missing or malformed 'radius'", "string"),
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, 0, 0]], "weight": %s}]}'
     % _HUGE, "point 0: missing or malformed 'weight'", "too large"),
    (("barycenter",), '{"dimension": 1, "points": [{"coords": [[0.1, 0, %s, 0]]}]}' % _HUGE,
     "point 0: missing or malformed 'coords'", "too large"),
    (_REGION, '{"kind": "geodesic_ball", "center": [[0.3, 0, 0, 0]], '
     '"radius": %s, "dimension": 1}' % _HUGE, "region: missing or malformed 'radius'", "too large"),
    (("barycenter",), '{"dimension": 1, "points": %s}' % ("[" * 100_000 + "]" * 100_000),
     "point set: JSON nested too deeply", ""),
    (_REGION, '{"kind": "geodesic_ball", "center": %s}' % ("[" * 100_000 + "]" * 100_000),
     "region: JSON nested too deeply", ""),
], ids=["string-weight", "string-coordinate", "string-radius", "huge-weight", "huge-coordinate",
        "huge-radius", "deep-points", "deep-region"])
def test_only_json_numbers_are_numbers(capsys, tmp_path, command, text, field, cause):
    # float() and numpy read strings as numbers; float() of an integer past
    # the largest float raises OverflowError; json raises RecursionError
    path = tmp_path / "wire.json"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: ") and field in err and cause in err


@pytest.mark.parametrize("argv, cause", [
    (("distance", '"0.5"', "0.1"), "string"),
    (("distance", "0.1", "[0.5, 0, \"0\", 0]"), "string"),
    (("distance", _HUGE, "0.1"), "too large"),
    (("distance", "0.1", "[[0.5, 0, %s, 0]]" % _HUGE), "too large"),
    (("distance", "[" * 100_000 + "]" * 100_000, "0.1"), "nested too deeply"),
], ids=["string", "string-coordinate", "huge", "huge-coordinate", "deep"])
def test_cli_point_takes_only_json_numbers(capsys, argv, cause):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: point") and cause in err


@pytest.mark.parametrize("argv", [
    ("barycenter", "{file}", "--step", "0.5"),
    ("barycenter", "{file}", "--no-line-search"),
    ("barycenter", "{file}", "--max-iters", "abc"),
    ("volume", "--rho", "1"),
], ids=["removed-step", "removed-no-line-search", "bad-max-iters", "missing-dim"])
def test_usage_error_exits_one(capsys, two_weighted_file, argv):
    # exit code 2 means "did not converge"; a flag argparse rejects is bad input
    code, out, err = run(capsys, *(a.format(file=two_weighted_file) for a in argv))
    assert code == 1 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "barycenter", "--help")
    assert code == 0 and "--max-iters" in out


def test_exit_code_two_when_not_converged(capsys, two_weighted_file):
    code, out, _ = run(capsys, "barycenter", two_weighted_file,
                       "--max-iters", "1", "--tol", "1e-15")
    assert code == 2
    assert json.loads(out)["converged"] is False


def _two_point_file(tmp_path, weight):
    path = tmp_path / "w.json"
    path.write_text('{"dimension": 1, "points": [{"coords": [[0.5, 0, 0, 0]], "weight": %s}, '
                    '{"coords": [[0.3, 0.2, 0, 0]], "weight": %s}]}' % (weight, weight))
    return str(path)


@pytest.mark.parametrize("weight", ["1e308", "1e300", "1e-320"])
def test_weights_far_from_one_solve_like_unit_weights(capsys, tmp_path, weight):
    # the solver works on the weights scaled by a power of two, so these
    # give the unit-weight answer
    code, out, err = run(capsys, "barycenter", _two_point_file(tmp_path, weight))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["converged"] is True
    assert np.allclose(payload["barycenter"], [[0.3979, 0.0904, 0.0, 0.0]], atol=1e-4)


def test_energy_beyond_the_float_range_exits_one(capsys, tmp_path):
    # G at 0.9 of two points of weight 1e308 exceeds the largest float
    code, out, err = run(capsys, "energy", _two_point_file(tmp_path, "1e308"), "--at", "0.9")
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: the energy at 0.9 exceeds the float range")


def test_output_is_strict_json(capsys, monkeypatch, two_weighted_file):
    # a NaN or an infinity in a result exits 1; it was printed as the
    # non-JSON NaN or Infinity
    with pytest.raises(ValueError):
        cli._emit({"residual_norm": math.inf})
    monkeypatch.setattr(cli.barycenter, "solve", lambda data, cfg: bc.SolverResult(
        barycenter=np.zeros((1, 4)), residual_norm=math.inf, energy=math.nan, iterations=0,
        stop_reason="converged"))
    code, out, err = run(capsys, "barycenter", two_weighted_file)
    assert code == 1 and out == ""
    assert err.startswith("error: Out of range float values are not JSON compliant")


@pytest.mark.parametrize("flags", [("--tol", "nan"), ("--tol", "inf")], ids=["nan", "inf"])
def test_non_finite_tol_exits_one(capsys, two_weighted_file, flags):
    code, out, err = run(capsys, "barycenter", two_weighted_file, *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: ") and "tol" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_region_seed_out_of_range_exits_one(capsys, region_file, seed):
    code, out, err = run(capsys, "region-barycenter", region_file,
                         "--samples", "1000", "--seed", seed)
    assert code == 1 and out == ""
    assert err.startswith("error: QhbError: ") and "seed" in err


def test_result_round_trip(capsys, two_weighted_file):
    _, out, _ = run(capsys, "barycenter", two_weighted_file)
    payload = json.loads(out)
    data = cli.load_point_set(two_weighted_file)
    c = np.asarray(payload["barycenter"])
    recomputed = float(q.vnorm(bc.residual(data, c)))
    assert recomputed == pytest.approx(payload["residual_norm"], abs=1e-12)
    assert bc.energy(data, c) == pytest.approx(payload["energy"], abs=1e-12)


def test_region_barycenter_deterministic_output(capsys, region_file):
    code1, out1, _ = run(capsys, "region-barycenter", region_file,
                         "--samples", "50000", "--seed", "11")
    code2, out2, _ = run(capsys, "region-barycenter", region_file,
                         "--samples", "50000", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    dev = np.linalg.norm(np.asarray(payload["barycenter"]) - np.array([[0.3, 0, 0, 0]]))
    assert dev <= 3.0 * payload["barycenter_standard_error"]
    assert payload["samples_accepted"] > 0
    assert payload["seed"] == 11


def test_region_barycenter_zero_samples(capsys, region_file):
    code, _, err = run(capsys, "region-barycenter", region_file, "--samples", "0")
    assert code == 1
    assert "samples" in err


def test_volume_command(capsys):
    code, out, _ = run(capsys, "volume", "--rho", "0", "--dim", "1")
    assert code == 0
    assert float(out) == 0.0
    code, out, _ = run(capsys, "volume", "--rho", str(math.log(3)), "--dim", "1")
    assert float(out) == pytest.approx(88 * math.pi**2 / 81, rel=1e-15)


def test_volume_command_at_dimension_85(capsys):
    # (2n + 1)! overflows a float from n = 85; the volume is a normal float
    code, out, err = run(capsys, "volume", "--dim", "85", "--rho", "1")
    assert code == 0 and err == ""
    assert float(out) == pytest.approx(7.252987743340231e-217, rel=1e-12)


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_volume_rejects_non_finite_radius(capsys, rho):
    code, out, err = run(capsys, "volume", "--rho", rho, "--dim", "1")
    assert code == 1 and out == ""
    assert "NonFinite" in err


@pytest.mark.parametrize("argv, cls", [
    (("--dim", "0", "--rho", "1"), "DimensionMismatch"),
    (("--rho", "-1", "--dim", "1"), "QhbError"),
], ids=["dimension-0", "negative-radius"])
def test_volume_rejects_bad_arguments(capsys, argv, cls):
    code, out, err = run(capsys, "volume", *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cls}: ")


def test_distance_command(capsys):
    code, out, _ = run(capsys, "distance", "0", "0.5")
    assert code == 0
    assert out.strip() == "1.0986122886681098"
    # quaternion array form
    code, out, _ = run(capsys, "distance", "[0.5, 0, 0, 0]", "[[0.5, 0, 0, 0]]")
    assert code == 0
    assert float(out) == 0.0


def test_distance_dimension_mismatch(capsys):
    code, _, err = run(capsys, "distance", "[[0.1,0,0,0],[0,0,0,0]]", "0.5")
    assert code == 1
    assert "DimensionMismatch" in err and "dimension" in err
    code, _, err = run(capsys, "distance", "[[[0.1,0,0,0]]]", "0.5")
    assert code == 1
    assert "DimensionMismatch" in err and "cannot read a point" in err


def test_energy_command_and_minimality(capsys, two_weighted_file):
    code, out, _ = run(capsys, "energy", two_weighted_file, "--at", str(2 / 7))
    assert code == 0
    e_min = float(out)
    for probe in ("0", "0.4", "[[0.1, 0.2, 0, 0]]"):
        code, out, _ = run(capsys, "energy", two_weighted_file, "--at", probe)
        assert code == 0
        assert float(out) >= e_min


def test_verify_trials_zero(capsys):
    code, out, err = run(capsys, "verify", "--trials", "0")
    assert code == 0
    assert "vacuous" in err
    assert "0 checks" in out


def test_verify_negative_trials_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "--trials", "-3")
    assert code == 1
    assert out == ""
    assert "QhbError" in err and "trials" in err


def test_verify_json_report_is_strict_json(capsys, tmp_path, monkeypatch):
    def crashing(rng, trials):
        raise RuntimeError("identity broke")
        yield

    def refuse(literal):
        raise ValueError(f"non-standard JSON constant {literal}")

    monkeypatch.setattr(verify, "CHECKS", [verify.Check("crashing", 1e-12, crashing),
                                           verify.CHECKS[4]])
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--trials", "20", "--json", str(report_path))
    assert code == 1
    assert "max_error= inf" in out and "[RuntimeError: identity broke]" in out
    report = json.loads(report_path.read_text(), parse_constant=refuse)
    crashed, involution = report["checks"]
    assert crashed["max_error"] is None and crashed["passed"] is False
    assert crashed["note"] == "RuntimeError: identity broke"
    assert involution["max_error"] >= 0.0 and involution["note"] == ""


def test_verify_small_run(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--trials", "40", "--seed", "1",
                       "--json", str(report_path))
    assert code == 0
    assert "involution" in out
    assert " pass" in out
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"involution", "norm_relation", "sp_membership", "jacobian_fd",
            "measure_invariance", "intertwine_offdiag", "poisson_distance",
            "coercivity", "convexity_fd"} <= names


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--trials", "25", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--trials", "25", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
