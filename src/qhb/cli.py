"""Command-line interface, and the one module that reads and writes JSON.

Subcommands: barycenter, region-barycenter, volume, distance, energy,
verify.  All I/O is JSON with round-trip-safe number formatting; exit
codes are 0 (success), 1 (bad input, a usage error too), 2 (solver did
not converge).

JSON wire format: a quaternion is the array [w, x, y, z]; a vector in
H^n is an array of n such arrays.  Every field is read through _field,
so a missing or malformed one raises a QhbError that names it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import barycenter, geometry, mobius, regions, verify
from .errors import DimensionMismatch, NonFinite, QhbError

_REGION_FACTORIES = {regions.GEODESIC_BALL: regions.geodesic_ball,
                     regions.EUCLIDEAN_BALL: regions.euclidean_ball}


def _field(obj, key, conv, where: str):
    """conv(obj[key]), with a missing or malformed field raised as a
    QhbError naming where and key; an integer too large for a float is
    malformed."""
    try:
        return conv(obj[key])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise QhbError(f"{where}: missing or malformed {key!r} ({exc})") from None


def _load(text: str, where: str):
    """json.loads(text), with arrays nested deeper than the parser's
    recursion allows raised as a QhbError naming where."""
    try:
        return json.loads(text)
    except RecursionError:
        raise QhbError(f"{where}: JSON nested too deeply") from None


def _dimension(v) -> int:
    if type(v) is not int or v < 1:
        raise ValueError(f"expected an integer >= 1, got {v!r}")
    return v


def _number(v) -> float:
    """v, a JSON number, as a float: float() also reads strings, and reads
    true and false as 1 and 0."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got the JSON boolean {json.dumps(v)}")
    if isinstance(v, str):
        raise ValueError("expected a number, got a JSON string")
    return float(v)


def _reals(v) -> np.ndarray:
    """v, a number or nested arrays of numbers, as a float array; numpy,
    too, reads strings and JSON's true and false."""
    z = np.asarray(v, dtype=float)
    for x in np.asarray(v, dtype=object).flat:
        if isinstance(x, (bool, str)):
            raise ValueError("expected numbers, got a JSON "
                             + ("boolean" if isinstance(x, bool) else "string"))
    return z


def _array(v) -> list:
    if type(v) is not list:
        raise ValueError(f"expected a JSON array, got {type(v).__name__}")
    return v


def _hvector(obj, n: int | None, where: str) -> np.ndarray:
    """A vector in H^n, an array of n [w,x,y,z] arrays, as an (n, 4)
    array; n=None takes any n >= 1."""
    z = _reals(obj)
    if z.ndim != 2 or z.shape[1] != 4 or z.shape[0] < 1:
        raise DimensionMismatch(f"{where}: cannot read a point from an array of shape {z.shape}")
    if n is not None and z.shape[0] != n:
        raise DimensionMismatch(f"{where}: has dimension {z.shape[0]}, expected {n}")
    return z


def to_lists(z) -> list:
    """Nested-list form of a quaternion array (JSON-ready)."""
    return np.asarray(z, dtype=float).tolist()


def load_point_set(path: str) -> barycenter.WeightedPoints:
    """Read {"dimension": n, "points": [{"coords": [[w,x,y,z],...], "weight": w}]}.

    Weights default to 1.0.  This reads the structure, shapes and
    dimension; WeightedPoints checks the values.  Errors name the index.
    """
    with open(path, encoding="utf-8") as fh:
        obj = _load(fh.read(), "point set")
    n = _field(obj, "dimension", _dimension, "point set")
    entries = _field(obj, "points", _array, "point set")
    if not entries:
        raise barycenter.EmptyData("no points in input")
    pts, wts = [], []
    for i, entry in enumerate(entries):
        where = f"point {i}"
        pts.append(_field(entry, "coords", lambda c: _hvector(c, n, where), where))
        # entry is a JSON object once its coords are read
        wts.append(_field(entry, "weight", _number, where) if "weight" in entry else 1.0)
    return barycenter.WeightedPoints(points=np.array(pts), weights=np.array(wts))


def parse_point(text: str, n: int | None = None) -> np.ndarray:
    """Parse a point: a number (real quaternion, n=1), a [w,x,y,z] array
    (n=1), or an array of such arrays."""
    where = f"point {text!r}"
    v = _load(text, "point")
    if isinstance(v, (int, float)):
        v = [v, 0.0, 0.0, 0.0]
    arr = _field({"point": v}, "point", lambda p: _hvector(np.atleast_2d(_reals(p)), n, where),
                 where)
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{where} is not finite")
    return arr


def region_to_json(spec: regions.RegionSpec) -> dict:
    if spec.kind == regions.INDICATOR:
        raise QhbError("indicator regions are in-process only and cannot be serialized")
    return {"kind": spec.kind, "center": to_lists(spec.center),
            "radius": spec.radius, "dimension": spec.n}


def region_from_json(obj) -> regions.RegionSpec:
    """Read {"kind": ..., "center": [[w,x,y,z],...], "radius": r, "dimension": n}."""
    n = _field(obj, "dimension", _dimension, "region")
    center = _field(obj, "center", lambda c: _hvector(c, n, "region center"), "region")
    radius = _field(obj, "radius", _number, "region")
    return _field(obj, "kind", _REGION_FACTORIES.__getitem__, "region")(center, radius)


def sp_to_json(g: mobius.SpMatrix) -> dict:
    m = g.matrix
    return {"A": to_lists(m[:-1, :-1]), "alpha": to_lists(m[:-1, -1]),
            "beta": to_lists(m[-1, :-1]), "a": to_lists(m[-1, -1])}


def sp_from_json(obj) -> mobius.SpMatrix:
    """Read {"A":..., "alpha":..., "beta":..., "a":...}; rejects non-members."""
    n = _field(obj, "A", lambda v: _dimension(len(v)), "Sp matrix")
    m = np.zeros((n + 1, n + 1, 4))
    m[:n, :n] = _field(obj, "A", lambda v: [_hvector(r, n, "Sp matrix A") for r in v], "Sp matrix")
    m[:n, n] = _field(obj, "alpha", lambda v: _hvector(v, n, "Sp matrix alpha"), "Sp matrix")
    m[n, :n] = _field(obj, "beta", lambda v: _hvector(v, n, "Sp matrix beta"), "Sp matrix")
    m[n, n] = _field(obj, "a", lambda v: _hvector([v], 1, "Sp matrix a")[0], "Sp matrix")
    return mobius.SpMatrix(matrix=m)


def _solver_config(args) -> barycenter.SolverConfig:
    return barycenter.SolverConfig(max_iters=args.max_iters, tol=args.tol)


def _result_fields(res: barycenter.SolverResult) -> dict:
    return {
        "barycenter": to_lists(res.barycenter),
        "residual_norm": res.residual_norm,
        "energy": res.energy,
        "iterations": res.iterations,
        "converged": res.converged,
    }


def _emit(payload: dict) -> None:
    """Print payload as strict JSON: a NaN or an infinity, which JSON has
    no literal for, raises ValueError (exit code 1)."""
    print(json.dumps(payload, indent=2, allow_nan=False))


def cmd_barycenter(args) -> int:
    data = load_point_set(args.input)
    cfg = _solver_config(args)
    res = barycenter.solve(data, cfg)
    payload = {"dimension": data.n}
    payload.update(_result_fields(res))
    payload["config"] = dataclasses.asdict(cfg)
    _emit(payload)
    return 0 if res.converged else 2


def cmd_region_barycenter(args) -> int:
    if args.samples < 1:
        raise QhbError("--samples must be >= 1")
    with open(args.region, encoding="utf-8") as fh:
        spec = region_from_json(_load(fh.read(), "region"))
    cfg = _solver_config(args)
    rr = regions.region_barycenter(spec, args.samples, args.seed, cfg)
    ss = rr.sample_set
    payload = {"dimension": spec.n}
    payload.update(_result_fields(rr.result))
    payload.update({
        "total_mass_estimate": ss.total_mass_estimate,
        "standard_error": ss.standard_error,
        "moment_estimate": ss.moment_estimate,
        "moment_standard_error": ss.moment_standard_error,
        "barycenter_standard_error": rr.barycenter_standard_error,
        "samples_requested": ss.count_requested,
        "samples_accepted": ss.count_accepted,
        "seed": ss.seed,
        "config": dataclasses.asdict(cfg),
    })
    _emit(payload)
    return 0 if rr.result.converged else 2


def cmd_volume(args) -> int:
    print(f"{float(geometry.ball_volume(args.rho, args.dim)):.17g}")
    return 0


def cmd_distance(args) -> int:
    p = parse_point(args.p)
    y = parse_point(args.q, n=p.shape[0])
    print(f"{float(geometry.distance(p, y)):.17g}")
    return 0


def cmd_energy(args) -> int:
    data = load_point_set(args.input)
    x = parse_point(args.at, n=data.n)
    g = barycenter.energy(data, x)
    if not math.isfinite(g):
        raise QhbError(f"the energy at {args.at} exceeds the float range; scale the weights down")
    print(f"{g:.17g}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.seed, args.trials)
    if args.trials == 0:
        print("warning: --trials 0 runs no checks (vacuous pass)", file=sys.stderr)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        print(f"{r.name:34s} trials={r.trials:>6d} max_error={r.max_error: .3e} "
              f"tol={r.tolerance:.1e} {status}{note}")
    ok = all(r.passed for r in results)
    print(f"{len(results)} checks, {sum(r.passed for r in results)} passed "
          f"(seed={args.seed}, trials={args.trials})")
    if args.json:
        report = {
            "seed": args.seed,
            "trials": args.trials,
            "all_passed": ok,
            "checks": [
                # a crashed check's inf, or a NaN, has no strict-JSON literal
                {"name": r.name, "trials": r.trials,
                 "max_error": r.max_error if math.isfinite(r.max_error) else None,
                 "tolerance": r.tolerance, "passed": r.passed, "note": r.note}
                for r in results
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
    return 0 if ok else 1


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="residual norm per unit weight")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qhb",
        description="Conformal barycenters in the quaternionic hyperbolic ball.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barycenter", help="barycenter of a weighted point set file")
    p.add_argument("input", help="point set JSON file")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("region-barycenter", help="barycenter of a sampled region")
    p.add_argument("region", help="region JSON file")
    p.add_argument("--samples", type=int, required=True, help="number of MC proposals")
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_region_barycenter)

    p = sub.add_parser("volume", help="volume of a metric ball")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("distance", help="distance between two points")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("energy", help="energy of a point set at a probe point")
    p.add_argument("input", help="point set JSON file")
    p.add_argument("--at", required=True, help="probe point (JSON)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("verify", help="run the geometric identity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (its exit code 2, which here
        # means "did not converge") or the --help text (exit code 0)
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except QhbError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
