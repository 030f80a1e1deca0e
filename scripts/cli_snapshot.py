"""Print the stdout, first stderr line and exit code of a fixed list of
qhb CLI commands.

Usage:

    python scripts/cli_snapshot.py SRC_DIR

Each command runs as `python -m qhb.cli ...` with PYTHONPATH=SRC_DIR, in
scripts/fixtures/, on the point set and region files kept there (seven
of them malformed on purpose: a null, a boolean and a string weight, a
weight of 401 digits, an object for the points, points nested 5000 deep
and a null radius), three two-point sets whose weights lie far from 1
(1e308, 1e300 and 1e-320: the total overflows, the sum of squares would,
and the weights are subnormal), which solve like unit weights, one region
too small to weigh (a geodesic ball of radius 1e-150, whose proposal box
has volume 0) and one whose sample weighs about 1e-166 in all (a
Euclidean ball of radius 1e-14 at n = 3).  The output names every
command, then its stdout, the first line of its stderr and its exit
code, and holds no path,
so the CLI output of two source trees (say, a checkout of the parent
commit and the working tree) is compared with one diff:

    python scripts/cli_snapshot.py ../parent/src > before.txt
    python scripts/cli_snapshot.py src > after.txt
    diff before.txt after.txt

A command that dies with a Python traceback shows its first line,
"Traceback (most recent call last):", where a handled error shows
"error: <Class>: ...".
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

_POINT_SETS = ["two_points.json", "four_points.json", "three_points_n2.json"]

COMMANDS = (
    [["barycenter", f] for f in _POINT_SETS]
    + [
        ["barycenter", "two_points.json", "--step", "0.5"],
        ["energy", "two_points.json", "--at", "0.1"],
        ["energy", "three_points_n2.json", "--at", "[[0.1, 0, 0, 0], [0, 0.2, 0, 0]]"],
        ["distance", "[0.1, 0.2, 0, 0]", "[-0.3, 0, 0.1, 0]"],
        ["distance", "[[0.1, 0, 0, 0], [0, 0.2, 0, 0]]", "[[0, 0, 0.3, 0], [0.1, 0, 0, 0.1]]"],
        ["volume", "--rho", "1.5", "--dim", "1"],
        ["volume", "--rho", "0.7", "--dim", "3"],
        ["volume", "--dim", "0", "--rho", "1"],
        ["volume", "--rho", "-1", "--dim", "1"],
        ["volume", "--dim", "85", "--rho", "1"],
        ["region-barycenter", "geodesic_ball_n1.json", "--samples", "1048576", "--seed", "3"],
        ["region-barycenter", "geodesic_ball_n2.json", "--samples", "1048576", "--seed", "3"],
        ["region-barycenter", "euclidean_ball_n1.json", "--samples", "200000", "--seed", "3"],
        ["barycenter", "null_weight.json"],
        ["barycenter", "boolean_weight.json"],
        ["barycenter", "object_points.json"],
        ["barycenter", "string_weight.json"],
        ["barycenter", "huge_weight.json"],
        ["barycenter", "deep_points.json"],
        ["barycenter", "weights_1e308.json"],
        ["barycenter", "weights_1e300.json"],
        ["barycenter", "weights_1e-320.json"],
        ["energy", "weights_1e308.json", "--at", "0.9"],
        ["region-barycenter", "null_radius.json", "--samples", "1000"],
        ["region-barycenter", "tiny_geodesic_ball.json", "--samples", "1000", "--seed", "3"],
        ["region-barycenter", "euclidean_ball_tiny_n3.json", "--samples", "262144",
         "--seed", "3"],
        ["barycenter", "two_points.json", "--tol", "nan"],
        ["region-barycenter", "geodesic_ball_n2.json", "--samples", "1000",
         "--seed", "18446744073709551616"],
        ["region-barycenter", "geodesic_ball_n2.json", "--samples", "1000", "--seed", "-1"],
        ["verify", "--seed", "0", "--trials", "2000"],
        ["verify", "--seed", "3", "--trials", "2000"],
        ["verify", "--seed", "0", "--trials", "-3"],
    ]
)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.path.abspath(argv[1])}
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "qhb.cli", *cmd], cwd=FIXTURES,
                              env=env, capture_output=True, text=True)
        print(f"$ qhb {shlex.join(cmd)}")
        sys.stdout.write(proc.stdout)
        print("stderr: " + proc.stderr.partition("\n")[0])
        print(f"exit code {proc.returncode}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
