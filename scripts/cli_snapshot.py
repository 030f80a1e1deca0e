"""Print the stdout and exit code of a fixed list of qhb CLI commands.

Usage:

    python scripts/cli_snapshot.py SRC_DIR

Each command runs as `python -m qhb.cli ...` with PYTHONPATH=SRC_DIR, in
scripts/fixtures/, on the point set and region files kept there.  The
output names every command, then its stdout and its exit code, and holds
no path, so the CLI output of two source trees (say, a checkout of the
parent commit and the working tree) is compared with one diff:

    python scripts/cli_snapshot.py ../parent/src > before.txt
    python scripts/cli_snapshot.py src > after.txt
    diff before.txt after.txt

stderr is not captured in the output.
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
    + [["barycenter", f, "--no-line-search", "--step", "0.5"] for f in _POINT_SETS]
    + [
        ["energy", "two_points.json", "--at", "0.1"],
        ["energy", "three_points_n2.json", "--at", "[[0.1, 0, 0, 0], [0, 0.2, 0, 0]]"],
        ["distance", "[0.1, 0.2, 0, 0]", "[-0.3, 0, 0.1, 0]"],
        ["distance", "[[0.1, 0, 0, 0], [0, 0.2, 0, 0]]", "[[0, 0, 0.3, 0], [0.1, 0, 0, 0.1]]"],
        ["volume", "--rho", "1.5", "--dim", "1"],
        ["volume", "--rho", "0.7", "--dim", "3"],
        ["region-barycenter", "geodesic_ball_n2.json", "--samples", "1048576", "--seed", "3"],
        ["region-barycenter", "euclidean_ball_n1.json", "--samples", "200000", "--seed", "3"],
        ["verify", "--seed", "0", "--trials", "2000"],
        ["verify", "--seed", "3", "--trials", "2000"],
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
        print(f"exit code {proc.returncode}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
