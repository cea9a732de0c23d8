"""Output check: compare scans.csv texts row by row.

Two texts pass when every row names the same run, scan, model, true count and
MAP count, and every float column differs by at most FLOAT_TOL. Byte identity
is reported separately; the traced pass must reproduce the untraced rows
byte for byte, while the committed reference allows FLOAT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Largest absolute difference accepted in a float column against the reference.
# The columns are OSPA distances (0 to the cutoff, in m) and Hellinger
# distances (0 to 1), written with 9 significant digits.
FLOAT_TOL = 1e-6

KEY_FIELDS = 5  # run, scan, model, true_n, map_n


@dataclass(frozen=True)
class Comparison:
    identical: bool
    max_dev: float  # largest absolute float-column difference
    key_mismatches: int  # rows (or headers) whose non-float fields differ

    @property
    def passed(self) -> bool:
        return self.key_mismatches == 0 and self.max_dev <= FLOAT_TOL


def join_rows(header: str, runs) -> str:
    """scans.csv text for the given per-run row lists, as run_experiment writes it."""
    return header + "\n" + "".join("\n".join(rows) + "\n" for rows in runs)


def compare(got: str, want: str) -> Comparison:
    if got == want:
        return Comparison(True, 0.0, 0)
    a, b = got.splitlines(), want.splitlines()
    mismatches = abs(len(a) - len(b))
    max_dev = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        fx, fy = x.split(","), y.split(",")
        if len(fx) != len(fy) or fx[:KEY_FIELDS] != fy[:KEY_FIELDS]:
            mismatches += 1
            continue
        try:
            devs = [abs(float(u) - float(v)) for u, v in zip(fx[KEY_FIELDS:], fy[KEY_FIELDS:])]
        except ValueError:
            mismatches += 1
            continue
        for dev in devs:
            max_dev = max(max_dev, dev) if dev == dev else math.inf  # NaN never passes
    return Comparison(False, max_dev, mismatches)
