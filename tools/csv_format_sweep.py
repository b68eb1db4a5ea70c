"""Compare lpvslc.io.dump_csv with format(v, ".17g") on millions of values.

Runs every generator of tests/csv_format_cases.py, in chunks, through
dump_csv (tables of 1 to 9 columns) and through Python's formatting, and
prints per generator the values compared and the cells that differ, then
the totals.  Exit status 1 when any cell differs.

    PYTHONPATH=src python3 tools/csv_format_sweep.py [VALUES] [SEED]

VALUES defaults to 5,000,000 (split over the generators), SEED to 0.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from csv_format_cases import GENERATORS  # noqa: E402
from lpvslc.io import dump_csv  # noqa: E402

CHUNK = 200_000


def mismatches(values: np.ndarray, width: int, path: Path) -> int:
    """Cells of values, written as a table of width columns, whose text
    differs from format(v, ".17g")."""
    values = values[:values.size // width * width].reshape(-1, width)
    dump_csv(path, [f"c{j}" for j in range(width)], list(values.T))
    rows = path.read_text().split("\n")[1:-1]
    got = [cell for row in rows for cell in row.split(",")]
    want = [format(v, ".17g") for v in values.ravel().tolist()]
    return (sum(map(str.__ne__, got, want)) + abs(len(got) - len(want))
            + (len(rows) != len(values)))


def main(total: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    per = total // len(GENERATORS)
    bad = done = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        for gen in GENERATORS:
            count = miss = 0
            while count < per:
                values = gen(rng, min(CHUNK, per - count))
                width = int(rng.integers(1, 10))
                miss += mismatches(values, width, path)
                count += values.size // width * width
            print(f"{gen.__name__}: {count} values, {miss} mismatches")
            bad += miss
            done += count
    print(f"total: {done} values, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    sys.exit(main(*(args + [5_000_000, 0][len(args):])))
