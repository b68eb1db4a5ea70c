"""dump_csv's block encoder against Python's own "%.17g" formatting."""

import tracemalloc

import numpy as np
import pytest

from csv_format_cases import GENERATORS
from lpvslc import io as lpvslc_io
from lpvslc.io import dump_csv


def expected(table: np.ndarray) -> str:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in table.tolist())


def assert_same(got: str, want: str):
    """got == want, reporting the first lines that differ."""
    same = got == want  # a bare bool: no diff of two long strings
    pairs = zip(got.split("\n"), want.split("\n"))
    assert same, [p for p in pairs if p[0] != p[1]][:5]


def write(path, table: np.ndarray) -> str:
    header = [f"c{j}" for j in range(table.shape[1])]
    dump_csv(path, header, list(table.T))
    text = path.read_text()
    assert text.startswith(",".join(header) + "\n")
    return text.partition("\n")[2]


@pytest.mark.parametrize("generate", GENERATORS, ids=lambda g: g.__name__)
def test_cells_read_as_format_17g(tmp_path, generate):
    values = generate(np.random.default_rng(27), 3000)
    for width in (1, 3, 7):
        table = values[:values.size // width * width].reshape(-1, width)
        assert_same(write(tmp_path / "t.csv", table), expected(table))


def test_exact_powers_of_ten_are_decided():
    """1, 10, ..., 1e14 scale to exactly 10**16, within the margin of the
    decade boundary; either decade gives the same digits, so the encoder
    decides them instead of leaving them to "%.17g"."""
    D, e, ok = lpvslc_io._decimal(np.array([float(10 ** k) for k in range(15)]))
    assert ok.all()
    assert (D == 10 ** 16).all()
    assert e.tolist() == list(range(15))


def test_blocks_hold_whole_rows(tmp_path):
    """A table of several blocks, rows not dividing the block size."""
    rng = np.random.default_rng(1)
    rows = 2 * (lpvslc_io._BLOCK_CELLS // 5) + 3
    table = rng.choice([-1.0, 1.0], (rows, 5)) * 10.0 ** rng.uniform(-8, 3, (rows, 5))
    table[::7, 2] = 0.0
    assert_same(write(tmp_path / "t.csv", table), expected(table))


def test_empty_and_one_row_tables(tmp_path):
    assert write(tmp_path / "e.csv", np.zeros((0, 3))) == ""
    # The double nearest 1e-44 lies below it: its exponent is -45.
    one = np.array([[1e-44, -0.0, np.copysign(np.nan, -1.0), 123.0, 0.5]])
    assert write(tmp_path / "o.csv", one) == expected(one) \
        == "9.9999999999999995e-45,-0,nan,123,0.5\n"


@pytest.mark.parametrize("column", [np.array([1.0 + 2.0j, 3.0]),
                                    np.array(["1.5", "2"]),
                                    np.array([1.0, None], dtype=object)],
                         ids=["complex", "numeric strings", "object"])
def test_refuses_columns_that_are_not_real(tmp_path, column):
    with pytest.raises(ValueError, match="column 'b' is not real"):
        dump_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(2), column])


def test_booleans_and_integers_are_written_as_floats(tmp_path):
    dump_csv(tmp_path / "t.csv", ["b", "i", "u"],
             [np.array([True, False]), np.array([-3, 2 ** 60]),
              np.array([7, 0], dtype=np.uint8)])
    assert (tmp_path / "t.csv").read_text() == \
        "b,i,u\n1,-3,7\n0,1.152921504606847e+18,0\n"


def test_memory_stays_bounded(tmp_path):
    """A README-sized run table (20,001 x 21): the encoder's working
    arrays are per block, so the peak stays well under the 17.2 MB that
    formatting every cell to a Python string took."""
    columns = list(np.random.default_rng(2).standard_normal((21, 20001)))
    tracemalloc.start()
    try:
        dump_csv(tmp_path / "run.csv", [f"c{j}" for j in range(21)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17.2e6
