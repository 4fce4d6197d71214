"""The vectorised "%.15g" kernel: byte for byte what Python's % gives."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import safelift as sl
from safelift._g15 import CELL, format_g15

REPO = Path(__file__).resolve().parent.parent


def assert_matches_percent(values):
    x = np.asarray(values, dtype=np.float64)
    cells = format_g15(x)
    assert cells.shape == (len(x), CELL)
    assert not cells[:, -1].any()  # the separator byte stays free
    got = cells.tobytes().translate(None, b"\0")
    want = b"".join(b"%.15g" % v for v in x.tolist())
    if got != want:  # name the first value that differs
        for v, cell in zip(x.tolist(), cells):
            assert bytes(cell).replace(b"\0", b"") == b"%.15g" % v, repr(v)
    assert got == want


def test_zeros_subnormals_and_non_finite():
    tiny = [5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308]
    assert_matches_percent([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
                           + tiny + [-v for v in tiny])


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k
                       for k in range(-330, 309)])
    powers = powers[powers > 0]
    assert_matches_percent(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)]))


def test_exact_half_way_ties_round_like_percent():
    # 10**14 + k + 0.5 is exact and sits half-way between two 15-digit
    # decimals; scaling by a power of two keeps it exact.
    k = np.arange(0, 9 * 10 ** 14, 10 ** 12 + 7, dtype=np.int64)
    ties = (10 ** 14 + k).astype(np.float64) + 0.5
    assert_matches_percent(np.concatenate([ties * 2.0 ** s for s in range(-40, 41)]))


def test_rounding_across_the_fixed_and_exponent_switch():
    edges = [9.99999999999999950e-5, 9.9999999999999995e-5, 999999999999999.5,
             999999999999999.4, 999999999999999.6, 99999999999999.95,
             9.999999999999995, 0.00099999999999999995, 1e-5, 1e-4, 1e15, 1e16]
    edges += [math.nextafter(v, d) for v in edges for d in (0.0, math.inf)]
    assert_matches_percent(edges + [-v for v in edges])


def test_every_layout_with_few_digits():
    rng = np.random.default_rng(15)
    digits = rng.integers(1, 16, 20000)
    mant = [int(rng.integers(10 ** (d - 1), 10 ** d)) for d in digits]
    exps = rng.integers(-20, 25, 20000)
    assert_matches_percent([float(f"{m}e{e}") for m, e in zip(mant, exps)])


def test_random_bit_patterns():
    rng = np.random.default_rng(2024)
    assert_matches_percent(rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
                           .view(np.float64))


@pytest.mark.parametrize("config", ["dc_motor_fig2.cfg", "dc_motor_certified.cfg"])
def test_bundled_trajectories(config):
    ec = sl.load_config(REPO / "configs" / config)
    _, _, cols = sl.run(ec.sim).csv_table(None)
    assert_matches_percent(np.concatenate(cols))


def test_tables_are_not_built_at_import():
    # Building them costs milliseconds that every process which only loads
    # a config would pay; the first format_g15 call builds them.
    code = ("import safelift, safelift._g15 as g; "
            "safelift.load_config('configs/dc_motor_fig2.cfg'); "
            "print(g.tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert out.stdout.strip() == "0"
