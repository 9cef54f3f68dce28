"""Tests for shared utilities: units, seeded RNGs, tables."""

import numpy as np
import pytest

from repro.utils.rng import seeded_rng
from repro.utils.tables import Table
from repro.utils.units import GB, KiB, MiB, format_bytes, format_time


class TestUnits:
    def test_binary_vs_decimal(self):
        assert KiB == 1024
        assert MiB == 1024 * 1024
        assert GB == 1_000_000_000

    @pytest.mark.parametrize(
        "n,expected",
        [(512, "512 B"), (1536, "1.5 KiB"), (3 * MiB, "3 MiB"), (2 * 1024**3, "2 GiB")],
    )
    def test_format_bytes(self, n, expected):
        assert format_bytes(n) == expected

    @pytest.mark.parametrize(
        "t,expected",
        [(2.0, "2 s"), (3.2e-3, "3.2 ms"), (4.5e-6, "4.5 us"), (7e-9, "7 ns")],
    )
    def test_format_time(self, t, expected):
        assert format_time(t) == expected


class TestRng:
    def test_seeded_rng_reproducible(self):
        a = seeded_rng(5).integers(0, 1000, size=10)
        b = seeded_rng(5).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_default_seed_stable(self):
        a = seeded_rng().random(4)
        b = seeded_rng().random(4)
        np.testing.assert_array_equal(a, b)


class TestTable:
    def test_render_aligns_columns(self):
        t = Table(headers=["name", "value"], title="demo")
        t.add_row("alpha", 1.5)
        t.add_row("b", 12345.678)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert all(len(l) == len(lines[1]) for l in lines[1:])
        assert "alpha" in text

    def test_row_width_checked(self):
        t = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_extend(self):
        t = Table(headers=["x"])
        t.extend([[1], [2], [3]])
        assert len(t.rows) == 3

    def test_float_formatting(self):
        t = Table(headers=["v"])
        t.add_row(0.000123)
        t.add_row(1234567.0)
        t.add_row(0.0)
        assert t.rows[0][0] == "1.230e-04"
        assert t.rows[1][0] == "1.235e+06"
        assert t.rows[2][0] == "0"
