"""Triangle data model, CSV ingestion, and derived quantities."""

import numpy as np
import pytest

import dirichlet_reserving as dr
from dirichlet_reserving.triangle import TriangleError, prefix_sums


def write(tmp_path, text, name="tri.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


HEADER10 = "accident_year,premium," + ",".join(f"dev_{j}" for j in range(1, 11))


class TestLoad:
    def test_bundled_fixture(self, triangle18):
        assert triangle18.m == 18
        assert triangle18.n == 10
        assert triangle18.years == tuple(range(1989, 2007))
        assert triangle18.premiums[0] == 165339
        assert triangle18.losses[0, 0] == 41891
        assert list(triangle18.k[:9]) == [10] * 9
        assert list(triangle18.k[9:]) == [9, 8, 7, 6, 5, 4, 3, 2, 1]

    def test_single_row(self, tmp_path):
        path = write(tmp_path, HEADER10 + "\n2006,341973,66827" + "," * 9 + "\n")
        t = dr.load_triangle(path)
        assert t.m == 1 and t.n == 10
        assert int(t.k[0]) == 1
        assert t.losses[0, 0] == 66827

    def test_zero_premium(self, tmp_path):
        path = write(tmp_path, HEADER10 + "\n2006,0,66827" + "," * 9 + "\n")
        with pytest.raises(TriangleError, match="premium"):
            dr.load_triangle(path)

    def test_zero_loss(self, tmp_path):
        path = write(tmp_path, HEADER10 + "\n2006,341973,0" + "," * 9 + "\n")
        with pytest.raises(TriangleError, match="loss"):
            dr.load_triangle(path)

    def test_gap_in_row_mask(self, tmp_path):
        row = "2005,313808,68185,," + "1000" + "," * 7
        path = write(tmp_path, HEADER10 + "\n" + row + "\n2006,341973,66827" + "," * 9 + "\n")
        with pytest.raises(TriangleError, match="staircase"):
            dr.load_triangle(path)

    def test_non_staircase_shape(self, tmp_path):
        # two observed cells on the newest year break the valuation layout
        text = (
            HEADER10
            + "\n2005,313808,68185,54385"
            + "," * 8
            + "\n2006,341973,66827,1000"
            + "," * 8
            + "\n"
        )
        with pytest.raises(TriangleError, match="staircase"):
            dr.load_triangle(write(tmp_path, text))

    def test_thousands_separator_rejected(self, tmp_path):
        path = write(tmp_path, HEADER10 + '\n2006,"341,973",66827' + "," * 9 + "\n")
        with pytest.raises(TriangleError, match="separator"):
            dr.load_triangle(path)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        text = (
            HEADER10
            + "\n2005,313808,68185," + token + "," * 8
            + "\n2006,341973,66827" + "," * 9
            + "\n"
        )
        path = write(tmp_path, text)
        with pytest.raises(TriangleError, match="non-finite") as info:
            dr.load_triangle(path)
        assert f"{path}:2, dev_2" in str(info.value)

    def test_duplicate_accident_year_rejected(self, tmp_path):
        text = (
            HEADER10
            + "\n2005,313808,68185,1000" + "," * 8
            + "\n2005,341973,66827" + "," * 9
            + "\n"
        )
        path = write(tmp_path, text)
        with pytest.raises(TriangleError, match="repeats line 2") as info:
            dr.load_triangle(path)
        assert f"{path}:3, accident_year" in str(info.value)

    def test_non_finite_premium_rejected(self, tmp_path):
        path = write(tmp_path, HEADER10 + "\n2006,inf,66827" + "," * 9 + "\n")
        with pytest.raises(TriangleError, match="premium"):
            dr.load_triangle(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "year,premium,dev_1\n2006,1,1\n")
        with pytest.raises(TriangleError, match="header"):
            dr.load_triangle(path)

    def test_descending_years(self, tmp_path):
        text = (
            HEADER10
            + "\n2006,341973,66827" + "," * 9
            + "\n2005,313808,68185,54385" + "," * 8
            + "\n"
        )
        with pytest.raises(TriangleError, match="ascending"):
            dr.load_triangle(write(tmp_path, text))


class TestLossRatios:
    def test_quotient(self, triangle18, lr18):
        assert lr18.ratios[8, 0] == triangle18.losses[8, 0] / triangle18.premiums[8]
        assert lr18.ratios[8, 0] == pytest.approx(0.1869305, abs=5e-7)

    def test_unit_ratio(self):
        t = dr.RunOffTriangle([2000], np.array([500.0]), np.array([[500.0]]))
        lr = dr.to_loss_ratios(t)
        assert lr.ratios[0, 0] == 1.0

    def test_full_row_cumulative(self, lr18):
        # accident year 1997 developed to 0.629 within the horizon
        assert round(float(np.nansum(lr18.ratios[8])), 3) == 0.629

    def test_roundtrip_within_ulp(self, triangle18, lr18):
        back = lr18.ratios * triangle18.premiums[:, None]
        obs = ~np.isnan(triangle18.losses)
        diff = np.abs(back[obs] - triangle18.losses[obs])
        assert np.all(diff <= np.spacing(triangle18.losses[obs]))

    def test_mask_preserved(self, triangle18, lr18):
        np.testing.assert_array_equal(np.isnan(lr18.ratios), np.isnan(triangle18.losses))

    def test_row_count_mismatch(self):
        with pytest.raises(TriangleError, match="row count"):
            dr.LossRatioTriangle([2001, 2002], np.ones(5), np.full((3, 2), 0.5))
        with pytest.raises(TriangleError, match="row count"):
            dr.LossRatioTriangle([2001, 2002, 2003], np.ones(2), np.full((3, 2), 0.5))

    def test_nonpositive_premium_names_year(self):
        with pytest.raises(TriangleError, match="premium for accident year 2002"):
            dr.LossRatioTriangle([2001, 2002], np.array([1.0, 0.0]), np.full((2, 2), 0.5))

    def test_nonpositive_ratio_names_cell(self):
        ratios = np.array([[0.5, 0.2], [0.4, -0.1]])
        with pytest.raises(
            TriangleError, match="loss ratio at accident year 2002, development year 2"
        ):
            dr.LossRatioTriangle([2001, 2002], np.ones(2), ratios)


class TestPrefixSums:
    @pytest.mark.parametrize("years", [10, 18])
    def test_bundled_rows_bit_equal(self, years, lr10, lr18):
        lr = lr10 if years == 10 else lr18
        want = np.array([lr.ratios[i, : lr.k[i]].sum() for i in range(lr.m)])
        np.testing.assert_array_equal(prefix_sums(lr.ratios, lr.k), want)
        np.testing.assert_array_equal(lr.observed_cumulative(), want)

    @pytest.mark.parametrize("m,n", [(10, 10), (18, 10), (30, 20)])
    def test_stacks_bit_equal(self, m, n):
        # prefixes of 8 and more cells take numpy's unrolled summation
        rng = np.random.default_rng(31)
        k = np.clip(m - np.arange(m), 1, n)
        stack = rng.gamma(0.5, size=(5, m, n)) * 10.0 ** rng.uniform(-3, 3, size=(5, m, 1))
        got = prefix_sums(stack, k)
        assert got.shape == (5, m)
        for r in range(5):
            np.testing.assert_array_equal(
                got[r], [stack[r, i, : k[i]].sum() for i in range(m)]
            )


class TestCumulative:
    def test_reference_partial_sum(self, lr18):
        assert dr.cumulative(lr18, 10, 1, 9) == pytest.approx(0.70846, abs=5e-6)

    def test_single_term(self, lr18):
        assert dr.cumulative(lr18, 3, 4, 4) == lr18.ratios[2, 3]

    def test_full_row(self, lr18):
        assert round(dr.cumulative(lr18, 9, 1, 10), 3) == 0.629

    def test_unobserved_range(self, lr18):
        with pytest.raises(TriangleError, match="unobserved"):
            dr.cumulative(lr18, 10, 1, 10)

    def test_strictly_increasing(self, lr18):
        vals = [dr.cumulative(lr18, 12, 1, k2) for k2 in range(1, int(lr18.k[11]) + 1)]
        assert np.all(np.diff(vals) > 0)

    def test_bad_indices(self, lr18):
        with pytest.raises(IndexError):
            dr.cumulative(lr18, 0, 1, 1)
        with pytest.raises(IndexError):
            dr.cumulative(lr18, 1, 3, 2)


class TestRestrict:
    def test_to_recent_ten(self, triangle18):
        t = dr.restrict_years(triangle18, 1997)
        assert t.m == 10 and t.n == 10
        assert t.years[0] == 1997
        assert list(t.k) == [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]

    def test_identity(self, triangle18):
        t = dr.restrict_years(triangle18, triangle18.years[0])
        assert t.years == triangle18.years
        np.testing.assert_array_equal(
            np.nan_to_num(t.losses), np.nan_to_num(triangle18.losses)
        )

    def test_full_range(self, triangle18):
        t = dr.restrict_years(triangle18, 1989)
        assert t.m == 18
        # nine accident years carry a complete ten-year history
        assert int((t.k == 10).sum()) == 9

    def test_empty_selection(self, triangle18):
        with pytest.raises(TriangleError):
            dr.restrict_years(triangle18, 2010)

    def test_most_recent_years(self, triangle18):
        t = dr.most_recent_years(triangle18, 10)
        assert t.years[0] == 1997
        with pytest.raises(TriangleError):
            dr.most_recent_years(triangle18, 40)


def test_immutable(triangle18, lr18):
    with pytest.raises(ValueError):
        triangle18.losses[0, 0] = 1.0
    with pytest.raises(ValueError):
        triangle18.premiums[0] = 1.0
    # the prefix lengths are the observed mask every fit and simulation reads
    for t in (triangle18, lr18):
        with pytest.raises(ValueError):
            t.k[-1] = t.n
