import random
from collections import Counter
from fractions import Fraction

import pytest

from ospdim import characters
from ospdim.characters import (
    CASES,
    CorrespondenceReport,
    CumminsKingReport,
    IrrepSpec,
    Side,
    _ck_product_side,
    _ck_schur_side,
    cummins_king_check,
    d21_sdim_closed,
    d21_sdim_t,
    osp1_dim_t,
    osp1_numerator,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
    spinor_sdim,
    spinor_tdim,
    verify_correspondence,
)
from ospdim.partitions import enum_B, enum_offset_forms
from ospdim.schur import dim_gl_frobenius, weyl_table
from ospdim.series import TruncatedSeries, polynomial


def weyl_dim_so_odd(k, p):
    """Weyl dimension formula for so(2k+1), highest weight (p/2, ..., p/2)."""
    mu = [Fraction(p, 2)] * k
    rho = [Fraction(2 * (k - i) + 1, 2) for i in range(1, k + 1)]
    val = Fraction(1)
    for i in range(k):
        val *= (mu[i] + rho[i]) / rho[i]
    for i in range(k):
        for j in range(i + 1, k):
            li, lj = mu[i] + rho[i], mu[j] + rho[j]
            val *= (li * li - lj * lj) / (rho[i] * rho[i] - rho[j] * rho[j])
    assert val.denominator == 1
    return val.numerator


def weyl_dim_so_even(k, p, chirality):
    """Weyl dimension formula for so(2k): weight (p/2,...,p/2) for one
    chirality, (p/2,...,p/2,-p/2) for the other."""
    mu = [Fraction(p, 2)] * k
    if chirality == "next_to_last":
        mu[-1] = -mu[-1]
    val = Fraction(1)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            num = (mu[i - 1] - mu[j - 1] + j - i) * (mu[i - 1] + mu[j - 1] + 2 * k - i - j)
            den = Fraction((j - i) * (2 * k - i - j))
            val *= num / den
    assert val.denominator == 1
    return val.numerator


class TestNumerator:
    def test_small_goldens(self):
        assert str(osp1_numerator(1, 0, 8)) == "1 - t"
        assert str(osp1_numerator(2, 1, 8)) == "1 - t^2"
        assert str(osp1_numerator(3, 1, 8)) == "1 - 3t^2 + 3t^4 - t^6"
        assert str(osp1_numerator(3, 2, 8)) == "1 - t^3"

    def test_factorizations(self):
        for n in range(1, 6):
            order = 2 * n * n
            expect0 = polynomial([1, -1], order) ** n * polynomial([1, 0, -1], order) ** (
                n * (n - 1) // 2
            )
            assert osp1_numerator(n, 0, order) == expect0, n
            expect1 = polynomial([1, 0, -1], order) ** (n * (n - 1) // 2)
            assert osp1_numerator(n, 1, order) == expect1, n

    def test_saturates_to_one(self):
        for n in range(0, 5):
            for p in range(n, n + 3):
                assert osp1_numerator(n, p, 10) == TruncatedSeries.one(10), (n, p)

    def test_one_column_band(self):
        # n = p + 1 leaves a single non-trivial form, a one-column shape
        for p in range(0, 6):
            got = osp1_numerator(p + 1, p, 2 * p + 4)
            expect = polynomial([1] + [0] * p + [-1], 2 * p + 4)
            assert got == expect, p

    def test_two_column_band(self):
        # n = p + 2: coefficients (p+2) at t^(p+1) and t^(p+3), 1 at t^(2p+4)
        for p in range(0, 5):
            order = 2 * p + 6
            got = osp1_numerator(p + 2, p, order)
            coeffs = [Fraction(0)] * (order + 1)
            coeffs[0] = Fraction(1)
            coeffs[p + 1] = Fraction(-(p + 2))
            coeffs[p + 3] = Fraction(p + 2)
            coeffs[2 * p + 4] = Fraction(-1)
            assert got == TruncatedSeries(coeffs, order), p

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            osp1_numerator(-1, 0)
        with pytest.raises(ValueError):
            osp1_numerator(2, -1)

    @staticmethod
    def uncached(n, p, order):
        """The form loop with nothing kept between calls."""
        coeffs = [0] * (order + 1)
        for form, sign in enum_offset_forms(n, p):
            exp = 2 * sum(form.arms) + (p + 1) * form.rank
            if exp <= order:
                coeffs[exp] += sign * dim_gl_frobenius(n, form) if form.rank else sign
        return coeffs

    def test_kept_sums_read_what_the_loop_gives_at_any_order(self):
        # orders below, at and above the full degree, shuffled, so a kept
        # sum is read at orders other than the one it was summed at
        characters._osp1_numerator_coeffs.cache_clear()
        rng = random.Random(23)
        calls = [
            (n, p, order)
            for n in range(8)
            for p in range(8)
            for order in range(max(n - p, 0) * n + 4)
        ]
        rng.shuffle(calls)
        for n, p, order in calls:
            got = osp1_numerator(n, p, order)
            assert got.order == order
            assert list(got.coeffs) == self.uncached(n, p, order), (n, p, order)

    def test_low_order_sums_only_the_low_forms(self, monkeypatch):
        characters._osp1_numerator_coeffs.cache_clear()
        calls = []

        def counted(n, form):
            calls.append(form)
            return dim_gl_frobenius(n, form)

        monkeypatch.setattr(characters, "dim_gl_frobenius", counted)
        want = [
            form
            for form, _ in enum_offset_forms(12, 0)
            if form.rank and 2 * sum(form.arms) + form.rank <= 6
        ]
        assert osp1_numerator(12, 0, 6) == polynomial(self.uncached(12, 0, 6), 6)
        assert Counter(calls) == Counter(want)
        # a second call reads the kept sum
        osp1_numerator(12, 0, 6)
        assert len(calls) == len(want)

    def test_low_order_draws_only_the_forms_that_reach_a_coefficient(self, monkeypatch):
        # at degree 6 with p = 0 those are the empty form, arms (0), (1), (2)
        # at t, t^3, t^5 and arms (1, 0), (2, 0) at t^4, t^6: no form of rank 3
        characters._osp1_numerator_coeffs.cache_clear()
        drawn = []

        def counted(top, p, degree=None):
            for form, sign in offset_forms(top, p, degree):
                drawn.append(form.arms)
                yield form, sign

        offset_forms = characters._offset_forms
        monkeypatch.setattr(characters, "_offset_forms", counted)
        assert osp1_numerator(14, 0, 6) == polynomial(self.uncached(14, 0, 6), 6)
        assert sorted(drawn) == [(), (0,), (1,), (1, 0), (2,), (2, 0)]


class TestOsp1:
    def test_printed_heads(self):
        assert str(osp1_dim_t(3, 0, 6)) == "1"
        assert (
            str(osp1_dim_t(3, 1, 6)) == "1 + 3t + 6t^2 + 10t^3 + 15t^4 + 21t^5 + 28t^6"
        )
        assert (
            str(osp1_dim_t(3, 2, 6)) == "1 + 3t + 9t^2 + 18t^3 + 36t^4 + 60t^5 + 100t^6"
        )
        assert (
            str(osp1_dim_t(3, 3, 6)) == "1 + 3t + 9t^2 + 19t^3 + 39t^4 + 69t^5 + 119t^6"
        )

    def test_route_agreement(self):
        for n in range(1, 5):
            for p in range(0, 5):
                s = osp1_dim_t(n, p, 12, route="sum")
                c = osp1_dim_t(n, p, 12, route="closed")
                assert s == c, (n, p)

    def test_routes_agree_at_a_high_order_from_fresh_tables(self):
        characters._osp1_numerator_coeffs.cache_clear()
        characters.SUMS.clear()
        weyl_table.cache_clear()
        for n in range(1, 6):
            for p in range(6):
                s = osp1_dim_t(n, p, 60, route="sum")
                c = osp1_dim_t(n, p, 60, route="closed")
                assert (c.order, c.coeffs) == (s.order, s.coeffs), (n, p)

    def test_halfinteger_case_is_pure_geometric(self):
        # p = 1 caps shapes at one row, so the series is 1/(1-t)^n
        for n in range(1, 5):
            assert osp1_dim_t(n, 1, 10) == TruncatedSeries([1] * 11, 10) ** n, n

    def test_trivial_rep(self):
        for n in range(1, 5):
            assert osp1_dim_t(n, 0, 8) == TruncatedSeries.one(8)

    def test_saturation_in_p(self):
        # rows are capped by min(n, p); growing p past n changes nothing
        assert osp1_dim_t(3, 3, 10) == osp1_dim_t(3, 7, 10)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            osp1_dim_t(0, 1)
        with pytest.raises(ValueError):
            osp1_dim_t(2, -1)
        with pytest.raises(ValueError):
            osp1_dim_t(2, 1, route="guess")


class TestOspB:
    def test_wide_goldens(self):
        assert str(ospB_sdim_t(4, 1, 1, 3)) == "1 + 3t + 3t^2 + t^3"
        assert (
            str(ospB_sdim_t(4, 1, 2, 6))
            == "1 + 3t + 9t^2 + 9t^3 + 9t^4 + 3t^5 + t^6"
        )

    def test_free_parameter_drops_out(self):
        for k in range(0, 4):
            for p in range(0, 4):
                base = ospB_sdim_t(k, 0, p, 10)
                for n in range(1, 4):
                    assert ospB_sdim_t(n + k, n, p, 10) == base, (k, p, n)

    def test_equal_ranks_give_one(self):
        for m in range(0, 4):
            for p in range(0, 4):
                assert ospB_sdim_t(m, m, p, 8) == TruncatedSeries.one(8), (m, p)

    def test_tall_heads(self):
        # m < n: an infinite series; p = 1 inverts to binomials of (1+t)^-k
        assert str(ospB_sdim_t(1, 4, 1, 4)) == "1 - 3t + 6t^2 - 10t^3 + 15t^4"
        got = ospB_sdim_t(1, 4, 1, 10)
        assert got == TruncatedSeries.one(10) / polynomial([1, 1], 10) ** 3

    def test_tall_free_parameter_drops_out(self):
        for k in range(1, 4):
            for p in range(0, 3):
                base = ospB_sdim_t(0, k, p, 8)
                for m in range(1, 4):
                    assert ospB_sdim_t(m, m + k, p, 8) == base, (k, p, m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ospB_sdim_t(-1, 0, 1)
        with pytest.raises(ValueError):
            ospB_sdim_t(1, 1, -2)


class TestSoOdd:
    def test_goldens(self):
        assert str(so_odd_dim_t(3, 1, 3)) == "1 + 3t + 3t^2 + t^3"
        assert str(so_odd_dim_t(3, 2, 6)) == "1 + 3t + 9t^2 + 9t^3 + 9t^4 + 3t^5 + t^6"

    def test_is_polynomial_of_degree_kp(self):
        for k in range(1, 5):
            for p in range(0, 4):
                s = so_odd_dim_t(k, p, k * p + 5)
                assert s.coeffs[k * p] != 0 or p == 0
                for j in range(k * p + 1, k * p + 6):
                    assert s.coeffs[j] == 0

    def test_palindromic_coefficients(self):
        for k in range(1, 5):
            for p in range(0, 5):
                s = so_odd_dim_t(k, p, k * p)
                for j in range(k * p + 1):
                    assert s.coeffs[j] == s.coeffs[k * p - j], (k, p, j)

    def test_total_is_weyl_dimension(self):
        for k in range(1, 5):
            for p in range(0, 5):
                total, _ = so_odd_dim_t(k, p, k * p + 1).eval_at_one()
                assert total == weyl_dim_so_odd(k, p), (k, p)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            so_odd_dim_t(0, 1)
        with pytest.raises(ValueError):
            so_odd_dim_t(2, -1)


class TestOspD:
    def test_wide_goldens(self):
        assert str(ospD_sdim_t(6, 1, 1, 4)) == "1 + 10t^2 + 5t^4"
        assert str(ospD_sdim_t(6, 1, 2, 8)) == "1 + 10t^2 + 55t^4 + 45t^6 + 15t^8"

    def test_free_parameter_drops_out(self):
        for k in range(2, 5):
            for p in range(0, 4):
                base = ospD_sdim_t(k, 0, p, 10)
                for n in range(1, 4):
                    assert ospD_sdim_t(n + k, n, p, 10) == base, (k, p, n)

    def test_tall_heads(self):
        assert str(ospD_sdim_t(1, 4, 1, 8)) == "1 + 6t^2 + 15t^4 + 28t^6 + 45t^8"

    def test_even_powers_only(self):
        for m, n, p in [(5, 1, 2), (1, 5, 2), (4, 2, 3), (2, 4, 3)]:
            s = ospD_sdim_t(m, n, p, 9)
            assert all(s.coeffs[j] == 0 for j in range(1, 10, 2)), (m, n, p)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ospD_sdim_t(2, -1, 1)


class TestSoEven:
    def test_spinor_goldens(self):
        assert str(so_even_dim_t(5, 1, "next_to_last", 4)) == "1 + 10t^2 + 5t^4"
        assert str(so_even_dim_t(5, 1, "last", 4)) == "5 + 10t^2 + t^4"

    def test_mirrored_chiralities_for_odd_k(self):
        for k in (3, 5):
            for p in range(0, 4):
                order = k * p + 2
                a = so_even_dim_t(k, p, "last", order)
                b = so_even_dim_t(k, p, "next_to_last", order)
                assert a.eval_at_one()[0] == b.eval_at_one()[0], (k, p)

    def test_equal_chiralities_for_even_k(self):
        # for even k both labels give mirror-symmetric but distinct series
        a = so_even_dim_t(4, 2, "last", 10)
        b = so_even_dim_t(4, 2, "next_to_last", 10)
        assert a.eval_at_one()[0] == b.eval_at_one()[0]

    def test_totals_are_weyl_dimensions(self):
        for k in range(2, 6):
            for p in range(0, 4):
                for chirality in ("last", "next_to_last"):
                    order = k * p + 2
                    total, _ = so_even_dim_t(k, p, chirality, order).eval_at_one()
                    assert total == weyl_dim_so_even(k, p, chirality), (k, p, chirality)

    def test_even_powers_only(self):
        for k in (2, 3, 4, 5):
            for chirality in ("last", "next_to_last"):
                s = so_even_dim_t(k, 3, chirality, 9)
                assert all(s.coeffs[j] == 0 for j in range(1, 10, 2))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            so_even_dim_t(1, 1, "last")
        with pytest.raises(ValueError):
            so_even_dim_t(3, -1, "last")
        with pytest.raises(ValueError):
            so_even_dim_t(3, 1, "leading")


class TestSp:
    def test_goldens(self):
        assert str(sp_dim_t(3, 1, 8)) == "1 + 6t^2 + 15t^4 + 28t^6 + 45t^8"
        assert str(sp_dim_t(3, 2, 8)) == "1 + 6t^2 + 21t^4 + 55t^6 + 120t^8"

    def test_even_powers_only(self):
        for k in range(1, 5):
            for p in range(0, 4):
                s = sp_dim_t(k, p, 9)
                assert all(s.coeffs[j] == 0 for j in range(1, 10, 2)), (k, p)

    def test_row_closed_form(self):
        # p = 1 keeps only one even row: the even part of the geometric series
        for k in range(1, 5):
            got = sp_dim_t(k, 1, 12)
            half = Fraction(1, 2)
            expect = half * TruncatedSeries([1] * 13, 12) ** k + half * (
                TruncatedSeries.one(12) / polynomial([1, 1], 12) ** k
            )
            assert got == expect, k

    def test_saturation_in_p(self):
        assert sp_dim_t(2, 2, 10) == sp_dim_t(2, 9, 10)

    def test_trivial_rep(self):
        assert sp_dim_t(3, 0, 8) == TruncatedSeries.one(8)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sp_dim_t(0, 1)
        with pytest.raises(ValueError):
            sp_dim_t(2, -1)


class TestSpinor:
    def test_tdim(self):
        assert spinor_tdim(3, 0, 5) == polynomial([8], 5)
        assert str(spinor_tdim(2, 1, 3)) == "4 + 4t + 4t^2 + 4t^3"
        assert spinor_tdim(1, 2, 10) == 2 * TruncatedSeries([1] * 11, 10) ** 2

    def test_sdim(self):
        assert spinor_sdim(3, 1) == 4
        assert spinor_sdim(2, 2) == 1
        assert spinor_sdim(1, 3) == Fraction(1, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spinor_tdim(-1, 0)
        with pytest.raises(ValueError):
            spinor_sdim(0, -2)


class TestD21:
    def test_goldens(self):
        assert str(d21_sdim_t(1, 4)) == "2 - 2t + 2t^2 - 2t^3 + 2t^4"
        assert str(d21_sdim_t(2, 4)) == "3 - 4t + 4t^2 - 4t^3 + 4t^4"
        assert str(d21_sdim_t(3, 4)) == "4 - 6t + 6t^2 - 6t^3 + 6t^4"

    def test_branch_sum_matches_closed_form(self):
        # p = 1 included, where the third branch label (0, -1) has dimension 0;
        # orders 0-3 leave the branch at offset 2, or at 1 and 2, no level
        # or one, so a branch's slice of levels is empty or short
        for p in range(1, 9):
            for order in (0, 1, 2, 3, 12, 200):
                got = d21_sdim_t(p, order)
                assert got.order == order
                assert got == d21_sdim_closed(p, order), (p, order)

    def test_value_at_one(self):
        # the closed form (1-p) + 2p/(1+t) evaluates to 1 at t = 1
        for p in range(1, 7):
            series = d21_sdim_closed(p, 400)
            partial = sum(series.coeffs)
            # partial sums alternate around 1: |partial - 1| = p at even cut
            assert partial in (1, 1 + p, 1 - p)

    def test_rejects_bad_p(self):
        for fn in (d21_sdim_t, d21_sdim_closed):
            with pytest.raises(ValueError):
                fn(0)
            with pytest.raises(ValueError):
                fn(-2)


class TestVerify:
    def test_all_cases_match(self):
        for case in CASES:
            k = {"k": 2} if "k" in CASES[case].bounds else {}
            report = verify_correspondence(case, **k, p=1, order=10)
            assert isinstance(report, CorrespondenceReport)
            assert report.case == case
            assert report.match, case
            assert report.first_divergence is None

    def test_parameter_sweep(self):
        for case in ("ospB-vs-soOdd", "ospB-vs-osp1", "ospD-vs-soEven", "ospD-vs-sp"):
            k_lo = 2 if case == "ospD-vs-soEven" else 1
            for k in range(k_lo, 4):
                for p in range(0, 4):
                    assert verify_correspondence(case, k=k, p=p, order=10).match, (case, k, p)
        for p in range(1, 5):
            assert verify_correspondence("d21-vs-so2", p=p, order=10).match, p

    def test_free_parameter_choices(self):
        assert verify_correspondence("ospB-vs-soOdd", k=2, p=2, n=3, order=8).match
        assert verify_correspondence("ospB-vs-osp1", k=2, p=2, m=3, order=8).match
        assert verify_correspondence("ospD-vs-soEven", k=3, p=1, n=2, order=8).match
        assert verify_correspondence("ospD-vs-sp", k=2, p=1, m=2, order=8).match

    def test_report_contents(self):
        report = verify_correspondence("ospB-vs-soOdd", k=3, p=1, order=6)
        assert report.left.spec.algebra == "osp(9|2)"
        assert report.left.spec.label == "[0,0,0,0,1]"
        assert report.right.spec.algebra == "so(7)"
        assert str(report.left.series) == "1 + 3t + 3t^2 + t^3"
        d = report.to_json_dict()
        assert d["verdict"] == "match"
        assert d["left"]["spec"]["family"] == "ospB"
        assert d["right"]["coeffs"][0] == "1"

    def test_verdict_is_derived_from_the_two_sides(self):
        spec = IrrepSpec("d21", p=1)
        left = Side(spec, "branching", polynomial([1, 2, 3], 4))
        right = Side(spec, "closed", polynomial([1, 2, 4], 4))
        report = CorrespondenceReport("d21-vs-so2", left, right)
        assert not report.match
        assert report.first_divergence == 2
        assert report.to_json_dict()["verdict"] == "mismatch"

    def test_compared_through_is_the_smaller_order(self):
        spec = IrrepSpec("d21", p=1)
        long, short = polynomial([1, 2, 3, 4, 5], 7), polynomial([1, 2, 3, 4], 3)
        for left, right in ((long, short), (short, long)):
            report = CorrespondenceReport("d21-vs-so2", Side(spec, "branching", left), Side(spec, "closed", right))
            assert report.compared_through == 3
            assert report.match
        report = verify_correspondence("ospB-vs-osp1", k=2, p=1, order=6)
        assert report.compared_through == 6
        assert "compared_through" not in report.to_json_dict()

    def test_the_two_series_are_compared_once_per_report(self, monkeypatch):
        calls = []
        real = TruncatedSeries.first_divergence

        def counted(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(TruncatedSeries, "first_divergence", counted)
        spec = IrrepSpec("d21", p=1)
        left = Side(spec, "branching", polynomial([1, 2, 3], 4))
        right = Side(spec, "closed", polynomial([1, 2, 4], 4))
        report = CorrespondenceReport("d21-vs-so2", left, right)
        assert (report.first_divergence, report.match, report.to_json_dict()["verdict"]) == (2, False, "mismatch")
        assert report.to_json_dict()["first_divergence"] == 2
        assert len(calls) == 1

    def test_routes_named(self):
        report = verify_correspondence("ospB-vs-osp1", k=2, p=1, order=6)
        assert report.right.route == "closed at -t"
        report = verify_correspondence("ospD-vs-sp", k=2, p=1, order=6)
        assert report.right.route == "branching at -t"

    def test_chirality_depends_on_k_parity(self):
        odd = verify_correspondence("ospD-vs-soEven", k=3, p=2, order=8)
        assert odd.right.spec.chirality == "next_to_last"
        even = verify_correspondence("ospD-vs-soEven", k=4, p=2, order=8)
        assert even.right.spec.chirality == "last"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            verify_correspondence("ospB-vs-nothing", k=1, p=1)
        with pytest.raises(ValueError):
            verify_correspondence("ospB-vs-soOdd", k=1)
        with pytest.raises(ValueError):
            verify_correspondence("ospD-vs-soEven", k=1, p=1)
        with pytest.raises(ValueError):
            verify_correspondence("d21-vs-so2", p=0)


class TestCumminsKing:
    def test_small_sizes_match(self):
        for m, n in [(1, 1), (2, 1), (1, 2), (0, 1), (1, 0), (0, 3), (3, 0), (0, 0)]:
            report = cummins_king_check(m, n, order=6, trials=2, seed=5)
            assert report.match, (m, n)
            assert report.failed_trial is None
            assert report.first_divergence is None

    def test_deterministic(self):
        a = cummins_king_check(2, 1, order=6, trials=3, seed=42)
        b = cummins_king_check(2, 1, order=6, trials=3, seed=42)
        assert a.to_json_dict() == b.to_json_dict()

    def test_truncated_sum_diverges_at_tail(self):
        # cutting the partition sum below the order must surface a mismatch
        xs, ys = [Fraction(1, 2)], [Fraction(1, 3)]
        lhs = _ck_product_side(xs, ys, 8)
        rhs = TruncatedSeries(_ck_schur_side(xs, ys, 6).coeffs, 8)
        div = lhs.first_divergence(rhs)
        assert div == 8

    def test_schur_side_walks_the_module_enumerator(self, monkeypatch):
        # enum_B is looked up on characters at each call, so a wrapper
        # installed there sees every shape the Schur side sums
        seen = []

        def counted(order):
            for beta in enum_B(order):
                seen.append(beta)
                yield beta

        monkeypatch.setattr(characters, "enum_B", counted)
        _ck_schur_side([Fraction(1, 2)], [Fraction(1, 3)], 6)
        assert seen == list(enum_B(6))

    def test_report_json(self):
        report = cummins_king_check(1, 1, order=4, trials=1, seed=1)
        d = report.to_json_dict()
        assert d == {
            "m": 1,
            "n": 1,
            "order": 4,
            "trials": 1,
            "seed": 1,
            "verdict": "match",
            "failed_trial": None,
            "first_divergence": None,
        }

    def test_verdict_is_derived_from_the_failed_trial(self):
        report = CumminsKingReport(1, 1, 4, 1, 1, failed_trial=0, first_divergence=3)
        assert not report.match
        assert report.to_json_dict()["verdict"] == "mismatch"

    def test_random_points_avoid_zero(self):
        rng = random.Random(7)
        from ospdim.characters import _random_nonzero_fraction

        for _ in range(200):
            assert _random_nonzero_fraction(rng) != 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cummins_king_check(-1, 1)

    def test_rejects_a_check_of_no_trials(self):
        # a run that checks nothing must not report a match
        for trials in (0, -1):
            with pytest.raises(ValueError):
                cummins_king_check(1, 1, 4, trials=trials)

    def test_rejects_a_seed_that_is_not_an_int(self):
        for seed in (True, 1.5, None, "1"):
            # any int is a seed, so the text names no lower bound
            got = "" if seed is None else f", got {seed}"
            with pytest.raises(ValueError, match=f"'cummins_king_check' needs seed an int{got}$"):
                cummins_king_check(1, 1, order=2, trials=1, seed=seed)
        # every int seeds the points, negatives included
        assert cummins_king_check(1, 1, order=2, trials=1, seed=-3).match


class TestIrrepSpec:
    def test_algebra_names(self):
        assert IrrepSpec("gl", n=4, lam=(2, 1)).algebra == "gl(4)"
        assert IrrepSpec("glsuper", m=2, n=3, lam=(1,)).algebra == "gl(2|3)"
        assert IrrepSpec("osp1", n=3, p=2).algebra == "osp(1|6)"
        assert IrrepSpec("ospB", m=4, n=1, p=1).algebra == "osp(9|2)"
        assert IrrepSpec("ospD", m=5, n=2, p=1).algebra == "osp(10|4)"
        assert IrrepSpec("soOdd", k=3, p=1).algebra == "so(7)"
        assert IrrepSpec("soEven", k=4, p=2, chirality="last").algebra == "so(8)"
        assert IrrepSpec("sp", k=3, p=1).algebra == "sp(6)"
        assert IrrepSpec("d21", p=2).algebra == "D(2,1;alpha)"
        assert IrrepSpec("spinor", m=2, n=1).algebra == "osp(5|2)"

    def test_spinor_is_the_odd_algebras_module_not_a_half_spinor(self):
        # 2^m/(1-t)^n is the Fock space of m fermions and n bosons, the
        # spinor [0,...,0,1] of osp(2m+1|2n); the osp(2m|2n) spec of that
        # label is a half-spinor, 2 and not 4 at m = 2, n = 0
        spinor = IrrepSpec("spinor", m=2, n=0)
        half = IrrepSpec("ospD", m=2, n=0, p=1)
        odd = IrrepSpec("ospB", m=2, n=0, p=1)
        assert spinor.describe() != half.describe()
        assert spinor.describe() == odd.describe() == "[0,1] osp(5|0)"
        assert spinor_sdim(2, 0) == 4 == ospB_sdim_t(2, 0, 1, 4).eval_at_one()[0]
        assert ospD_sdim_t(2, 0, 1, 4).eval_at_one()[0] == 2

    def test_labels(self):
        assert IrrepSpec("osp1", n=3, p=2).label == "[0,0,-2]"
        assert IrrepSpec("ospB", m=2, n=1, p=3).label == "[0,0,3]"
        assert IrrepSpec("soEven", k=4, p=2, chirality="next_to_last").label == "[0,0,2,0]"
        assert IrrepSpec("sp", k=2, p=1).label == "[0,-1/2]"
        assert IrrepSpec("sp", k=2, p=2).label == "[0,-1]"
        assert IrrepSpec("gl", n=4, lam=(5, 4, 4, 2)).label == "(5,4,4,2)"
        assert IrrepSpec("spinor", m=2, n=2).label == "[0,0,0,1]"
        assert IrrepSpec("d21", p=3).label == "[0,0,3]"

    def test_describe(self):
        spec = IrrepSpec("soOdd", k=3, p=2)
        assert spec.describe() == "[0,0,2] so(7)"

    def test_validation(self):
        with pytest.raises(ValueError):
            IrrepSpec("so", k=1, p=1)
        with pytest.raises(ValueError):
            IrrepSpec("ospB", m=1, n=1)  # missing p
        with pytest.raises(ValueError):
            IrrepSpec("soEven", k=3, p=1)  # missing chirality
        with pytest.raises(ValueError):
            IrrepSpec("soEven", k=3, p=1, chirality="left")

    def test_json_dict(self):
        d = IrrepSpec("glsuper", m=2, n=1, lam=(2, 1)).to_json_dict()
        assert d["family"] == "glsuper"
        assert d["lambda"] == [2, 1]
        assert d["label"] == "(2,1)"
