import json
import logging
import random
from fractions import Fraction

import pytest

from unitycert.identities import (
    IdentityReport,
    UnityVariant,
    _nonconstant_terms,
    _report,
    christoffel_sum,
    constant_reduce,
    partition_members,
    partition_values,
    verify_pell,
    verify_simplex_equilibrium,
    verify_simplex_unity,
    verify_unity_01,
    verify_unity_interval,
)
from unitycert.measures import (
    ARCSINE,
    ARCSINE_G,
    LEBESGUE01,
    SimplexNormalization,
    dirichlet,
    functional_for,
    localized,
    simplex_equilibrium,
    simplex_uniform,
)
from unitycert.momatrix import christoffel_form, christoffel_form_of_matrix, moment_matrix
from unitycert.polycore import MPoly, UPoly, poly_eval, simplex_generator_power


class TestPell:
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_holds_with_constant_one(self, n):
        report = verify_pell(n)
        assert report.holds
        assert report.constant == 1
        assert report.residual_terms == 0
        assert report.expected_constant == 1

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            verify_pell(0)


class TestUnityInterval:
    def test_examples(self):
        r = verify_unity_interval(1, UnityVariant.UNITY2)
        assert r.holds and r.constant == 3
        r = verify_unity_interval(2, UnityVariant.UNITY1)
        assert r.holds and r.constant == 1
        r = verify_unity_interval(8, UnityVariant.CHEBY2)
        assert r.holds and r.constant == 17

    def test_variant_consistency(self):
        for n in range(1, 7):
            c2 = verify_unity_interval(n, UnityVariant.UNITY2).constant
            c3 = verify_unity_interval(n, UnityVariant.CHEBY2).constant
            assert c2 == c3 == 2 * n + 1


class TestUnity01:
    @pytest.mark.parametrize("n,constant", [(1, 3), (2, 6), (20, 231)])
    def test_examples(self, n, constant):
        report = verify_unity_01(n)
        assert report.holds
        assert report.constant == constant
        assert report.expected_constant == constant


class TestSimplexUnity:
    def test_proved_degrees(self):
        r = verify_simplex_unity(2, 1)
        assert r.holds and r.constant == 4 and r.expected_constant == 4
        r = verify_simplex_unity(4, 2)
        assert r.holds and r.constant == 21 and r.expected_constant == 21

    def test_conjecture_mode_has_no_expected_constant(self):
        r = verify_simplex_unity(1, 3)
        assert r.expected_constant is None
        assert r.holds and r.constant == 10
        r = verify_simplex_unity(2, 3)
        assert r.expected_constant is None
        # Observed outcome, recorded not asserted by the verifier itself.
        assert r.holds and r.constant == 20

    def test_d1_matches_interval_family(self):
        for n in range(1, 21):
            r = verify_simplex_unity(1, n)
            assert r.holds
            assert r.constant == Fraction((n + 1) * (n + 2), 2)


class TestSimplexEquilibrium:
    # Constants confirmed against an independent symbolic-integration oracle.
    RAW_DENSITY_CONSTANTS = {1: Fraction(3), 2: Fraction(15, 2), 3: Fraction(14)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reduces_to_constant(self, n):
        raw = verify_simplex_equilibrium(n, SimplexNormalization.PI_DENSITY)
        prob = verify_simplex_equilibrium(n, SimplexNormalization.PROBABILITY)
        assert raw.holds and prob.holds
        assert raw.residual_terms == 0 and prob.residual_terms == 0
        assert raw.constant == self.RAW_DENSITY_CONSTANTS[n]
        assert prob.constant == 2 * raw.constant
        assert raw.expected_constant == (n + 1) ** 2

    def test_christoffel_sum_is_the_one_sum(self):
        # Both Christoffel verifiers report the helper's sum: CHEBY2 over
        # the arcsine measure and (1 - x^2, ARCSINE_G), the triangle over its
        # edges and their localized measures.  Bareiss on each localizing
        # matrix, which never reads the localized measure, gives the same sum.
        form = christoffel_form

        def bareiss(mu, n, g):
            return christoffel_form_of_matrix(moment_matrix(mu, n, g)).quadratic_form_poly

        g = UPoly.from_coeffs([1, 0, -1])
        for n in (1, 4):
            assert christoffel_sum(ARCSINE, n, [(g, ARCSINE_G)]) == UPoly.constant(2 * n + 1)
            alone = form(ARCSINE, n).quadratic_form_poly
            assert christoffel_sum(ARCSINE, n, []) == alone
            shifted = alone + g * bareiss(ARCSINE, n - 1, g)
            assert shifted == UPoly.constant(2 * n + 1)
        for normalization in SimplexNormalization:
            mu = simplex_equilibrium(normalization)
            edges = [(simplex_generator_power(2, e), localized(mu, e))
                     for e in ((1, 1, 0), (1, 0, 1), (0, 1, 1))]
            total = christoffel_sum(mu, 3, edges)
            report = verify_simplex_equilibrium(3, normalization)
            assert total == MPoly.constant(2, report.constant)
            shifted = form(mu, 3).quadratic_form_poly
            for g, _ in edges:
                shifted = shifted + g * bareiss(mu, 2, g)
            assert shifted == total

    def test_mismatch_is_logged_not_failed(self, caplog):
        with caplog.at_level(logging.WARNING, logger="unitycert.identities"):
            report = verify_simplex_equilibrium(1, SimplexNormalization.PI_DENSITY)
        assert report.holds
        assert any("not the predicted" in message for message in caplog.messages)


class TestConstantReduce:
    def test_examples(self):
        assert constant_reduce(UPoly.from_coeffs([5])) == 5
        assert constant_reduce(UPoly.from_coeffs([0, 1]) - UPoly.from_coeffs([0, 1])) == 0
        assert constant_reduce(UPoly.from_coeffs([1, 1])) is None
        assert constant_reduce(MPoly.constant(2, 7)) == 7
        assert constant_reduce(MPoly.variable(2, 0)) is None


def seeded_pairs(seed, count=40):
    """(p(x) as a UPoly, p(x_1) as a two-variable MPoly), zero and constants included."""
    rng = random.Random(seed)
    coeff_lists = [[], [Fraction(5, 2)], [0, 0, 3]]
    for _ in range(count):
        coeff_lists.append([
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0
            for _ in range(rng.randint(1, 9))
        ])
    return [
        (UPoly.from_coeffs(cs), MPoly.make(2, {(k, 0): c for k, c in enumerate(cs)}))
        for cs in coeff_lists
    ]


class TestSharedInterfaceCallers:
    """Callers give a UPoly p(x) and the MPoly p(x_1) the same answer."""

    def test_poly_moment(self):
        # x_1 is Beta(1, 1), Lebesgue on [0,1], under Dirichlet(1, 1/2, 1/2).
        marginal = functional_for(dirichlet((1, Fraction(1, 2), Fraction(1, 2))))
        for measure in (LEBESGUE01, ARCSINE):
            f = functional_for(measure)
            for u, m in seeded_pairs(21):
                want = sum((c * f.moment(e) for e, c in u.terms.items()), Fraction(0))
                assert f.poly_moment(u) == want
                if measure is LEBESGUE01:
                    assert marginal.poly_moment(m) == want

    def test_poly_moment_rejects_a_dimension_mismatch(self):
        with pytest.raises(ValueError):
            functional_for(simplex_uniform(2)).poly_moment(UPoly.x())

    def test_constant_reduce_and_residual_count(self):
        for u, m in seeded_pairs(22):
            assert constant_reduce(u) == constant_reduce(m)
            assert _nonconstant_terms(u) == _nonconstant_terms(m)
            assert _nonconstant_terms(u) == sum(1 for e in u.terms if e != (0,))


class TestPartitionMembers:
    @pytest.mark.parametrize(
        "domain, measure, d",
        [("interval01", LEBESGUE01, 2), ("interval11", ARCSINE, 2),
         ("simplex", simplex_uniform(2), 2), ("simplex", simplex_uniform(3), 3),
         ("simplex", simplex_uniform(1), 1), ("simplex", simplex_uniform(4), 4),
         ("simplex", simplex_uniform(5), 5)],
    )
    def test_weight_is_reciprocal_moment(self, domain, measure, d):
        f = functional_for(measure)
        for n in range(1, 7):
            for _, weight, generator in partition_members(domain, n, d):
                assert weight * f.poly_moment(generator) == 1

    def test_interval01_members_are_expanded_products(self):
        for n in range(1, 9):
            for label, _, generator in partition_members("interval01", n):
                want = UPoly.x() ** label["i"] * UPoly.from_coeffs([1, -1]) ** label["j"]
                assert type(generator) is UPoly
                assert (generator.nums, generator.den) == (want.nums, want.den)

    def test_interval01_is_the_one_simplex(self):
        for n in range(1, 9):
            interval = partition_members("interval01", n)
            simplex = partition_members("simplex", n, 1)
            assert [(w, g) for _, w, g in interval] == [(w, g) for _, w, g in simplex]
            assert [(label["i"], label["j"]) for label, _, _ in interval] == [
                tuple(label["alpha"]) for label, _, _ in simplex]

    def test_order_and_labels(self):
        assert [label for label, _, _ in partition_members("interval01", 2)] == [
            {"i": i, "j": j} for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        ]
        assert [label for label, _, _ in partition_members("interval11", 1)] == [
            {"kind": "first", "j": 0}, {"kind": "first", "j": 1}, {"kind": "second", "j": 0}
        ]
        assert partition_members("simplex", 1, 2)[-1][0] == {"alpha": [0, 0, 1]}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            partition_members("interval01", 0)
        with pytest.raises(ValueError):
            partition_members("simplex", 2, 0)
        with pytest.raises(ValueError):
            partition_members("disc", 2)


class TestPartitionValues:
    """Values from the members' factors equal those of the expanded members."""

    INTERVAL_POINTS = [-1, 1, 0, Fraction(1, 4), Fraction(-1, 3), Fraction(-7, 5), 3, Fraction(22, 7)]

    @staticmethod
    def check_against_expansions(domain, n, d, points):
        polys = [generator for _, _, generator in partition_members(domain, n, d)]
        for point, got in zip(points, partition_values(domain, n, points, d), strict=True):
            assert all(den > 0 for _, den in got)
            assert [Fraction(*pair) for pair in got] == [poly_eval(p, point) for p in polys]

    @pytest.mark.parametrize("domain", ["interval01", "interval11"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_interval_values_match_expansions(self, domain, n):
        self.check_against_expansions(domain, n, 2, [[x] for x in self.INTERVAL_POINTS])

    @pytest.mark.parametrize("d", range(1, 6))
    def test_simplex_values_match_expansions(self, d):
        # Inside and outside the simplex; the first point's coordinates have
        # different denominators.
        points = [
            [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(1, 13), Fraction(4, 9)][:d],
            [Fraction(-1, 2), 3, 0, Fraction(-2, 9), 1][:d],
            [Fraction(1, 8)] * d,
            [0] * d,
            [1] + [0] * (d - 1),
        ]
        for n in range(1, 9):
            self.check_against_expansions("simplex", n, d, points)

    def test_interval01_is_the_one_simplex(self):
        for n in range(1, 9):
            for x in self.INTERVAL_POINTS:
                assert partition_values("interval01", n, [[x]]) == partition_values("simplex", n, [[x]], 1)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            partition_values("interval11", 3, [[0.5]])
        with pytest.raises(TypeError):
            partition_values("interval01", 3, [[0], [0.5]])
        with pytest.raises(TypeError):
            partition_values("simplex", 2, [[Fraction(1, 4), 0.25]], 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            partition_values("simplex", 2, [[Fraction(1, 4)]], 2)
        with pytest.raises(ValueError, match="point dimension mismatch"):
            partition_values("interval11", 2, [[0], [0, 0]])
        with pytest.raises(ValueError):
            partition_values("interval01", 0, [[0]])
        with pytest.raises(ValueError):
            partition_values("simplex", 2, [[]], 0)
        with pytest.raises(ValueError):
            partition_values("disc", 2, [[0]])
        assert partition_values("simplex", 2, [], 3) == []


class TestReportMechanics:
    def test_failing_expression(self):
        report = _report("demo", {"n": 1}, UPoly.from_coeffs([1, 1]), Fraction(1))
        assert not report.holds
        assert report.constant is None
        assert report.residual_terms == 1

    def test_json_round_trip(self):
        report = verify_simplex_equilibrium(2, SimplexNormalization.PI_DENSITY)
        payload = report.to_json()
        assert set(payload) == {
            "identity",
            "params",
            "holds",
            "constant",
            "expected_constant",
            "residual_terms",
        }
        assert payload["constant"] == "15/2"
        text = json.dumps(payload)
        recovered = IdentityReport.from_json(json.loads(text))
        assert recovered == report

    def test_json_null_fields(self):
        report = _report("demo", {}, UPoly.from_coeffs([0, 1]), None)
        payload = report.to_json()
        assert payload["constant"] is None
        assert payload["expected_constant"] is None
        assert IdentityReport.from_json(payload) == report
