"""Separable forcing terms, growth declarations, transformability."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import forcing_vector
from wie.forcing import (
    ForcingTerm,
    GrowthClass,
    TransformabilityError,
    certify_transformable,
    constant_profile,
    exponential_profile,
    power_profile,
    sampled_profile,
)
from wie.quadrature import DEFAULT_SPEC, DivergenceError, weighted_halfline


class TestProfiles:
    def test_values(self):
        assert constant_profile(2.0)(17.3) == 2.0
        assert exponential_profile(1.0, -0.5)(2.0) == pytest.approx(math.exp(-1.0))
        assert power_profile(3.0, 2.0)(2.0) == pytest.approx(12.0)

    def test_vectorized_call(self):
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(power_profile(1.0, 1.0)(t), t)

    def test_power_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            power_profile(1.0, -0.5)

    def test_sampled_clamps(self):
        g = sampled_profile([0.0, 1.0], [1.0, 3.0])
        assert g(0.5) == pytest.approx(2.0)
        assert g(-5.0) == pytest.approx(1.0)
        assert g(5.0) == pytest.approx(3.0)

    def test_sampled_needs_increasing_times(self):
        with pytest.raises(ValueError):
            sampled_profile([1.0, 0.0], [1.0, 2.0])

    @given(t=st.floats(0.0, 20.0))
    @settings(deadline=None, max_examples=80)
    def test_envelope_dominates(self, t):
        for g in (
            constant_profile(-2.0),
            exponential_profile(1.5, -0.3),
            exponential_profile(0.5, 0.4),
            power_profile(2.0, 1.5),
            sampled_profile([0.0, 1.0, 2.0], [0.5, -1.0, 0.25]),
        ):
            scale, degree, rate = g.envelope()
            bound = scale * (1.0 + t) ** degree * math.exp(rate * t)
            assert abs(g(t)) <= bound * (1.0 + 1e-12)


class TestForcingTerm:
    def test_zero_term(self):
        f = ForcingTerm.zero(3)
        assert f.is_zero
        np.testing.assert_array_equal(forcing_vector(f, 1.0), np.zeros(3))

    def test_vector_mode(self):
        f = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -1.0), (1.0, 0.0)),
                (constant_profile(2.0), (0.0, 1.0)),
            ]
        )
        np.testing.assert_allclose(forcing_vector(f, 0.0), [1.0, 2.0])
        np.testing.assert_allclose(forcing_vector(f, 1.0), [math.exp(-1.0), 2.0])

    def test_vector_mode_batched_times(self):
        f = ForcingTerm.from_vectors([(constant_profile(1.0), (2.0, 3.0))])
        out = forcing_vector(f, np.array([0.0, 1.0, 5.0]))
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out, [[2.0, 3.0]] * 3)

    def test_wrong_representation_raises(self):
        spec = ForcingTerm.from_multipliers([(constant_profile(1.0), lambda xi: xi)])
        with pytest.raises(ValueError):
            forcing_vector(spec, 0.0)

    def test_gram_euclidean(self):
        f = ForcingTerm.from_vectors(
            [
                (constant_profile(1.0), (1.0, 0.0)),
                (constant_profile(1.0), (1.0, 1.0)),
            ]
        )
        np.testing.assert_allclose(f.gram(), [[1.0, 1.0], [1.0, 2.0]])

    @given(t=st.floats(0.0, 5.0))
    @settings(deadline=None, max_examples=60)
    def test_norm_sq_profile_matches_direct(self, t):
        f = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, -0.3), (1.0, 2.0)),
                (constant_profile(0.5), (-1.0, 1.0)),
            ]
        )
        profile = f.norm_sq_profile()
        direct = float(np.dot(forcing_vector(f, t), forcing_vector(f, t)))
        assert profile(t) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch_checked(self):
        with pytest.raises(ValueError):
            ForcingTerm.from_vectors(
                [
                    (constant_profile(1.0), (1.0, 0.0)),
                    (constant_profile(1.0), (1.0, 0.0, 0.0)),
                ]
            )


class TestDeclaredGrowth:
    def test_explicit_growth_wins(self):
        g = GrowthClass.subexponential(rate=0.5, scale=3.0)
        f = ForcingTerm.from_vectors([(constant_profile(1.0), (1.0,))], growth=g)
        assert f.declared_growth() is g

    def test_derived_envelope_squares(self):
        f = ForcingTerm.from_vectors([(exponential_profile(2.0, 0.3), (1.0, 0.0))])
        growth = f.declared_growth()
        assert growth.rate == pytest.approx(0.6)    # amplitude rate doubled
        assert growth.scale == pytest.approx(4.0)   # amplitude scale squared

    @given(t=st.floats(0.0, 10.0))
    @settings(deadline=None, max_examples=60)
    def test_derived_envelope_dominates_norm_sq(self, t):
        f = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, 0.2), (1.0, 1.0)),
                (power_profile(0.5, 1.0), (0.0, 2.0)),
            ]
        )
        growth = f.declared_growth()
        bound = growth.scale * (1.0 + t) ** growth.degree * math.exp(growth.rate * t)
        actual = float(np.dot(forcing_vector(f, t), forcing_vector(f, t)))
        assert actual <= bound * (1.0 + 1e-12)


class TestTransformability:
    def test_constant_forcing_weighted_norm(self):
        eps = 0.25
        f = ForcingTerm.from_vectors([(constant_profile(1.0), (1.0,))])
        cert = certify_transformable(f, eps)
        # int exp(-t/eps) * 1 dt = eps
        assert cert.weighted_norm == pytest.approx(eps, rel=1e-6)
        assert cert.tail_bound <= 1e-10 * max(cert.weighted_norm, 1.0)

    def test_zero_forcing_trivial_certificate(self):
        cert = certify_transformable(ForcingTerm.zero(2), 0.1)
        assert cert.weighted_norm == 0.0
        assert cert.tail_bound == 0.0

    def test_rate_at_weight_rate_rejected(self):
        g = GrowthClass.subexponential(rate=10.0, scale=1.0)
        f = ForcingTerm.from_vectors([(constant_profile(1.0), (1.0,))], growth=g)
        with pytest.raises(TransformabilityError):
            certify_transformable(f, 0.1)

    def test_rate_below_weight_rate_passes(self):
        g = GrowthClass.subexponential(rate=9.0, scale=1.0)
        f = ForcingTerm.from_vectors([(exponential_profile(1.0, 4.0), (1.0,))], growth=g)
        cert = certify_transformable(f, 0.1)
        assert math.isfinite(cert.weighted_norm)
        assert cert.truncation_T > 0.0
        assert math.isfinite(cert.tail_bound)

    def test_growing_amplitude_norm(self):
        # ||f(t)||^2 = exp(2rt): int exp(-t/eps) exp(2rt) = 1/(1/eps - 2r)
        eps, r = 0.1, 2.0
        f = ForcingTerm.from_vectors([(exponential_profile(1.0, r), (1.0,))])
        cert = certify_transformable(f, eps)
        assert cert.weighted_norm == pytest.approx(1.0 / (1.0 / eps - 2.0 * r), rel=1e-6)


# ---- The certificate's norm in closed form ----


def _dyadic(bound: int, bits: int):
    """Multiples of 2^-bits in [-bound, bound]: products of a few are exact doubles."""
    scale = 2**bits
    return st.integers(-bound * scale, bound * scale).map(lambda k: k / scale)


@st.composite
def exponential_forcings(draw, top=0.45):
    """(forcing, eps) with constant and exponential parts, every input dyadic.

    eps is a power of two, so 1/eps and each 1/eps - r_i - r_j are exact;
    rates stay at or below top/eps.  The vectors make the Gram matrix, whose
    entries are then exact too.
    """
    eps = 2.0 ** -draw(st.integers(-2, 8))
    n = draw(st.integers(1, 3))
    items = []
    for _ in range(n):
        amplitude = draw(_dyadic(2, 4).filter(bool))
        rate = draw(st.integers(-256, int(64 * top))) / (64 * eps)
        profile = constant_profile(amplitude) if rate == 0.0 else exponential_profile(amplitude, rate)
        items.append((profile, draw(st.tuples(*[_dyadic(2, 3)] * 3))))
    assume(any(any(v) for _g, v in items))
    return ForcingTerm.from_vectors(items), eps


def _exact_terms(forcing, eps):
    G = forcing.gram()
    a = [Fraction(p.profile.amplitude) for p in forcing.parts]
    r = [Fraction(p.profile.rate) for p in forcing.parts]
    n = len(a)
    return [
        Fraction(float(G[i, j])) * a[i] * a[j] / (1 / Fraction(eps) - r[i] - r[j])
        for i in range(n)
        for j in range(n)
    ]


class TestExactCertificate:
    """The weighted norm sum_ij G_ij a_i a_j / (1/eps - r_i - r_j) of exponential parts."""

    def test_single_part_is_the_rational_value(self):
        # the certification_failure golden's rung: 1/(100 - 12)
        f = ForcingTerm.from_vectors(
            [(exponential_profile(1.0, 6.0), (1.0,))], growth=GrowthClass.subexponential(12.0)
        )
        assert certify_transformable(f, 1e-2).weighted_norm == 1.0 / 88.0

    @given(drawn=exponential_forcings())
    @settings(deadline=None, max_examples=200)
    def test_matches_the_fraction_sum_within_four_ulps(self, drawn):
        # each term is exact but for its division, and fsum rounds once: the error is at
        # most 2 units of roundoff of the magnitudes' sum, which is the value's own sum
        # unless the terms cancel
        forcing, eps = drawn
        terms = _exact_terms(forcing, eps)
        got = certify_transformable(forcing, eps).weighted_norm
        magnitude = float(sum(abs(x) for x in terms))
        assert abs(Fraction(got) - sum(terms)) <= 4 * math.ulp(magnitude)

    @given(drawn=exponential_forcings(top=0.25))
    @settings(deadline=None, max_examples=100)
    def test_agrees_with_weighted_halfline_within_the_contract(self, drawn):
        forcing, eps = drawn
        got = certify_transformable(forcing, eps).weighted_norm
        ref = weighted_halfline(forcing.norm_sq_profile(), eps, DEFAULT_SPEC, batched=True)
        assert abs(got - ref) <= DEFAULT_SPEC.abs_tol + DEFAULT_SPEC.rel_tol * abs(ref)

    @pytest.mark.parametrize(
        "parts, pinned",
        [
            ([(power_profile(0.5, 1.5), (1.0, 2.0))], (0.000749999999998528, 0.029296874999996385)),
            (
                [(sampled_profile([0.0, 0.5, 2.0], [1.0, -0.5, 0.25]), (0.0, 1.0))],
                (0.057639510392627075, 0.08924976320850096),
            ),
            (
                [(exponential_profile(1.0, -0.5), (1.0, 0.0)), (power_profile(2.0, 1.0), (0.5, 1.0))],
                (0.11904968047825311, 0.4550154320987797),
            ),
        ],
        ids=["power", "sampled", "exponential-and-power"],
    )
    def test_power_and_sampled_parts_keep_the_quadrature(self, parts, pinned):
        # the bytes the Gauss-Laguerre rule gave before the closed form existed
        f = ForcingTerm.from_vectors(parts)
        for eps, want in zip((0.1, 0.25), pinned):
            got = certify_transformable(f, eps).weighted_norm
            assert got == want
            assert got == weighted_halfline(f.norm_sq_profile(), eps, DEFAULT_SPEC, batched=True)

    def test_growth_override_with_a_divergent_pair_is_refused(self):
        # bounded growth admits eps = 0.25, but 1/eps - 2r = -2: the closed form names
        # the divergence before any quadrature meets the growing integrand
        f = ForcingTerm.from_vectors(
            [(exponential_profile(1.0, 3.0), (1.0,))], growth=GrowthClass.bounded()
        )
        with pytest.raises(DivergenceError, match=r"exponent 6, at or above 1/eps = 4;"):
            certify_transformable(f, 0.25)
        # with every denominator positive the override does not matter
        assert certify_transformable(f, 0.1).weighted_norm == 0.25
        # parts whose terms cancel at every divergent exponent leave the constant's 1/4
        f = ForcingTerm.from_vectors(
            [
                (exponential_profile(1.0, 3.0), (1.0,)),
                (exponential_profile(-1.0, 3.0), (1.0,)),
                (constant_profile(1.0), (1.0,)),
            ],
            growth=GrowthClass.bounded(),
        )
        assert certify_transformable(f, 0.25).weighted_norm == 0.25
