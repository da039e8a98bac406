"""Model families: metric identities, indicial data, radial operators."""

import pickle

import numpy as np
import pytest

from acclab.geometry import (CapProfile, CrossSection, WarpFamily,
                             indicial_roots, sphere_multiplicity)


def test_round_sphere_modes():
    cs = CrossSection.round_sphere(2, 5)  # S^2
    assert [m for m, _ in cs.modes] == [0, 2, 6, 12, 20]
    assert [k for _, k in cs.modes] == [1, 3, 5, 7, 9]
    cs4 = CrossSection.round_sphere(3, 3)  # S^3
    assert [k for _, k in cs4.modes] == [1, 4, 9]


def test_cross_section_validation():
    with pytest.raises(ValueError, match="mu = 0"):
        CrossSection.explicit(((1.0, 2),))
    with pytest.raises(ValueError, match="nondecreasing"):
        CrossSection.explicit(((0.0, 1), (3.0, 1), (2.0, 1)))


def test_cap_profile_c2_and_flat_case():
    cap = CapProfile(0.8)
    assert cap.c2_defect() < 1e-9
    rho = np.linspace(0, 5, 101)
    flat = CapProfile(1.0)
    assert np.max(np.abs(flat(rho) - rho)) < 1e-12  # identity blend at c = 1
    assert cap(0.3) == pytest.approx(0.3)        # exact near the tip
    assert cap(4.0) == pytest.approx(0.8 * 4.0)  # exact cone outside


def test_metric_eval_neck_arithmetic():
    fam = WarpFamily.neck(n=3, c=1.0)
    assert fam.f(0.5, 0.1) ** 2 == pytest.approx(0.01 + 0.25)


def test_metric_eval_capped_cone_region_exact():
    fam = WarpFamily.capped(n=3, c=0.8)
    eps = 0.1
    x = 0.5  # beyond eps * rho_b = 0.2
    assert x >= eps * fam.cap.rho_b
    assert fam.f(x, eps) ** 2 == pytest.approx((0.8 * x) ** 2, rel=1e-14)


@pytest.mark.parametrize("make", [WarpFamily.capped, WarpFamily.neck])
@pytest.mark.parametrize("c", [float("nan"), float("inf")])
def test_family_refuses_non_finite_slope(make, c):
    # nan <= 0 is false, so the sign check alone lets nan through
    with pytest.raises(ValueError, match="cone slope c must be finite"):
        make(n=3, c=c)


def test_rescaling_identity_exact_for_capped():
    # g_eps at x equals eps^2 times the fixed-space metric at rho = x/eps;
    # the fixed space is the family at eps = 1, which
    # radial_operator_fixed_space solves on
    fam = WarpFamily.capped(n=3, c=0.8)
    for eps in (0.2, 0.05):
        for x in (0.01, 0.1, 0.37, 0.9):
            assert fam.f(x, eps) ** 2 == pytest.approx(
                eps ** 2 * fam.f(x / eps, 1.0) ** 2, rel=1e-14)


def test_neck_profile_uniform_convergence_rate():
    # |sqrt(eps^2 + c^2 x^2) - c|x|| <= eps^2/(2 c a) on |x| >= a
    c, a = 1.3, 0.25
    fam = WarpFamily.neck(n=3, c=c)
    xs = np.linspace(a, 1.0, 301)
    for eps in (0.2, 0.1, 0.05):
        gap = np.max(np.abs(fam.f(xs, eps) - c * xs))
        assert gap <= eps ** 2 / (2 * c * a) + 1e-15


def test_indicial_roots_plug_in_oracle():
    # substitute x^gamma into the radial cone operator; residual must vanish
    for n, mu, c in ((3, 0.0, 1.0), (4, 0.0, 1.0), (3, 2.0, 1.0), (5, 7.0, 2.0)):
        ind = indicial_roots(n, mu, c)
        for gamma in (ind.gamma_plus, ind.gamma_minus):
            # coefficient of x^(gamma-2) in -(x^(n-1) u')'/x^(n-1) + mu u/(c x)^2
            residual = -gamma * (gamma + n - 2) + mu / c ** 2
            assert abs(residual) < 1e-12
    assert indicial_roots(3, 0.0).gamma_plus == pytest.approx(0.0)
    assert indicial_roots(3, 0.0).gamma_minus == pytest.approx(-1.0)
    assert indicial_roots(4, 0.0).gamma_plus == pytest.approx(0.0)
    assert indicial_roots(4, 0.0).gamma_minus == pytest.approx(-2.0)


def test_indicial_roots_vieta():
    for n, mu in ((3, 1.0), (4, 5.0), (6, 0.5)):
        ind = indicial_roots(n, mu, 1.5)
        assert ind.gamma_plus + ind.gamma_minus == pytest.approx(-(n - 2))


def test_friedrichs_gate():
    # x^gamma_plus lies in the form-domain window gamma > (2-n)/2 for every
    # mode and dimension
    for n in (3, 4, 5, 8):
        for mu in (0.0, 1.0, 10.0, 100.0):
            assert indicial_roots(n, mu).gamma_plus > (2 - n) / 2


def test_radial_operator_coefficients():
    fam = WarpFamily.capped(n=3, c=1.0)
    op = fam.radial_operator(2.0, 0.1)
    xs = np.array([0.3, 0.7])
    f = fam.f(xs, 0.1)
    assert np.allclose(op.p(xs), f ** 2)
    assert np.allclose(op.w(xs), f ** 2)
    assert np.allclose(op.q(xs), 2.0 * np.ones_like(xs))  # mu f^(n-3), n=3


@pytest.mark.parametrize("make", [WarpFamily.capped, WarpFamily.neck])
def test_families_from_equal_arguments_are_equal(make):
    # the probes pickle the family into every worker job
    fam = make(n=3, c=0.8, mode_count=9)
    twin = make(n=3, c=0.8, mode_count=9)
    back = pickle.loads(pickle.dumps(fam))
    assert fam == twin == back
    assert hash(fam) == hash(twin) == hash(back)
    assert fam != make(n=3, c=0.6, mode_count=9)
    assert (back.cap is None) == (fam.profile == "neck")
    if fam.cap is not None:
        rho = np.linspace(0.0, 3.0, 61)
        assert np.array_equal(back.cap(rho), fam.cap(rho))


def test_neck_even_profile_regular_at_zero():
    fam = WarpFamily.neck(n=3, c=1.0)
    assert fam.fprime(0.0, 0.3) == pytest.approx(0.0)


def test_neck_operator_at_eps_zero_is_refused():
    # the limit is two cones: one operator on [-1, 1] would take x^(2 gamma)
    # at x < 0 and divide by f/x, which the neck does not have
    from acclab.spectral import (SLGrid, assemble_spectra,
                                 conic_reference_spectrum)
    neck = WarpFamily.neck(n=3, c=0.8)
    with pytest.raises(ValueError, match="two cones"):
        neck.radial_operator(2.0, 0.0)
    with pytest.raises(ValueError, match="two cones"):
        neck.radial_operators_split(2.0, 0.0)
    ref = conic_reference_spectrum(neck, 3, 2)
    spec, = assemble_spectra(neck, [0.0], SLGrid(64), 3, 2)
    assert spec.entries == ref.entries


def test_radial_operator_symmetry_quadrature_oracle():
    fam = WarpFamily.capped(n=3, c=0.8)
    for op in (fam.radial_operator(2.0, 0.2),
               WarpFamily.neck(3, 1.0).radial_operator(6.0, 0.15)):
        assert op.symmetry_defect() < 5e-6


def test_substituted_q_vanishes_on_exact_cone():
    fam = WarpFamily.capped(n=3, c=0.8)
    op = fam.radial_operator(6.0, 0.0)
    _, qtil, _ = op.substituted_coefficients()
    xs = np.linspace(1e-6, 1.0, 57)
    assert np.max(np.abs(qtil(xs))) < 1e-12


def test_sphere_multiplicity_low_dims():
    assert [sphere_multiplicity(1, l) for l in range(3)] == [1, 2, 2]
    assert [sphere_multiplicity(2, l) for l in range(4)] == [1, 3, 5, 7]
    assert [sphere_multiplicity(3, l) for l in range(3)] == [1, 4, 9]
