import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from autocov_spectra import cli
from autocov_spectra.experiments import ks_statistic
from autocov_spectra.limit_law import Gamma0Law


GAMMA0S = (0.1, 0.5, 1.0, 1.7, 2.0, 4.0)


def brentq_g_inverse(law, y):
    """Reference inverse of g: one brentq root-find per value."""
    lo, hi = law.domain
    y = min(max(y, law.g(lo)), law.g(hi))
    if y == law.g(lo):
        return lo
    if y == law.g(hi):
        return hi
    return brentq(lambda x: law.g(x) - y, lo, hi, xtol=1e-12, rtol=8.881784197001252e-16)


def brentq_radial_cdf(law, r):
    """Reference radial CDF: a loop over radii with brentq_g_inverse."""
    out = []
    for ri in r:
        if ri >= law.support_radius:
            out.append(1.0)
        elif ri <= law.inner_radius:
            out.append(law.atom_mass)
        else:
            out.append(brentq_g_inverse(law, ri * ri) / law.gamma0)
    return np.array(out)


class TestG:
    def test_zero_at_left_endpoint(self):
        assert Gamma0Law(1.0).g(0.0) == 0.0

    def test_direct_arithmetic(self):
        assert Gamma0Law(1.0).g(1.0) == pytest.approx(2.0)
        assert Gamma0Law(2.0).g(1.0) == pytest.approx(0.5)

    def test_right_endpoint_identity(self):
        for g0 in np.linspace(0.1, 4.0, 40):
            law = Gamma0Law(g0)
            assert abs(law.g(g0) - g0 * (g0 + 1.0)) <= 1e-12 * g0 * (g0 + 1.0)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            Gamma0Law(2.0).g(0.5)
        with pytest.raises(ValueError):
            Gamma0Law(1.0).g(1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.0, 1.0), st.floats(1e-6, 0.5))
    def test_strictly_increasing(self, g0, frac, step_frac):
        law = Gamma0Law(g0)
        lo, hi = law.domain
        x = lo + frac * (hi - lo)
        h = step_frac * (hi - x)
        if h > 1e-12:
            assert law.g(x + h) > law.g(x)


class TestGInverse:
    @pytest.mark.parametrize("g0", [0.5, 1.0, 2.0])
    def test_round_trip(self, g0):
        law = Gamma0Law(g0)
        lo, hi = law.domain
        for x in np.linspace(lo, hi, 25):
            assert law.g_inverse(law.g(x)) == pytest.approx(x, abs=1e-10)

    def test_endpoint(self):
        assert Gamma0Law(1.0).g_inverse(2.0) == pytest.approx(1.0)

    def test_bisection_oracle(self):
        # Bisect the monotone formula directly.
        law = Gamma0Law(2.0)
        lo, hi = law.domain
        target = 0.5
        for _ in range(80):
            mid = (lo + hi) / 2
            if law.g(mid) < target:
                lo = mid
            else:
                hi = mid
        assert law.g_inverse(0.5) == pytest.approx((lo + hi) / 2, abs=1e-10)
        assert law.g_inverse(0.5) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Gamma0Law(1.0).g_inverse(3.0)
        with pytest.raises(ValueError):
            Gamma0Law(1.0).g_inverse(np.array([1.0, 3.0]))

    @pytest.mark.parametrize("g0", GAMMA0S)
    def test_brentq_oracle(self, g0):
        law = Gamma0Law(g0)
        lo, hi = law.domain
        y = np.linspace(law.g(lo), law.g(hi), 101)
        expected = [brentq_g_inverse(law, v) for v in y]
        assert np.abs(law.g_inverse(y) - expected).max() <= 1e-11
        assert law.g_inverse(y[0]) == lo and law.g_inverse(y[-1]) == hi

    def test_scalar_and_array_inputs(self):
        law = Gamma0Law(1.7)
        y = np.linspace(law.g(law.domain[0]), law.g(law.domain[1]), 12).reshape(3, 4)
        x = law.g_inverse(y)
        assert x.shape == (3, 4)
        assert type(law.g_inverse(float(y[1, 2]))) is float
        assert law.g_inverse(float(y[1, 2])) == x[1, 2]


class TestRadialCdf:
    def test_beyond_support(self):
        assert Gamma0Law(1.0).radial_cdf(np.sqrt(2.0) + 1e-9) == 1.0

    def test_atom_value(self):
        assert Gamma0Law(2.0).radial_cdf(0.0) == pytest.approx(0.5)

    def test_branch_point_continuity(self):
        law = Gamma0Law(2.0)
        r_star = law.inner_radius
        assert r_star == pytest.approx(1 / np.sqrt(2.0))
        below = law.radial_cdf(r_star - 1e-12)
        above = law.radial_cdf(r_star + 1e-12)
        assert abs(above - below) <= 1e-10
        assert below == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("g0", GAMMA0S)
    def test_brentq_oracle(self, g0):
        law = Gamma0Law(g0)
        edges = [0.0, law.inner_radius, law.support_radius]
        near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf) if e > 0]
        beyond = [law.support_radius * 1.1, law.support_radius + 1.0]
        r = np.concatenate([np.linspace(0.0, law.support_radius * 1.2, 400),
                            edges, near, beyond])
        assert np.abs(law.radial_cdf(r) - brentq_radial_cdf(law, r)).max() <= 1e-11

    def test_scalar_and_array_inputs(self):
        law = Gamma0Law(2.0)
        r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        vals = law.radial_cdf(r)
        assert vals.shape == r.shape
        for ri, v in zip(r, vals):
            assert type(law.radial_cdf(float(ri))) is float
            assert law.radial_cdf(float(ri)) == v

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Gamma0Law(1.0).radial_cdf(np.array([0.5, -0.1]))

    def test_nondecreasing(self):
        for g0 in (0.5, 1.0, 1.7, 2.5):
            law = Gamma0Law(g0)
            grid = np.linspace(0, law.support_radius * 1.1, 200)
            vals = law.radial_cdf(grid)
            assert np.all(np.diff(vals) >= -1e-12)


class TestQuantile:
    def test_p_one_hits_support_radius(self):
        for g0 in (0.5, 1.0, 2.0):
            law = Gamma0Law(g0)
            assert law.radial_quantile(1.0) == pytest.approx(law.support_radius, abs=1e-9)

    def test_inside_atom(self):
        assert Gamma0Law(2.0).radial_quantile(0.25) == 0.0

    def test_round_trip(self):
        for g0 in (0.5, 1.0, 2.0):
            law = Gamma0Law(g0)
            for p in np.linspace(0.01, 0.99, 21):
                r = law.radial_quantile(p)
                c = law.radial_cdf(r)
                assert c >= p - 1e-9
                if r > law.inner_radius:
                    assert c == pytest.approx(p, abs=1e-9)

    def test_scalar_and_array_inputs(self):
        law = Gamma0Law(2.0)
        p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        radii = law.radial_quantile(p)
        assert radii.shape == p.shape
        assert radii[0] == radii[1] == 0.0
        for pi, r in zip(p, radii):
            assert type(law.radial_quantile(float(pi))) is float
            assert law.radial_quantile(float(pi)) == r

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Gamma0Law(1.0).radial_quantile(1.5)


class TestSampler:
    def test_determinism(self):
        law = Gamma0Law(1.3)
        assert np.array_equal(law.sample(100, seed=5), law.sample(100, seed=5))

    def test_radial_ks(self):
        law = Gamma0Law(1.0)
        pts = law.sample(100_000, seed=6)
        assert ks_statistic(np.abs(pts), law.radial_cdf) <= 0.01

    def test_radial_ks_with_atom(self):
        law = Gamma0Law(2.0)
        r = np.abs(law.sample(100_000, seed=6))
        assert ks_statistic(r, law.radial_cdf, law.radial_cdf_left) <= 0.01
        # Scored as if F were continuous, the atom alone costs its mass.
        assert ks_statistic(r, law.radial_cdf) >= law.atom_mass

    @pytest.mark.parametrize("wrong", [1.5, 2.5])
    def test_radial_ks_with_atom_rejects_the_wrong_gamma0(self, wrong):
        r = np.abs(Gamma0Law(2.0).sample(100_000, seed=6))
        law = Gamma0Law(wrong)
        assert ks_statistic(r, law.radial_cdf, law.radial_cdf_left) >= 0.1

    def test_angle_uniformity_chi_square(self):
        from scipy.stats import chisquare

        law = Gamma0Law(0.8)
        pts = law.sample(100_000, seed=7)
        angles = np.mod(np.angle(pts[np.abs(pts) > 0]), 2 * np.pi)
        counts, _ = np.histogram(angles, bins=16, range=(0, 2 * np.pi))
        assert chisquare(counts).pvalue > 0.001

    def test_atom_fraction(self):
        pts = Gamma0Law(2.0).sample(100_000, seed=8)
        frac = np.mean(np.abs(pts) == 0.0)
        assert frac == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("gamma0", [0.5, 1.0, 2.0])
def test_radial_cdf_left_differs_only_at_zero(gamma0):
    law = Gamma0Law(gamma0)
    r = np.array([0.0, 1e-12, 0.5 * law.inner_radius, 0.5, law.support_radius, 9.0])
    F = law.radial_cdf(r)
    left = law.radial_cdf_left(r, F)
    assert left[0] == 0.0
    assert left[1:].tolist() == F[1:].tolist()


def test_cdf_csv_export(tmp_path):
    law = Gamma0Law(1.0)
    path = tmp_path / "cdf.csv"
    cli._write_csv(path, ["r", "cdf"], law.cdf_table(np.linspace(0, law.support_radius, 10)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,cdf"
    assert len(lines) == 11
    assert float(lines[-1].split(",")[1]) == pytest.approx(1.0)


def test_cdf_table_matches_radial_cdf():
    law = Gamma0Law(1.7)
    grid = np.linspace(0.0, law.support_radius * 1.1, 9)
    table = law.cdf_table(grid)
    assert [r for r, _ in table] == grid.tolist()
    assert [c for _, c in table] == [law.radial_cdf(float(r)) for r in grid]
