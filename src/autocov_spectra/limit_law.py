"""The rotation-invariant limiting law for the small-lag regime.

The law is determined by its radial CDF, built from the increasing function
g(x) = x (1 - gamma0 + 2x)^2 / (1 + x) on [max(0, gamma0 - 1), gamma0].
For gamma0 > 1 the CDF is flat at 1 - 1/gamma0 near the origin; that mass is
represented here as an atom at radius exactly 0 (the limit is rank
deficient, so the deficiency concentrates at the origin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Halvings of g's domain in g_inverse. The domain is at most 1 wide, so 64
# halvings shrink the bracket to 2^-64 < 6e-20, below float64 resolution.
BISECTION_STEPS = 64


@dataclass(frozen=True)
class Gamma0Law:
    """Limiting eigenvalue law at aspect ratio gamma0 = lim N/n."""

    gamma0: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 < np.inf:
            raise ValueError(f"gamma0 must be in (0, inf), got {self.gamma0}")

    @property
    def domain(self) -> tuple[float, float]:
        """Domain of g: [max(0, gamma0 - 1), gamma0]."""
        return (max(0.0, self.gamma0 - 1.0), self.gamma0)

    @property
    def support_radius(self) -> float:
        return float(np.sqrt(self.gamma0 * (self.gamma0 + 1.0)))

    @property
    def atom_mass(self) -> float:
        """Mass at radius 0; nonzero only when gamma0 > 1."""
        return max(0.0, 1.0 - 1.0 / self.gamma0)

    @property
    def inner_radius(self) -> float:
        """Upper edge of the flat CDF branch, (gamma0 - 1)^{3/2} gamma0^{-1/2}."""
        if self.gamma0 <= 1.0:
            return 0.0
        return float((self.gamma0 - 1.0) ** 1.5 / np.sqrt(self.gamma0))

    def _g(self, x):
        return x * (1.0 - self.gamma0 + 2.0 * x) ** 2 / (1.0 + x)

    def g(self, x) -> np.ndarray | float:
        """Evaluate g on its domain."""
        lo, hi = self.domain
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < lo - 1e-12) or np.any(x_arr > hi + 1e-12):
            raise ValueError(f"x outside [{lo}, {hi}]")
        val = self._g(np.clip(x_arr, lo, hi))
        return float(val) if np.isscalar(x) else val

    def g_inverse(self, y) -> np.ndarray | float:
        """Invert g elementwise by bisection on arrays.

        g increases on its domain, so each of BISECTION_STEPS halvings keeps
        the half of every bracket that contains g^-1(y). y at the ends of g's
        range maps to the ends of the domain exactly.
        """
        lo, hi = self.domain
        y_lo, y_hi = self.g(lo), self.g(hi)
        y_arr = np.asarray(y, dtype=float)
        if not np.all((y_arr >= y_lo - 1e-12 * max(1.0, abs(y_lo)))
                      & (y_arr <= y_hi + 1e-12 * max(1.0, y_hi))):
            raise ValueError(f"y outside range [{y_lo}, {y_hi}]")
        y_arr = np.clip(y_arr, y_lo, y_hi)
        a = np.full(y_arr.shape, lo)
        b = np.full(y_arr.shape, hi)
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (a + b)
            below = self._g(mid) < y_arr
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
        x = np.where(y_arr == y_lo, lo, np.where(y_arr == y_hi, hi, 0.5 * (a + b)))
        return float(x) if np.isscalar(y) else x

    def radial_cdf(self, r) -> np.ndarray | float:
        """Probability of the closed ball of radius r about the origin."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr < 0):
            raise ValueError("radius must be nonnegative")
        # g's range is [inner_radius^2, support_radius^2]; clipping into it
        # lets the radii of the two flat branches pass through g_inverse.
        lo, hi = self.domain
        y = np.clip(r_arr * r_arr, self.g(lo), self.g(hi))
        out = np.where(r_arr >= self.support_radius, 1.0,
                       np.where(r_arr <= self.inner_radius, self.atom_mass,
                                self.g_inverse(y) / self.gamma0))
        return float(out[0]) if np.isscalar(r) else out

    def radial_cdf_left(self, r, cdf) -> np.ndarray:
        """Probability of the open ball of radius r: the left limit of
        radial_cdf at r, given cdf = radial_cdf(r). The law's only jump is
        its atom at radius 0, so the two differ only at r = 0, where the
        open ball is empty."""
        return np.where(np.asarray(r) > 0, cdf, 0.0)

    def radial_quantile(self, p) -> np.ndarray | float:
        """Smallest r with radial_cdf(r) >= p.

        Closed form on the continuous branch: CDF(r) = p solves to
        r = sqrt(g(gamma0 * p)). Probabilities inside the atom map to 0.
        """
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(p_arr < 0) or np.any(p_arr > 1):
            raise ValueError("p must lie in [0, 1]")
        lo, hi = self.domain
        x = np.clip(self.gamma0 * p_arr, lo, hi)
        out = np.where(p_arr <= self.atom_mass, 0.0, np.sqrt(self._g(x)))
        return float(out[0]) if np.isscalar(p) else out

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        """Draw complex points: inverse-CDF radius, uniform angle."""
        if count < 1:
            raise ValueError("count must be positive")
        rng = np.random.Generator(np.random.PCG64(seed))
        radii = self.radial_quantile(rng.uniform(0.0, 1.0, count))
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        return radii * np.exp(1j * angles)

    def cdf_table(self, r_grid) -> list[tuple[float, float]]:
        r = np.asarray(r_grid, dtype=float)
        return list(zip(r.tolist(), self.radial_cdf(r).tolist()))
