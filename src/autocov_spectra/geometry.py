"""Unit-vector geometry: compressibility, spread sets, small-ball mass,
logarithmic potentials."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CompressibilityParams:
    """Sparsity fraction theta and approximation radius rho, both in (0, 1)."""

    theta: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0 or not 0.0 < self.rho < 1.0:
            raise ValueError("theta and rho must lie in (0, 1)")


def _as_unit_vector(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex).ravel()
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"expected a unit vector, got norm {norm}")
    return u


def compressibility_distance(u, theta: float) -> float:
    """Distance from u to the nearest unit vector of support size floor(theta n).

    Over a fixed support I the minimum of ||u - v|| for unit v is
    sqrt(2 - 2 ||Pi_I u||), so the global minimum keeps the floor(theta n)
    largest-modulus coordinates.
    """
    u = _as_unit_vector(u)
    n = u.size
    m = int(np.floor(theta * n))
    if m < 1:
        raise ValueError(f"floor(theta * n) = 0 for theta={theta}, n={n}")
    if m >= n:
        return 0.0
    mods = np.abs(u)
    top_norm = float(np.sqrt(np.sort(mods**2)[::-1][:m].sum()))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * top_norm)))


def is_compressible(u, params: CompressibilityParams) -> bool:
    return compressibility_distance(u, params.theta) <= params.rho


def spread_set(u, params: CompressibilityParams) -> np.ndarray:
    """Indices i with rho/sqrt(n) <= |u_i| <= 2/sqrt(theta n).

    For incompressible u this set has at least 3 theta n / 4 elements; the
    bound is asserted and a violation raises (it would mean either a bug or a
    misclassified vector).
    """
    u = _as_unit_vector(u)
    n = u.size
    mods = np.abs(u)
    lower = params.rho / np.sqrt(n)
    upper = 2.0 / np.sqrt(params.theta * n)
    J = np.nonzero((mods >= lower) & (mods <= upper))[0]
    if not is_compressible(u, params) and J.size < 0.75 * params.theta * n:
        raise AssertionError(
            f"spread set of incompressible vector has {J.size} < 3*theta*n/4 elements")
    return J


def joint_spread_set(u, u_tilde, params: CompressibilityParams) -> np.ndarray:
    """Spread set of u further restricted to |u_tilde_i| <= 2/sqrt(theta n).

    For incompressible u the intersection keeps at least theta n / 2 indices.
    """
    u = _as_unit_vector(u)
    u_tilde = _as_unit_vector(u_tilde)
    if u.size != u_tilde.size:
        raise ValueError("dimension mismatch")
    n = u.size
    J = spread_set(u, params)
    upper = 2.0 / np.sqrt(params.theta * n)
    J_prime = J[np.abs(u_tilde[J]) <= upper]
    if not is_compressible(u, params) and J_prime.size < 0.5 * params.theta * n:
        raise AssertionError(
            f"joint spread set of incompressible vector has {J_prime.size} < theta*n/2 elements")
    return J_prime


def sample_incompressible(n: int, params: CompressibilityParams,
                          rng: np.random.Generator, max_tries: int = 1000) -> np.ndarray:
    """Uniform unit vector conditioned on being incompressible (rejection)."""
    for _ in range(max_tries):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        if not is_compressible(v, params):
            return v
    raise RuntimeError(f"no incompressible vector found in {max_tries} draws")


@dataclass
class SmallBallEstimate:
    probability: float
    center: complex
    grid_pitch: float
    grid_size: int


def small_ball_estimate(samples, r: float, pitch_factor: float = 0.25) -> SmallBallEstimate:
    """Estimate sup_z P(S in B(z, r)) from samples of the sum S.

    The sup over the plane is not computable, so the empirical ball mass is
    maximized over an axis-aligned grid of pitch <= r * pitch_factor covering
    the central sample range; the pitch bounds the underestimate.
    """
    samples = np.asarray(samples, dtype=complex).ravel()
    if samples.size == 0:
        raise ValueError("empty sample set")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    pts = np.column_stack([samples.real, samples.imag])
    if r == 0.0 or samples.size < 2:
        # Degenerate radius: sup mass is the modal point mass.
        vals, counts = np.unique(samples, return_counts=True)
        i = int(np.argmax(counts))
        return SmallBallEstimate(float(counts[i] / samples.size), complex(vals[i]), 0.0, 1)
    pitch = r * pitch_factor
    lo = np.quantile(pts, 0.005, axis=0) - r
    hi = np.quantile(pts, 0.995, axis=0) + r
    xs = np.arange(lo[0], hi[0] + pitch, pitch)
    ys = np.arange(lo[1], hi[1] + pitch, pitch)
    # Every centre within r of a sample lies within ceil(r / pitch) grid
    # steps, along each axis, of the sample's nearest centre; K adds one step
    # for rounding in xs, ys and the division. So each (sample, centre) pair
    # with d^2 <= r^2 is counted once over the (2K+1)^2 offsets.
    K = int(np.ceil(r / pitch)) + 1
    nearest = np.rint((pts - (xs[0], ys[0])) / pitch).astype(np.intp)
    counts = np.zeros((xs.size, ys.size), dtype=np.intp)
    for di, dj in itertools.product(range(-K, K + 1), repeat=2):
        i, j = nearest[:, 0] + di, nearest[:, 1] + dj
        on_grid = (i >= 0) & (i < xs.size) & (j >= 0) & (j < ys.size)
        i, j = i[on_grid], j[on_grid]
        dx, dy = pts[on_grid, 0] - xs[i], pts[on_grid, 1] - ys[j]
        within = dx * dx + dy * dy <= r * r
        np.add.at(counts, (i[within], j[within]), 1)
    # x-major order with ties to the first index, as a list of centres
    # (x, y) for x in xs for y in ys would give.
    i, j = np.unravel_index(int(np.argmax(counts)), counts.shape)
    return SmallBallEstimate(
        probability=float(counts[i, j] / samples.size),
        center=complex(xs[i], ys[j]),
        grid_pitch=float(pitch),
        grid_size=counts.size,
    )


def berry_esseen_bound(r: float, second_moments, third_moments, c_prime: float = 4.0) -> float:
    """Berry-Esseen style cap on the small-ball probability of a centered sum:
    c' r / sqrt(sum E|Z|^2) + c' sum E|Z|^3 / (sum E|Z|^2)^{3/2}."""
    s2 = float(np.sum(second_moments))
    s3 = float(np.sum(third_moments))
    if s2 <= 0:
        raise ValueError("second moments must have positive sum")
    return c_prime * r / np.sqrt(s2) + c_prime * s3 / s2**1.5


def log_potential(points, z: complex) -> float:
    """-(1/count) sum ln|z - lambda_i|; z must avoid every point."""
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("empty point set")
    diffs = np.abs(z - pts)
    if np.any(diffs == 0.0):
        raise ValueError(f"z={z} coincides with a point of the measure")
    return float(-np.mean(np.log(diffs)))
