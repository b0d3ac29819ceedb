"""Stationarity analysis of the GHZ overlap objective under a 3-to-4 angle
substitution, and the mechanical demonstration that maximizing in the
substituted variables is wrong.

The squared GHZ overlap in the real plane,

    P(t1, t2, t3) = (1/2) * (cos t1 cos t2 cos t3 + sin t1 sin t2 sin t3)**2,

rewrites exactly, via product-to-sum identities, as

    P = (1/32) * ((cos w - sin w) + (cos x + sin x)
                  + (cos y + sin y) + (cos z - sin z))**2

with w = t1+t2+t3, x = t1+t2-t3, y = t1-t2+t3, z = t1-t2-t3.  The four
substituted angles satisfy the linear dependence w - x - y + z = 0, so they
parametrize a three-dimensional hyperplane of 4-space, not all of it.

Stationarity in the original variables requires J0 = -J1 = -J2 = J3 for the
four shifted cosines J defined below (constraint "paired"); stationarity in
the substituted variables treated as independent requires all four to vanish
(constraint "all-zero").  The two constraint sets differ: the true maxima
(P = 1/2 at t_i = 0 or +-pi/2 patterns) satisfy the paired constraint with
nonzero J, while the all-zero points that do exist in the box all have
P = 1/4.  Maximizing each bracket term independently would give P = 1, but
every term-maximizing angle assignment violates the hyperplane relation by an
odd multiple of pi and therefore corresponds to no (t1, t2, t3) at all.

Both sides are computed exactly: the all-zero points are enumerated from the
closed-form zero sets of the J functions, and the true maximum reduces to a
one-angle maximum of a top singular value (see :func:`constraint5_search`).
The product-to-sum rewrite itself is checked numerically on random triples
(:func:`substitution_identity_check`), in fixed blocks that the calling
thread and one helper thread share; the deviation it reports is the same
bits whichever thread checks which block.

The public surface is what the CLI, the scripts and the tests read:
:func:`refutation_report` (the ``refute`` output), :func:`constraint5_search`
and :func:`substitution_identity_check` (its two parts),
:func:`flawed_max_ghz`, :func:`ghz_objective_3param`, and the point-wise view
:func:`transform_to_wxyz`, :func:`j_vector` and :func:`constraint4_residual`.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .states import RealAngles, _HALF_PI, _check_seed

_QUARTER_PI = math.pi / 4.0

# Triples per block of the identity check: the (4096, 3) draw (96 KiB) and the
# 32 KiB temporaries stay below glibc's 128 KiB mmap threshold, so blocks reuse
# heap memory instead of mapping fresh pages.
_IDENTITY_BLOCK = 4096


@dataclass(frozen=True)
class TransformedAngles:
    """The substituted angles (w, x, y, z); feasible images of real triples
    satisfy w - x - y + z = 0, but arbitrary points are representable."""

    theta_w: float
    theta_x: float
    theta_y: float
    theta_z: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_w, self.theta_x, self.theta_y, self.theta_z)


@dataclass(frozen=True)
class JVector:
    """The four stationarity functions; each is a shifted cosine of amplitude
    sqrt(2), so |j_i| <= sqrt(2) always."""

    j0: float
    j1: float
    j2: float
    j3: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.j0, self.j1, self.j2, self.j3)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.as_tuple())

    def min_abs(self) -> float:
        return min(abs(v) for v in self.as_tuple())


@dataclass(frozen=True)
class JZeroSolution:
    """A point where all four J functions vanish, with its objective value."""

    thetas: tuple[float, float, float]
    j: tuple[float, float, float, float]
    objective: float
    max_abs_j: float


@dataclass(frozen=True)
class ConstraintSearchReport:
    """Outcome of the exact search for all-zero J points in the angle box."""

    solutions: tuple[JZeroSolution, ...]
    true_max: float
    hyperplane_min_residual: float

    def best_solution_objective(self) -> float:
        return max((s.objective for s in self.solutions), default=0.0)


def transform_to_wxyz(angles: RealAngles) -> TransformedAngles:
    """(t1, t2, t3) -> (t1+t2+t3, t1+t2-t3, t1-t2+t3, t1-t2-t3)."""
    t1, t2, t3 = _three(angles)
    return TransformedAngles(t1 + t2 + t3, t1 + t2 - t3, t1 - t2 + t3, t1 - t2 - t3)


def ghz_objective_3param(angles: RealAngles) -> float:
    """(1/2) (cos t1 cos t2 cos t3 + sin t1 sin t2 sin t3)**2."""
    return float(_objective3(*_three(angles)))


def j_vector(t: TransformedAngles) -> JVector:
    """J0 = -sin w - cos w, J1 = cos x - sin x, J2 = cos y - sin y,
    J3 = -sin z - cos z (the bracket-term derivatives)."""
    w, x, y, z = t.as_tuple()
    return JVector(
        -math.sin(w) - math.cos(w),
        -math.sin(x) + math.cos(x),
        -math.sin(y) + math.cos(y),
        -math.sin(z) - math.cos(z),
    )


def constraint4_residual(t: TransformedAngles) -> float:
    """How far J is from the paired pattern J0 = -J1 = -J2 = J3; zero exactly
    at stationary points of the objective in the original three angles."""
    j = j_vector(t)
    return max(abs(j.j0 + j.j1), abs(j.j0 + j.j2), abs(j.j0 - j.j3))


def flawed_max_ghz() -> float:
    """Termwise maximum of the substituted objective: each of the four bracket
    terms attains sqrt(2) independently, giving (1/32)(4 sqrt(2))**2 = 1
    exactly.  This value is void.

    The witness realizing all four termwise maxima is (w, x, y, z) =
    (-pi/4, pi/4, pi/4, -pi/4), and the whole term-maximizing family is that
    point with each angle shifted by a multiple of 2 pi.  Its hyperplane
    residual w - x - y + z is -pi + 2 pi m, an odd multiple of pi, so every
    member misses the hyperplane and no real angle triple reaches the value;
    the maximum of the true objective is 1/2."""
    return (4.0**2 * 2.0) / 32.0  # (4*sqrt(2))**2 / 32, kept in exact arithmetic


def substitution_identity_check(samples: int, rng_seed: int = 0) -> float:
    """Max absolute deviation between the 3-angle objective and the
    substituted 4-angle objective over random triples in the angle box.

    The triples are drawn and checked ``_IDENTITY_BLOCK`` at a time, by the
    calling thread and one helper thread.
    Each thread takes the next block index and draws that block's triples
    under one lock, so block i always gets the same segment of the generator
    stream (the one a single ``(samples, 3)`` draw would give it), whichever
    thread runs it.  Each thread keeps a running max over its own blocks, and
    the max of the two is exact, so the value does not depend on which thread
    ran which block.  Time is linear in ``samples``; memory is constant, with
    at most two blocks in flight.  numpy releases the GIL inside the blocks'
    trig loops, so the threads run on two cores.  An exception in either
    thread stops both from taking new blocks and is raised here; the helper
    is joined before the call returns."""
    _check_seed(rng_seed)
    if samples < 1:
        raise ValueError(f"samples: must be >= 1, got {samples!r}")
    rng = np.random.default_rng(rng_seed)
    starts = iter(range(0, samples, _IDENTITY_BLOCK))
    lock = threading.Lock()
    maxima: list[float] = []
    errors: list[BaseException] = []

    def check_blocks() -> None:
        deviation = 0.0
        try:
            while True:
                with lock:
                    start = None if errors else next(starts, None)
                    if start is None:
                        break
                    size = min(_IDENTITY_BLOCK, samples - start)
                    t1, t2, t3 = rng.uniform(-_HALF_PI, _HALF_PI, size=(size, 3)).T
                obj3 = _objective3(t1, t2, t3)
                obj4 = _objective4(t1 + t2 + t3, t1 + t2 - t3, t1 - t2 + t3, t1 - t2 - t3)
                deviation = max(deviation, float(np.max(np.abs(obj3 - obj4))))
        except BaseException as exc:  # raised below, in the calling thread
            errors.append(exc)
        else:
            maxima.append(deviation)

    helper = threading.Thread(target=check_blocks, name="identity-check")
    helper.start()
    try:
        check_blocks()
    finally:
        helper.join()
    if errors:
        raise errors[0]
    return max(maxima)


def constraint5_search(grid_resolution: int = 181, eps: float = 1e-8) -> ConstraintSearchReport:
    """Exact enumeration of the points in the angle box where all four J vanish.

    All J vanish iff w = -pi/4, x = pi/4, y = pi/4 and z = -pi/4 (mod pi, with
    multiples m0..m3), and the hyperplane forces m0 - m1 - m2 + m3 = 1, so
    t = -pi/4 + (a, b, c) pi/2 with a + b + c odd: in the box, the four points
    (+-pi/4, +-pi/4, +-pi/4) with an even number of minus signs.  Each is kept
    only if max|J| < ``eps`` under :func:`j_vector`.

    For fixed t3 the maximum of the amplitude over (t1, t2) is the top singular
    value max(|cos t3|, |sin t3|) of diag(cos t3, sin t3); ``true_max`` takes
    it over ``grid_resolution`` values of t3 on [-pi/2, pi/2], whose endpoints
    attain the maximum.  Also reports the minimum |hyperplane residual| of the
    term-maximizing family, which is pi (see :func:`flawed_max_ghz`).
    """
    if grid_resolution < 9:
        raise ValueError(f"grid_resolution: must be >= 9, got {grid_resolution!r}")
    if not eps > 0.0:
        raise ValueError(f"eps: must be > 0, got {eps!r}")

    solutions = []
    for steps in itertools.product((0, 1), repeat=3):
        if sum(steps) % 2 == 0:
            continue
        angles = RealAngles(tuple(-_QUARTER_PI + k * _HALF_PI for k in steps))
        j = j_vector(transform_to_wxyz(angles))
        if j.max_abs() >= eps:
            continue
        solutions.append(
            JZeroSolution(
                thetas=angles.thetas,
                j=j.as_tuple(),
                objective=ghz_objective_3param(angles),
                max_abs_j=j.max_abs(),
            )
        )
    solutions.sort(key=lambda s: s.thetas)

    t3 = np.linspace(-_HALF_PI, _HALF_PI, grid_resolution)
    top = np.maximum(np.abs(np.cos(t3)), np.abs(np.sin(t3)))
    true_max = 0.5 * float(np.max(top)) ** 2

    return ConstraintSearchReport(
        solutions=tuple(solutions),
        true_max=true_max,
        hyperplane_min_residual=abs(math.remainder(-4.0 * _QUARTER_PI, 2.0 * math.pi)),
    )


def refutation_report(
    grid_resolution: int = 181,
    eps: float = 1e-8,
    identity_samples: int = 10**5,
    rng_seed: int = 0,
) -> dict:
    """JSON-ready summary combining the flawed maximum, the exact all-zero-J
    search, and the identity check.

    Schema: {"solutions": [{"theta": [...], "j": [...], "objective": ...}],
    "flawed_max": 1.0, "true_max": 0.5, "hyperplane_min_residual": pi,
    "identity_deviation": ...}.
    """
    search = constraint5_search(grid_resolution, eps)
    return {
        "solutions": [
            {"theta": list(s.thetas), "j": list(s.j), "objective": s.objective}
            for s in search.solutions
        ],
        "flawed_max": flawed_max_ghz(),
        "true_max": search.true_max,
        "hyperplane_min_residual": search.hyperplane_min_residual,
        "identity_deviation": substitution_identity_check(identity_samples, rng_seed),
    }


# ----------------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------------

def _three(angles: RealAngles) -> tuple[float, float, float]:
    if len(angles) != 3:
        raise ValueError(f"angles: expected exactly 3 angles, got {len(angles)}")
    return angles.thetas  # type: ignore[return-value]


# The two objectives are numpy ufunc expressions, so they take scalars and
# arrays alike.
def _objective3(t1, t2, t3):
    amp = np.cos(t1) * np.cos(t2) * np.cos(t3) + np.sin(t1) * np.sin(t2) * np.sin(t3)
    return 0.5 * amp**2


def _objective4(w, x, y, z):
    bracket = (
        (np.cos(w) - np.sin(w))
        + (np.cos(x) + np.sin(x))
        + (np.cos(y) + np.sin(y))
        + (np.cos(z) - np.sin(z))
    )
    return bracket * bracket / 32.0
