"""n-qubit pure states, the named-family table, separable ansatz states, and
overlap contractions.

Basis convention: amplitude index x addresses |x0 x1 ... x_{n-1}> with qubit 0
as the most significant bit, so |0...0> is index 0 and |1...1> is index
2**n - 1.  Amplitudes are stored complex throughout; real-coefficient families
simply carry zero imaginary parts, which keeps realness a testable property
instead of a type restriction.

All types are immutable values after construction and safe to share across
threads.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analytic import AnalyticResult, pmax_dicke, pmax_gghz, pmax_w

NORM_TOL = 1e-10        # squared-norm slack accepted by constructors
FACTOR_NORM_TOL = 1e-12  # squared-norm slack for single-qubit factors
FILE_NORM_TOL = 1e-8    # looser slack accepted when reading state files
ANGLE_RANGE_EPS = 1e-12
AMPLITUDE_BUDGET = 2**24  # max amplitudes in one array: a state, or n_starts * 2**n in a solve

_HALF_PI = math.pi / 2.0


class NormalizationError(ValueError):
    """Amplitudes are not unit norm and renormalization was not requested."""


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector of length 2**n_qubits.

    Construction rejects vectors whose squared norm deviates from 1 by more
    than ``NORM_TOL``; use :meth:`normalized` to renormalize explicitly.
    Silent renormalization would mask data errors, so it is never implicit.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size < 2 or (a.size & (a.size - 1)) != 0:
            raise ValueError(
                f"amplitudes: length must be 2**n for n >= 1, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("amplitudes: entries must be finite")
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"amplitudes: squared norm {norm_sq!r} is off unity by more than "
                f"{NORM_TOL}; call PureState.normalized(...) if renormalization is intended"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @staticmethod
    def normalized(amplitudes: Sequence[complex] | np.ndarray) -> "PureState":
        """Construct after dividing by the norm (rejects the zero vector)."""
        a = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            raise ValueError("amplitudes: cannot normalize the zero vector")
        return PureState(a / norm)

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size.bit_length() - 1)

    def tensor(self) -> np.ndarray:
        """View of the amplitudes as a [2]*n tensor (axis i = qubit i)."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def is_real(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.amplitudes.imag)) <= tol)


@dataclass(frozen=True)
class SingleQubitState:
    """One tensor factor of a product ansatz: c0|0> + c1|1>, unit norm."""

    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        parts = (self.c0.real, self.c0.imag, self.c1.real, self.c1.imag)
        if not all(map(math.isfinite, parts)):  # NaN would pass the norm check
            raise ValueError(
                f"single-qubit factor: entries must be finite, got ({self.c0!r}, {self.c1!r})"
            )
        # abs(c) ** 2 raises OverflowError where this gives inf, refused below.
        norm_sq = abs(self.c0) * abs(self.c0) + abs(self.c1) * abs(self.c1)
        if abs(norm_sq - 1.0) > FACTOR_NORM_TOL:
            raise NormalizationError(
                f"single-qubit factor: squared norm {norm_sq!r} is off unity by more than {FACTOR_NORM_TOL}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=np.complex128)


@dataclass(frozen=True)
class ProductState:
    """Fully separable n-qubit state given by its single-qubit factors."""

    factors: tuple[SingleQubitState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise ValueError("factors: need at least one single-qubit factor")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def factor_matrix(self) -> np.ndarray:
        """(n, 2) array of the factor amplitudes."""
        return np.array([[f.c0, f.c1] for f in self.factors], dtype=np.complex128)

    def to_state(self) -> PureState:
        """Expand the tensor product into a full 2**n amplitude vector."""
        a = np.array([1.0 + 0.0j])
        for f in self.factors:
            a = np.kron(a, f.as_array())
        return PureState(a)


@dataclass(frozen=True)
class RealAngles:
    """Real-plane product parametrization: factor i = cos(theta_i)|0> + sin(theta_i)|1>.

    Angles are restricted to [-pi/2, pi/2] on construction.
    """

    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.thetas)
        object.__setattr__(self, "thetas", ts)
        if len(ts) < 1:
            raise ValueError("thetas: need at least one angle")
        for i, t in enumerate(ts):
            if not (-_HALF_PI - ANGLE_RANGE_EPS <= t <= _HALF_PI + ANGLE_RANGE_EPS):
                raise ValueError(
                    f"thetas[{i}]: angle {t!r} outside the allowed range [-pi/2, pi/2]"
                )

    def __len__(self) -> int:
        return len(self.thetas)


# ----------------------------------------------------------------------------
# Named families
# ----------------------------------------------------------------------------

def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    _check_n(n, "ghz")
    a = np.zeros(2**n, dtype=np.complex128)
    a[0] = a[-1] = 1.0 / math.sqrt(2.0)
    return PureState(a)


def gghz(n: int, a: float) -> PureState:
    """Generalized GHZ: a|0...0> + sqrt(1 - a**2)|1...1>, real a in [0, 1].

    The endpoints a = 0 and a = 1 are degenerate (separable basis states) but
    allowed so parameter sweeps can include them.
    """
    _check_n(n, "gghz")
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"gghz: a must lie in [0, 1], got {a!r}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = a
    amps[-1] = math.sqrt(max(0.0, 1.0 - a * a))
    return PureState(amps)


def w(n: int) -> PureState:
    """Equal superposition of all weight-1 basis states, amplitude 1/sqrt(n)."""
    _check_n(n, "w")
    a = np.zeros(2**n, dtype=np.complex128)
    for j in range(n):
        a[1 << j] = 1.0 / math.sqrt(n)
    return PureState(a)


def dicke(n: int, k: int) -> PureState:
    """Equal superposition of all weight-k basis states of n qubits."""
    _check_n(n, "dicke")
    if not 0 <= k <= n:
        raise ValueError(f"dicke: k must lie in [0, {n}], got {k!r}")
    weight = np.zeros(1, dtype=np.uint8)  # Hamming weight of each index, by doubling
    for _ in range(n):
        weight = np.concatenate((weight, weight + 1))
    a = np.zeros(2**n, dtype=np.complex128)
    a[weight == k] = 1.0 / math.sqrt(math.comb(n, k))
    return PureState(a)


def basis_state(n: int, x: int) -> PureState:
    """Computational basis state |x>."""
    _check_n(n, "basis")
    if not 0 <= x < 2**n:
        raise ValueError(f"basis: x must lie in [0, {2**n}), got {x!r}")
    a = np.zeros(2**n, dtype=np.complex128)
    a[x] = 1.0
    return PureState(a)


def uniform(n: int) -> PureState:
    """Uniform superposition |+>^n."""
    _check_n(n, "uniform")
    a = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=np.complex128)
    return PureState(a)


def _gghz_a2(n: int, a2: float) -> PureState:
    """gghz parametrized by the squared weight a2 of |0...0>, as in specs."""
    if not 0.0 <= a2 <= 1.0:
        raise ValueError(f"family: a2 must lie in [0, 1], got {a2!r}")
    return gghz(n, math.sqrt(a2))


@dataclass(frozen=True)
class Family:
    """A state family: its name, its spec parameters in positional order
    (types in ``_PARAM_TYPES``), a builder taking them by keyword, and the
    closed-form P_max with the parameters it takes, in order (None where there
    is none).  A closed form that does not take ``n`` is the same at every
    n >= 2."""

    name: str
    params: tuple[str, ...]
    build: Callable[..., PureState]
    closed_form: Callable[..., AnalyticResult] | None = None
    closed_form_params: tuple[str, ...] = ()

    def analytic(self, bound: dict) -> AnalyticResult:
        """The closed form at parameters bound by :func:`family_params`; one
        that does not take ``n`` holds only for n >= 2."""
        if self.closed_form is None:
            known = ", ".join(sorted(k for k, f in FAMILIES.items() if f.closed_form))
            raise ValueError(f"family: no closed form for {self.name!r} (known: {known})")
        if "n" not in self.closed_form_params and bound["n"] < 2:
            raise ValueError(f"family: the closed form needs n >= 2, got n = {bound['n']}")
        return self.closed_form(*(bound[p] for p in self.closed_form_params))


_PARAM_TYPES = {"n": int, "a2": float, "k": int, "x": int}

# The one table of named families.  Each closed form is tied here to exactly
# the state it describes (Wei & Goldbart, PRA 68, 042307, 2003).
FAMILIES = {
    f.name: f
    for f in (
        Family("ghz", ("n",), ghz, lambda: pmax_gghz(0.5)),
        Family("gghz", ("n", "a2"), _gghz_a2, pmax_gghz, ("a2",)),
        Family("w", ("n",), w, pmax_w, ("n",)),
        Family("dicke", ("n", "k"), dicke, pmax_dicke, ("n", "k")),
        Family("basis", ("n", "x"), basis_state),
        Family("uniform", ("n",), uniform),
    )
}


def lookup_family(name: str) -> Family:
    """The registry entry of ``name``; ValueError if there is none."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"family: unknown family {name!r} (known: {known})") from None


def family_params(name: str, **params) -> dict:
    """Check every parameter of family ``name`` without building the state:
    coerce it to its type (integer-valued floats to int) and check n's size.
    Errors are ValueErrors naming the offending field."""
    entry = lookup_family(name)
    for key in params:
        if key not in entry.params:
            raise ValueError(f"family: {name} has no parameter {key!r}")
    missing = [p for p in entry.params if p not in params]
    if missing:
        raise ValueError(f"family: {name} needs {' and '.join(missing)}")
    bound = {p: _coerce(p, params[p]) for p in entry.params}
    _check_n(bound["n"], name)
    return bound


def make_family(name: str, **params) -> PureState:
    """Build a family state of :data:`FAMILIES` from keyword parameters:
    ghz(n), gghz(n, a2) with a2 the squared weight of |0...0>, w(n),
    dicke(n, k), basis(n, x) or uniform(n), checked by :func:`family_params`."""
    return lookup_family(name).build(**family_params(name, **params))


def _coerce(field: str, value):
    if _PARAM_TYPES[field] is float:
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"family: {field} must be an integer, got {value!r}") from None


def _check_n(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name}: n must be >= 1, got {n!r}")
    if n > math.log2(AMPLITUDE_BUDGET):  # 2**n itself could be a huge integer
        raise ValueError(
            f"{name}: n = {n} needs 2**{n} amplitudes, above the "
            f"{AMPLITUDE_BUDGET}-element budget"
        )


def _check_budget(elements: int, field: str, what: str) -> None:
    """Refuse an array of ``elements`` entries above ``AMPLITUDE_BUDGET``;
    the error names ``field`` and describes the array as ``what``."""
    if elements > AMPLITUDE_BUDGET:
        raise ValueError(f"{field}: {what} exceeds the {AMPLITUDE_BUDGET}-element budget")


def _check_seed(seed: int) -> None:
    """Refuse a generator seed outside the unsigned 64-bit range."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"rng_seed: must be an unsigned 64-bit integer, got {seed!r}")


# ----------------------------------------------------------------------------
# Overlaps and contractions
# ----------------------------------------------------------------------------

# The kernel below is the one place where a state is contracted with product
# factors.  Everything works on a batch of S rank-1 ansatzes at once: a
# (S, 2*R) array holds, per start, a tensor whose leading axis is the next
# qubit to contract, and (S, 2) arrays hold the factors.  A shared state
# enters with S = 1 and broadcasts against S factor rows; the unbatched
# functions are the S = 1 case.  Every step is one np.matmul over the batch,
# so no einsum path is planned and each row's arithmetic does not depend on
# the other rows.

def contract_leading(t: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Contract the leading qubit of a (S, 2*R) batch with the conjugated
    (S, 2) factors: row s of the (S, R) result is sum_b conj(f[s, b]) t[s, b, :]."""
    rows = t.reshape(t.shape[0], 2, -1)
    return np.matmul(np.conj(factors)[:, np.newaxis, :], rows)[:, 0, :]


def contract_tail(prefix: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Environment (S, 2) of the leading qubit of a (S, 2*R) prefix, given the
    (S, R) conjugated product of the factors after it (see :func:`tail_products`)."""
    rows = prefix.reshape(prefix.shape[0], 2, -1)
    return np.matmul(rows, tail[:, :, np.newaxis])[:, :, 0]


def tail_products(factors: np.ndarray) -> list:
    """Conjugated suffix products of (S, n, 2) factors.

    Entry k (1 <= k <= n) is the (S, 2**(n - k)) product conj(f_k) x ... x
    conj(f_{n-1}), with entry n all ones.  Entry 0 would be the full S x 2**n
    product, which no contraction needs, so it is left as None.
    """
    s, n = factors.shape[0], factors.shape[1]
    conj = np.conj(factors)
    tails = [None] * (n + 1)
    tails[n] = np.ones((s, 1), dtype=factors.dtype)
    for k in range(n - 1, 0, -1):
        tails[k] = (conj[:, k, :, np.newaxis] * tails[k + 1][:, np.newaxis, :]).reshape(s, -1)
    return tails


def batch_overlap(t: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """<phi_s|psi> for each row of (S, n, 2) factors against a (1 or S, 2**n)
    state batch: (S,)."""
    for k in range(factors.shape[1]):
        t = contract_leading(t, factors[:, k])
    return t[:, 0]


def batch_environment(t: np.ndarray, factors: np.ndarray, k: int) -> np.ndarray:
    """Environment (S, 2) of qubit k: the state contracted with every factor
    of each row of (S, n, 2) ``factors`` except factor k."""
    for j in range(k):
        t = contract_leading(t, factors[:, j])
    return contract_tail(t, tail_products(factors[:, k:])[1])


def overlap(psi: PureState, phi: ProductState) -> complex:
    """Inner product <phi_1 x ... x phi_n | psi>.

    Conjugation sits on the product (bra) side, so scaling a factor by a
    complex c scales the result by conj(c); for the real-plane states used in
    the maximization this distinction vanishes.
    """
    _check_same_size(psi, phi)
    return complex(batch_overlap(psi.amplitudes[np.newaxis], phi.factor_matrix()[np.newaxis])[0])


def environment_vector(psi: PureState, phi: ProductState, k: int) -> np.ndarray:
    """Contraction of psi with every factor of phi except qubit k.

    Returns the pair v = (v0, v1) with the defining identity
    ``overlap(psi, phi with factor k replaced by e) == <e|v>`` for any
    single-qubit e.  Its normalization is the exact single-factor optimum of
    the overlap magnitude, which is what the alternating solver exploits.
    """
    _check_same_size(psi, phi)
    n = phi.n_qubits
    if not 0 <= k < n:
        raise ValueError(f"k: qubit index {k!r} outside [0, {n})")
    return batch_environment(psi.amplitudes[np.newaxis], phi.factor_matrix()[np.newaxis], k)[0]


def real_angles_to_product(angles: RealAngles) -> ProductState:
    """cos(theta_i)|0> + sin(theta_i)|1> for each angle."""
    return ProductState(
        tuple(SingleQubitState(math.cos(t), math.sin(t)) for t in angles.thetas)
    )


def schmidt_pmax_2qubit(psi: PureState) -> float:
    """Largest squared Schmidt coefficient of a 2-qubit state.

    Independent of any iterative solver: the best product-state overlap of a
    bipartite pure state is the top singular value of the reshaped 2x2
    amplitude matrix, whose square :func:`_top_schmidt_sq` reads off the
    matrix's rows.
    """
    if psi.n_qubits != 2:
        raise ValueError(f"psi: expected 2 qubits, got {psi.n_qubits}")
    a, b = psi.amplitudes[:2], psi.amplitudes[2:]
    c = complex(np.vdot(a, b))
    return float(_top_schmidt_sq(np.vdot(a, a).real, np.vdot(b, b).real, c.real**2 + c.imag**2))


def _top_schmidt_sq(p, q, cross_sq):
    """Top eigenvalue of the Hermitian 2x2 matrix [[p, x], [conj(x), q]],
    given ``cross_sq`` = |x|**2: (p + q) / 2 + sqrt(((p - q) / 2)**2 + |x|**2).

    With p and q the squared norms of a 2x2 matrix's rows and x their inner
    product, this is the matrix's largest squared singular value, the top
    squared Schmidt coefficient of the two qubits it holds.  Takes floats
    or arrays of one shape.  It rounds six times (the scalings by 0.5 and
    0.25 are exact), besides the roundings that formed ``cross_sq``.
    """
    return 0.5 * (p + q) + np.sqrt(0.25 * (p - q) ** 2 + cross_sq)


def permute_qubits(psi: PureState, perm: Sequence[int]) -> PureState:
    """Relabel qubits: new qubit i is the original qubit perm[i]."""
    n = psi.n_qubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm: {perm!r} is not a permutation of 0..{n - 1}")
    return PureState(psi.tensor().transpose(perm).reshape(-1))


def apply_single_qubit_unitary(psi: PureState, k: int, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to qubit k."""
    n = psi.n_qubits
    if not 0 <= k < n:
        raise ValueError(f"k: qubit index {k!r} outside [0, {n})")
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"u: expected a 2x2 matrix, got shape {u.shape}")
    t = np.tensordot(u, psi.tensor(), axes=([1], [k]))
    return PureState(np.moveaxis(t, 0, k).reshape(-1))


def random_state(n: int, rng: np.random.Generator, real: bool = False) -> PureState:
    """Normalized Gaussian random state (Haar-distributed when complex)."""
    _check_n(n, "random_state")
    z = rng.normal(size=2**n)
    if not real:
        z = z + 1j * rng.normal(size=2**n)
    return PureState.normalized(z)


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR with the standard phase fix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ----------------------------------------------------------------------------
# State file format
# ----------------------------------------------------------------------------
# JSON schema: {"n": <int>, "amplitudes": [[re, im], ...]} with exactly 2**n
# entries, index order as in the module docstring.

def state_to_dict(psi: PureState) -> dict:
    return {
        "n": psi.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def state_from_dict(data: dict, normalize: bool = False) -> PureState:
    """Parse the JSON state schema; rejects malformed shapes and, unless
    ``normalize`` is set, squared norms further than ``FILE_NORM_TOL`` from 1."""
    if not isinstance(data, dict):
        raise ValueError("state file: top level must be an object")
    try:
        n = data["n"]
        entries = data["amplitudes"]
    except (KeyError, TypeError):
        raise ValueError('state file: required keys are "n" and "amplitudes"') from None
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"state file: n must be a positive integer, got {n!r}")
    _check_n(n, "state file")  # before any 2**n
    if not isinstance(entries, list) or len(entries) != 2**n:
        raise ValueError(
            f"state file: expected {2**n} amplitude entries for n={n}, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    amps = np.empty(2**n, dtype=np.complex128)
    for i, entry in enumerate(entries):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise ValueError(f"state file: amplitudes[{i}] must be a [re, im] pair")
        try:
            amps[i] = complex(entry[0], entry[1])
        except OverflowError:  # an int beyond float range, refused below
            amps[i] = math.inf
    if not np.all(np.isfinite(amps.view(np.float64))):
        raise ValueError("state file: amplitudes must be finite")
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > FILE_NORM_TOL and not normalize:
        raise NormalizationError(
            f"state file: squared norm {norm_sq!r} is off unity by more than "
            f"{FILE_NORM_TOL}; pass --normalize to renormalize"
        )
    return PureState.normalized(amps)


def save_state_json(psi: PureState, path: str | Path) -> None:
    Path(path).write_text(json.dumps(state_to_dict(psi)) + "\n")


def load_state_json(path: str | Path, normalize: bool = False) -> PureState:
    data = json.loads(Path(path).read_text())
    return state_from_dict(data, normalize=normalize)


def _check_same_size(psi: PureState, phi: ProductState) -> None:
    if psi.n_qubits != phi.n_qubits:
        raise ValueError(
            f"dimension mismatch: state has {psi.n_qubits} qubits, "
            f"product ansatz has {phi.n_qubits}"
        )
