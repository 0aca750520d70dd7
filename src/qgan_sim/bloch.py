"""Exact single-qubit state and measurement algebra on the Bloch sphere.

Conventions, fixed once so every sign below is determined:

* ``|g>`` is the +z eigenstate of sigma_z, with Bloch vector (0, 0, 1).
* ``exp(i a sigma / 2) = cos(a/2) I + i sin(a/2) sigma`` for any Pauli axis.
* The pure-state axis reached from ``|g>`` by an x-rotation of theta followed
  by a z-rotation of phi is
  ``n(theta, phi) = (sin theta sin phi, sin theta cos phi, cos theta)``.

A state with Bloch vector v is ``rho = (I + v . sigma) / 2``.  Outcome
probabilities and trace distance reduce to closed forms in v; fidelity is
evaluated on the three independent matrix entries.  A ``DensityMatrix``
keeps those entries as scalars and derives its Bloch vector once, at
construction; the 2x2 ndarray is built only when ``.matrix`` is read (for
serialization and the test oracles).  Each object-API function validates
its arguments and then calls a plain-float kernel (``axis_xyz``,
``state_xyz``, ``_probability``, ``_fidelity``); the estimator's inner loop
calls the same kernels directly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cache
from numbers import Integral, Real
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "BlochVector",
    "DensityMatrix",
    "GeneratorParams",
    "MeasurementParams",
    "state_bloch",
    "pure_axis",
    "axis_xyz",
    "state_xyz",
    "generated_fidelity",
    "measurement_axis",
    "outcome_probability",
    "optimal_axis",
    "fidelity",
    "trace_distance",
    "random_true_state",
    "random_initial_params",
    "SIGMA_MODES",
]

# Tolerances pinned by the type contracts.
_BALL_TOL = 1e-12          # |v|^2 may exceed 1 by at most this much
_UNIT_TOL = 1e-9           # measurement axes must be unit within this
_TRACE_TOL = 1e-12
_EIG_TOL = 1e-12
_HERMITY_TOL = 1e-9
_SQRT_CLAMP = 1e-10        # negative sqrt arguments beyond this are an error

# Numbers within the bounds (low, high), which ``check`` holds them to, and X | None's types.
Unit = Annotated[float, (0, 1)]
Positive = Annotated[float, (0, None, "()")]
Count = Annotated[int, (1, None)]
Shots = Annotated[int, (1, 2**63 - 1)]  # numpy's binomial takes int64 counts
_UNIONS = (type(int | None), type(Count | None))  # typing.Union's when X is Annotated


class ConfigError(ValueError):
    """Config validation failure; carries the offending field name."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def check(field_name: str, value, kind):
    """``value`` read as ``kind``; a mismatch is a ConfigError naming ``field_name``.

    The one rule by which every module's config blocks and public helpers
    check their values, so it sits here, below them all.  ``int`` takes a
    numpy integer too, as an ``int``, and ``float`` any finite real number,
    as a ``float``; neither takes a bool.  An ``Annotated`` number has the
    bounds ``(low, high)`` or ``(low, high, ends)``: a ``high`` of None is no
    upper bound, and ``ends`` such as ``"(]"`` opens an end (both are closed
    when omitted).  A ``Literal`` takes its values, ``X | None`` None or an
    ``X``, and a class, such as ``bool`` or ``str``, its instances.
    """
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, Integral)):  # int first: fast
            raise ConfigError(field_name, f"expected an integer, got {value!r}")
        return int(value)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
            raise ConfigError(field_name, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the double range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(field_name, f"expected a finite number, got {value!r}")
        return number
    if isinstance(kind, type):  # a class, such as bool: before get_origin, which costs more
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            what = {bool: "a boolean", str: "a string"}.get(kind, f"{article} {kind.__name__}")
            raise ConfigError(field_name, f"expected {what}, got {value!r}")
        return value
    origin = get_origin(kind)
    if origin is Annotated:
        number, (bounds,) = check(field_name, value, kind.__origin__), kind.__metadata__
        low, high, ends = bounds if len(bounds) == 3 else (*bounds, "[]")
        above = low < number if ends[0] == "(" else low <= number
        below = high is None or (number < high if ends[1] == ")" else number <= high)
        if not (above and below):
            if high is None:
                within = f"{'more than' if ends[0] == '(' else 'at least'} {low}"
            else:
                within = f"a number in {ends[0]}{low}, {high}{ends[1]}"
            raise ConfigError(field_name, f"expected {within}, got {number!r}")
        return number
    if origin is Literal:
        if value not in get_args(kind):
            raise ConfigError(field_name, f"expected one of {get_args(kind)}, got {value!r}")
        return value
    if not optional(kind):
        raise AssertionError(kind)  # a kind with no rule here yet
    return None if value is None else check(field_name, value, kind.__args__[0])


def optional(kind) -> bool:
    """Whether ``kind`` is ``X | None`` (a ``typing.Union`` when X is ``Annotated``)."""
    return type(kind) in _UNIONS and type(None) in kind.__args__


@cache
def _kinds(cls) -> tuple[dict, frozenset]:
    """Dataclass ``cls``'s field kinds and the names of its fields without a default."""
    required = frozenset(f.name for f in fields(cls) if f.default is f.default_factory is MISSING)
    return get_type_hints(cls, include_extras=True), required


def check_fields(obj) -> None:
    """Store each field of dataclass ``obj`` as ``check`` reads it, past a frozen setattr."""
    values = vars(obj)
    for name, kind in _kinds(type(obj))[0].items():
        values[name] = check(name, values[name], kind)


@dataclass(frozen=True)
class BlochVector:
    """Dimensionless 3-vector inside the closed unit ball.

    Pure states sit on the sphere (norm 1), mixed states strictly inside,
    and the maximally mixed state at the origin.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"BlochVector.{name} must be finite")
        if self.norm_sq() > 1.0 + _BALL_TOL:
            raise ValueError(f"Bloch vector outside the unit ball: {self}")

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def is_pure(self) -> bool:
        return abs(self.norm() - 1.0) <= _BALL_TOL


@dataclass(frozen=True)
class GeneratorParams:
    """Generator strategy: mixing weight r and branch angles (theta, phi).

    The generated state is the two-member ensemble with probabilities
    {r, 1-r} on antipodal pure branches, so its Bloch vector is
    ``(2r - 1) n(theta, phi)``.  Angles are stored unwrapped; the physics is
    2*pi-periodic in phi, and (theta, phi) -> (pi - theta, phi + pi) swaps
    the two branches.
    """

    r: Unit
    theta: float
    phi: float

    __post_init__ = check_fields

    def __iter__(self):
        """Unpack as the flat floats ``r, theta, phi``."""
        return iter((self.r, self.theta, self.phi))


@dataclass(frozen=True)
class MeasurementParams:
    """Discriminator strategy: pre-rotation axis angles (beta, gamma)."""

    beta: float
    gamma: float

    __post_init__ = check_fields

    def __iter__(self):
        """Unpack as the flat floats ``beta, gamma``."""
        return iter((self.beta, self.gamma))


def _entries(x: float, y: float, z: float) -> tuple[float, complex, float]:
    # Top-left, top-right and bottom-right entries of (I + v . sigma) / 2.
    return 0.5 * (1.0 + z), 0.5 * (x - 1j * y), 0.5 * (1.0 - z)


class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite complex matrix.

    Hermiticity is enforced exactly by construction (the off-diagonal pair
    is symmetrized), the trace must equal 1 within 1e-12 and both
    eigenvalues must be >= -1e-12.  Only the entries ``(m00, m01, m11)`` are
    stored; ``m10`` is the conjugate of ``m01``.  The state never changes
    once built, so a reused state reads out as a fresh one.
    """

    __slots__ = ("_entries", "_bloch")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        off = 0.5 * (m[0, 1] + np.conj(m[1, 0]))
        herm = np.array(
            [[m[0, 0].real, off], [np.conj(off), m[1, 1].real]], dtype=complex
        )
        if not np.allclose(herm, m, atol=_HERMITY_TOL, rtol=0.0):
            raise ValueError("matrix is not Hermitian")
        trace = herm[0, 0].real + herm[1, 1].real
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        low = float(np.linalg.eigvalsh(herm)[0])
        if low < -_EIG_TOL:
            raise ValueError(f"matrix is not positive semidefinite (eigenvalue {low!r})")
        self._set(herm[0, 0].real, off, herm[1, 1].real)

    def _set(self, m00: float, m01: complex, m11: float) -> None:
        # Stored as plain Python numbers whatever the caller passed: numpy
        # scalars would ride into every estimate at several times the cost.
        m00, m01, m11 = float(m00), complex(m01), float(m11)
        self._entries = (m00, m01, m11)
        m10 = m01.conjugate()
        x = 2.0 * m10.real
        y = 2.0 * m10.imag
        z = m00 - m11
        nsq = x * x + y * y + z * z
        if nsq > 1.0 + _BALL_TOL:
            # PSD slack of 1e-12 can push |v| a hair past the ball; rescale.
            s = 1.0 / math.sqrt(nsq)
            x, y, z = x * s, y * s, z * s
        self._bloch = BlochVector(x, y, z)

    @classmethod
    def from_bloch(cls, v: BlochVector) -> "DensityMatrix":
        """Build (I + v . sigma) / 2 for a vector in the unit ball."""
        obj = object.__new__(cls)
        obj._set(*_entries(v.x, v.y, v.z))
        return obj

    @classmethod
    def pure_ground(cls) -> "DensityMatrix":
        return cls.from_bloch(BlochVector(0.0, 0.0, 1.0))

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls.from_bloch(BlochVector(0.0, 0.0, 0.0))

    @property
    def matrix(self) -> np.ndarray:
        m00, m01, m11 = self._entries
        m = np.array([[m00, m01], [m01.conjugate(), m11]], dtype=complex)
        m.setflags(write=False)
        return m

    def to_bloch(self) -> BlochVector:
        return self._bloch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        v = self._bloch
        return f"DensityMatrix(bloch=({v.x:.6g}, {v.y:.6g}, {v.z:.6g}))"


def axis_xyz(theta: float, phi: float) -> tuple[float, float, float]:
    """Components of n(theta, phi) as plain floats (see ``pure_axis``)."""
    st = math.sin(theta)
    return st * math.sin(phi), st * math.cos(phi), math.cos(theta)


def state_xyz(r: float, theta: float, phi: float) -> tuple[float, float, float]:
    """Components of ``(2r - 1) n(theta, phi)`` as plain floats (see ``state_bloch``)."""
    w = 2.0 * r - 1.0
    st = math.sin(theta)
    return w * (st * math.sin(phi)), w * (st * math.cos(phi)), w * math.cos(theta)


def pure_axis(theta: float, phi: float) -> BlochVector:
    """Unit Bloch vector n(theta, phi) = (sin t sin p, sin t cos p, cos t)."""
    return BlochVector(*axis_xyz(theta, phi))


def state_bloch(params: GeneratorParams) -> BlochVector:
    """Bloch vector of the generated ensemble state.

    Equals ``(2r - 1) n(theta, phi)``: the two ensemble branches are
    antipodal, so mixing them with weights {r, 1-r} contracts the branch
    axis toward the origin.
    """
    return BlochVector(*state_xyz(params.r, params.theta, params.phi))


def measurement_axis(params: MeasurementParams) -> BlochVector:
    """Unit axis of the projector the discriminator measures.

    Axis of the projector onto the rotated ground state, i.e.
    ``m(beta, gamma) = n(beta, gamma)``; the outcome probability on a state
    with Bloch vector v is (1 + m . v) / 2.
    """
    return pure_axis(params.beta, params.gamma)


def outcome_probability(m: BlochVector, v: BlochVector) -> float:
    """Ground-state detection probability (1 + m . v) / 2 = tr(M rho).

    Args:
        m: unit measurement axis (rejected if not unit within 1e-9).
        v: Bloch vector of the measured state.
    """
    if abs(m.norm() - 1.0) > _UNIT_TOL:
        raise ValueError(f"measurement axis must be a unit vector, |m| = {m.norm()!r}")
    return _probability(m.x, m.y, m.z, v.x, v.y, v.z)


def _probability(mx: float, my: float, mz: float, x: float, y: float, z: float) -> float:
    # (1 + m . v) / 2, clamped so tolerance slack still gives a probability.
    p = 0.5 * (1.0 + (mx * x + my * y + mz * z))
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def optimal_axis(v_rho: BlochVector, v_sigma: BlochVector) -> BlochVector:
    """Measurement axis maximizing the outcome difference between two states.

    The maximizer of (m . (v_rho - v_sigma)) / 2 over unit m is the
    normalized difference vector, where the maximum equals the trace
    distance.  For identical states any axis is optimal; (0, 0, 1) is
    returned by convention.
    """
    dx = v_rho.x - v_sigma.x
    dy = v_rho.y - v_sigma.y
    dz = v_rho.z - v_sigma.z
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm == 0.0:
        return BlochVector(0.0, 0.0, 1.0)
    return BlochVector(dx / norm, dy / norm, dz / norm)


def _clamped_sqrt(value: float) -> float:
    if value < -_SQRT_CLAMP:
        raise ValueError(f"negative value under square root: {value!r}")
    return math.sqrt(max(value, 0.0))


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)).

    Uses the qubit closed form ``sqrt(tr(ab) + 2 sqrt(det a * det b))``,
    which the test suite cross-checks against an eigendecomposition of the
    defining expression.
    """
    return _fidelity(a._entries, b._entries)


def generated_fidelity(sigma: DensityMatrix, r: float, theta: float, phi: float) -> float:
    """``fidelity(sigma, rho)`` for the generated state with parameters
    (r, theta, phi), bit-identical to building rho through ``state_bloch``
    and ``DensityMatrix.from_bloch`` but without the intermediate objects."""
    return _fidelity(sigma._entries, _entries(*state_xyz(r, theta, phi)))


def _det(e: tuple[float, complex, float]) -> float:
    # Entry tuples are (m00, m01, m11) with m10 = conj(m01).
    m00, m01, m11 = e
    return (m00 * m11 - m01 * m01.conjugate()).real


def _fidelity(a: tuple[float, complex, float], b: tuple[float, complex, float]) -> float:
    # tr(ab) + 2 sqrt(det a det b) in scalar complex arithmetic.
    a00, a01, a11 = a
    b00, b01, b11 = b
    cross = ((a00 * b00 + a01 * b01.conjugate()) + (a01.conjugate() * b01 + a11 * b11)).real
    inner = cross + 2.0 * _clamped_sqrt(_det(a) * _det(b))
    return min(_clamped_sqrt(inner), 1.0)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Normalized trace distance, half the Euclidean Bloch distance."""
    va = a.to_bloch()
    vb = b.to_bloch()
    dx = va.x - vb.x
    dy = va.y - vb.y
    dz = va.z - vb.z
    return 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)


SIGMA_MODES = ("pure-ground", "bloch-ball", "fixed", "hilbert-schmidt")


def random_true_state(
    mode: str,
    rng: np.random.Generator | None = None,
    bloch=None,
) -> DensityMatrix:
    """Synthesize the true-data state the generator has to replicate.

    Modes:
        pure-ground: the ground state itself.
        bloch-ball:  Bloch vector uniform in the unit ball (the default
                     mixed-state measure; radius CDF is r^3).
        fixed:       the state with the given Bloch vector (``bloch=``).
        hilbert-schmidt: Ginibre-induced Hilbert-Schmidt measure; optional
                     alternative to bloch-ball, off unless asked for.
    """
    mode = check("mode", mode, Literal[SIGMA_MODES])
    if mode == "pure-ground":
        return DensityMatrix.pure_ground()
    if mode == "fixed":
        if bloch is None:
            raise ValueError("fixed mode requires a Bloch vector")
        return DensityMatrix.from_bloch(BlochVector(*(float(c) for c in bloch)))
    if rng is None:
        raise ValueError(f"mode {mode!r} requires a random generator")
    if mode == "bloch-ball":
        direction = rng.standard_normal(3)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:  # measure-zero, but keep the draw well defined
            direction = rng.standard_normal(3)
            norm = float(np.linalg.norm(direction))
        radius = float(rng.uniform(0.0, 1.0)) ** (1.0 / 3.0)
        v = direction * (radius / norm)
        return DensityMatrix.from_bloch(BlochVector(v[0], v[1], v[2]))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))  # hilbert-schmidt
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_initial_params(rng: np.random.Generator) -> tuple[float, float, float, float, float]:
    """Random opening strategies for both players, as the flat tuple
    (r, theta, phi, beta, gamma) the game carries.

    Draw order is fixed (r, theta, phi, beta, gamma) so seeded runs are
    reproducible: r ~ U[0,1], theta, beta ~ U[0,pi], phi, gamma ~ U[0,2pi).
    """
    pi, two_pi = math.pi, 2.0 * math.pi
    return tuple(float(rng.uniform(0.0, high)) for high in (1.0, pi, two_pi, pi, two_pi))
