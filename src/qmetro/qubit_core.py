"""Complex linear algebra for qubit (and two-qubit) channels.

Conventions used throughout the package:

* Hermitian operators are plain complex ``numpy`` arrays, validated with
  :func:`require_hermitian` where an interface demands it.
* Bloch vectors ``v`` satisfy ``rho = (I + v . sigma)/2``.
* The Pauli transfer map of a channel ``E`` is the affine pair ``(t, T)``
  acting on Bloch vectors as ``v -> t + T v``, with
  ``t_i = Tr(sigma_i E(I))/2`` and ``T_ij = Tr(sigma_i E(sigma_j))/2``.
  On the Pauli coordinates ``c_j = Tr(sigma_j A)`` of a Hermitian ``A``
  (``sigma_0 = I``) the channel is the real 4x4 matrix ``[[1, 0], [t, T]]``;
  every conversion reads its entries from :func:`pauli_sandwich`.
* Choi matrices use the unnormalized maximally entangled input
  ``|Omega> = sum_j |j>|j>`` (trace d for a trace-preserving channel on
  dimension d).  Both conventions appear in the literature; this one makes
  ``Choi = sum_i vec(K_i) vec(K_i)^dag`` with row-major ``vec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "I2",
    "X",
    "Y",
    "Z",
    "PAULIS",
    "SIGMA",
    "ValidationError",
    "DomainError",
    "BlochState",
    "DensityState",
    "PauliTransferMap",
    "KrausSet",
    "CptpReport",
    "require_hermitian",
    "pauli_decompose",
    "pauli_compose",
    "pauli_sandwich",
    "bloch_to_density",
    "density_to_bloch",
    "ptm_from_kraus",
    "ptm_derivative_from_kraus",
    "choi_from_kraus",
    "choi_from_ptm",
    "kraus_from_choi",
    "kraus_from_ptm",
    "validate_cptp",
    "require_cptp",
    "apply_kraus",
    "random_cptp_kraus",
    "random_unitary",
    "random_rotation",
    "random_unital_ptm",
]

HERM_ATOL = 1e-12
PSD_ATOL = 1e-9

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (I2, X, Y, Z)
SIGMA = (X, Y, Z)
# _SANDWICH[(i, j), (b, c, a, d)] = sigma_i[a, b] sigma_j[c, d]
_SANDWICH = np.einsum("iab,jcd->ijbcad", PAULIS, PAULIS).reshape(16, 16)
# _CHOI_BASIS[(i, j), (a, c, b, d)] = (sigma_i kron sigma_j^T)[(a, c), (b, d)]
_CHOI_BASIS = np.einsum("iab,jdc->ijacbd", PAULIS, PAULIS).reshape(16, 16)


class ValidationError(ValueError):
    """An input failed a structural validity check (shape, Hermiticity, CPTP)."""


class DomainError(ValueError):
    """An input is structurally fine but outside an operation's domain."""


def require_hermitian(op: np.ndarray, atol: float = HERM_ATOL, name: str = "operator") -> np.ndarray:
    """Return ``op`` as a complex array after checking it is finite and Hermitian."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {op.shape}")
    # a nan entry would pass the Hermiticity test below, since nan > atol is False
    if not np.isfinite(op).all():
        raise ValidationError(f"{name} has non-finite entries")
    if np.abs(op - op.conj().T).max() > atol:
        raise ValidationError(f"{name} is not Hermitian within {atol:g}")
    return op


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlochState:
    """A qubit state and its parameter derivative as real 3-vectors (v, dv)."""

    v: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).reshape(3)
        dv = np.asarray(self.dv, dtype=float).reshape(3)
        norm = math.hypot(*v.tolist())  # nan or inf when an entry is; nan > 1 is False
        if not (math.isfinite(norm) and all(map(math.isfinite, dv.tolist()))):
            raise ValidationError("Bloch vector or derivative has non-finite entries")
        if norm > 1.0 + 1e-10:
            raise ValidationError(f"Bloch vector has norm {norm:.12g} > 1")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dv", dv)


@dataclass(frozen=True)
class DensityState:
    """A density matrix and its parameter derivative at the true value.

    ``rho`` must be PSD with unit trace; ``drho`` Hermitian and traceless.
    """

    rho: np.ndarray
    drho: np.ndarray

    def __post_init__(self):
        rho = require_hermitian(self.rho, name="rho")
        drho = require_hermitian(self.drho, name="drho")
        if rho.shape != drho.shape or rho.shape[0] not in (2, 4):
            raise ValidationError(f"rho/drho must both be 2x2 or 4x4, got {rho.shape}, {drho.shape}")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValidationError("rho has an eigenvalue below -1e-10")
        if abs(np.trace(rho).real - 1.0) > HERM_ATOL:
            raise ValidationError("rho is not unit trace")
        if abs(np.trace(drho)) > HERM_ATOL:
            raise ValidationError("drho is not traceless")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "drho", drho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class PauliTransferMap:
    """Affine Bloch-vector action (t, T) of a qubit channel.

    ``validated=True`` asserts the reconstructed Choi matrix was found PSD.
    """

    t: np.ndarray
    T: np.ndarray
    validated: bool = False

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(3)
        T = np.asarray(self.T, dtype=float).reshape(3, 3)
        if not all(map(math.isfinite, [*t.tolist(), *T.ravel().tolist()])):
            raise ValidationError("Pauli transfer map has non-finite entries")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "T", T)

    @property
    def is_unital(self) -> bool:
        return bool(np.linalg.norm(self.t) <= 1e-12)

    def apply_bloch(self, v: np.ndarray) -> np.ndarray:
        return self.t + self.T @ np.asarray(v, dtype=float)

    @property
    def matrix(self) -> np.ndarray:
        """The real 4x4 map ``[[1, 0], [t, T]]`` on Pauli coordinates."""
        m = np.eye(4)
        m[1:, 0], m[1:, 1:] = self.t, self.T
        return m

    def apply_hermitian(self, op: np.ndarray) -> np.ndarray:
        """Channel action on a Hermitian 2x2 operator (trace is preserved)."""
        return pauli_compose(self.matrix @ pauli_decompose(op))

    def compose(self, first: "PauliTransferMap") -> "PauliTransferMap":
        """Map of ``self`` applied after ``first``."""
        return PauliTransferMap(
            self.t + self.T @ first.t,
            self.T @ first.T,
            validated=self.validated and first.validated,
        )

    @staticmethod
    def identity() -> "PauliTransferMap":
        return PauliTransferMap(np.zeros(3), np.eye(3), validated=True)


@dataclass(frozen=True, init=False)
class KrausSet:
    """Kraus operators of a trace-preserving channel (dimension 2 or 4)."""

    ops: tuple

    def __init__(self, ops):
        mats = tuple(np.asarray(op, dtype=complex) for op in ops)
        if not mats:
            raise ValidationError("KrausSet needs at least one operator")
        dim = mats[0].shape[0]
        if dim not in (2, 4) or any(m.shape != (dim, dim) for m in mats):
            raise ValidationError("Kraus operators must all be 2x2 or all 4x4")
        total = sum(m.conj().T @ m for m in mats)
        if np.linalg.norm(total - np.eye(dim)) > 1e-10:
            raise ValidationError("sum_i K_i^dag K_i deviates from identity beyond 1e-10")
        object.__setattr__(self, "ops", mats)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)


@dataclass(frozen=True)
class CptpReport:
    is_cp: bool
    is_tp: bool
    min_eigenvalue: float
    tp_residual: float


# ---------------------------------------------------------------------------
# Pauli and Bloch conversions
# ---------------------------------------------------------------------------


def pauli_decompose(op: np.ndarray) -> np.ndarray:
    """Coefficients ``c_j = Tr(op sigma_j)`` so that ``op = sum_j c_j sigma_j / 2``.

    Requires a Hermitian 2x2 input; the coefficients are then real.
    """
    op = require_hermitian(op, name="operator")
    if op.shape != (2, 2):
        raise ValidationError("pauli_decompose expects a 2x2 operator")
    return pauli_sandwich(op, I2)[:, 0].real  # M(op, I)_j0 = Tr(sigma_j op)


def pauli_compose(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`: ``sum_j c_j sigma_j / 2``."""
    c = np.asarray(c, dtype=float).reshape(4)
    return (c[0] * I2 + c[1] * X + c[2] * Y + c[3] * Z) / 2.0


def bloch_to_density(b: BlochState) -> DensityState:
    """Lift (v, dv) to ``rho = (I + v.sigma)/2`` and ``drho = dv.sigma/2``."""
    if np.linalg.norm(b.v) > 1.0 + 1e-10:
        raise DomainError("Bloch vector outside the unit ball")
    rho = (I2 + b.v[0] * X + b.v[1] * Y + b.v[2] * Z) / 2.0
    drho = (b.dv[0] * X + b.dv[1] * Y + b.dv[2] * Z) / 2.0
    return DensityState(rho, drho)


def density_to_bloch(s: DensityState) -> BlochState:
    if s.dim != 2:
        raise ValidationError("density_to_bloch expects a qubit state")
    v = np.array([np.trace(s.rho @ p).real for p in SIGMA])
    dv = np.array([np.trace(s.drho @ p).real for p in SIGMA])
    return BlochState(v, dv)


# ---------------------------------------------------------------------------
# Channel representations
# ---------------------------------------------------------------------------


def apply_kraus(ops, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def pauli_sandwich(left, right) -> np.ndarray:
    """``M_ij = sum_k Tr(sigma_i L_k sigma_j R_k^dag)`` over paired 2x2 operators.

    ``left`` and ``right`` are one 2x2 operator or equally long sequences of
    them.  With ``L = R = K`` the Kraus operators of a channel ``E``,
    ``M_ij = Tr(sigma_i E(sigma_j))``, twice its 4x4 Pauli transfer matrix.
    """
    left, right = (np.asarray(ops, dtype=complex) for ops in (left, right))
    if left.shape[-2:] != (2, 2) or left.shape != right.shape:
        raise ValidationError("pauli_sandwich expects paired 2x2 operators")
    return (_SANDWICH @ (left.reshape(-1, 4).T @ right.reshape(-1, 4).conj()).ravel()).reshape(4, 4)


def ptm_from_kraus(ks: KrausSet) -> PauliTransferMap:
    """Pauli transfer map ``t_i = Tr(sigma_i E(I))/2``, ``T_ij = Tr(sigma_i E(sigma_j))/2``."""
    if ks.dim != 2:
        raise ValidationError("ptm_from_kraus expects a qubit Kraus set")
    m = pauli_sandwich(ks.ops, ks.ops).real / 2.0
    choi = choi_from_kraus(ks)
    validated = bool(np.linalg.eigvalsh(choi).min() >= -PSD_ATOL)
    return PauliTransferMap(m[1:, 0], m[1:, 1:], validated=validated)


def ptm_derivative_from_kraus(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dt, dT) of the Pauli transfer map of a one-parameter channel.

    ``pairs`` is an iterable of ``(K_i, dK_i)`` at the true parameter value;
    the 4x4 derivative is ``(M(dK, K) + M(K, dK))/2 = Re M(dK, K)``.
    """
    ks, dks = zip(*pairs)
    m = pauli_sandwich(dks, ks).real
    return m[1:, 0], m[1:, 1:]


def choi_from_kraus(ks: KrausSet) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_i vec(K_i) vec(K_i)^dag`` (row-major vec)."""
    v = np.reshape(ks.ops, (len(ks), -1))
    return v.T @ v.conj()


def choi_from_ptm(ptm: PauliTransferMap) -> np.ndarray:
    """Choi matrix ``sum_ij R_ij sigma_i kron sigma_j^T / 2`` of the 4x4 map ``R``."""
    return (ptm.matrix.ravel() @ _CHOI_BASIS).reshape(4, 4) / 2.0


def validate_cptp(choi: np.ndarray) -> CptpReport:
    """Check complete positivity and trace preservation of a Choi matrix.

    CP holds iff the Choi matrix is PSD (min eigenvalue >= -1e-9); TP holds iff
    the partial trace over the first (output) factor equals the identity.
    """
    choi = require_hermitian(choi, atol=1e-10, name="Choi matrix")
    d2 = choi.shape[0]
    d = int(round(math.sqrt(d2)))
    if d * d != d2:
        raise ValidationError("Choi matrix dimension is not a perfect square")
    min_eig = float(np.linalg.eigvalsh(choi).min())
    partial = np.trace(choi.reshape(d, d, d, d), axis1=0, axis2=2)
    tp_residual = float(np.linalg.norm(partial - np.eye(d)))
    return CptpReport(
        is_cp=min_eig >= -PSD_ATOL,
        is_tp=tp_residual <= 1e-10,
        min_eigenvalue=min_eig,
        tp_residual=tp_residual,
    )


def require_cptp(ptm: PauliTransferMap) -> None:
    """Validate the Choi matrix of ``ptm``; raise :class:`ValidationError` unless CPTP."""
    report = validate_cptp(choi_from_ptm(ptm))
    if not (report.is_cp and report.is_tp):
        raise ValidationError(
            f"map is not CPTP (min Choi eigenvalue {report.min_eigenvalue:.3e}, "
            f"TP residual {report.tp_residual:.3e})"
        )


def kraus_from_choi(choi: np.ndarray, tol: float = 1e-12) -> KrausSet:
    """Kraus operators from a PSD Choi matrix via eigendecomposition."""
    choi = require_hermitian(choi, atol=1e-10, name="Choi matrix")
    d = int(round(math.sqrt(choi.shape[0])))
    lam, vecs = np.linalg.eigh(choi)
    if lam.min() < -PSD_ATOL:
        raise ValidationError(f"Choi matrix is not PSD (min eigenvalue {lam.min():.3e})")
    ops = []
    for val, vec in zip(lam, vecs.T):
        if val > tol:
            ops.append(np.sqrt(val) * vec.reshape(d, d))
    return KrausSet(ops)


def kraus_from_ptm(ptm: PauliTransferMap) -> KrausSet:
    """Lift an affine Bloch map to Kraus operators (must be CPTP)."""
    return kraus_from_choi(choi_from_ptm(ptm))


# ---------------------------------------------------------------------------
# Random instances (exact CPTP by construction, for property tests and
# estimators)
# ---------------------------------------------------------------------------


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_kraus(rng: np.random.Generator, dim: int = 2, env: int = 4) -> KrausSet:
    """Random channel from a Haar-ish Stinespring isometry on an ``env``-level environment."""
    a = rng.normal(size=(dim * env, dim)) + 1j * rng.normal(size=(dim * env, dim))
    iso, _ = np.linalg.qr(a)
    blocks = iso.reshape(dim, env, dim)
    return KrausSet([blocks[:, e, :] for e in range(env)])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Random SO(3) matrix (Bloch action of a Haar-random qubit unitary)."""
    u = random_unitary(rng, 2)
    return ptm_from_kraus(KrausSet([u])).T


def random_unital_ptm(rng: np.random.Generator, mix: int = 2) -> PauliTransferMap:
    """Random unital qubit channel as a convex mixture of ``mix`` rotations."""
    weights = rng.dirichlet(np.ones(mix))
    T = sum(w * random_rotation(rng) for w in weights)
    return PauliTransferMap(np.zeros(3), T, validated=True)
