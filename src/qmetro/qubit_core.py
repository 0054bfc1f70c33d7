"""Complex linear algebra for qubit (and two-qubit) channels.

Conventions used throughout the package:

* Hermitian operators are plain complex ``numpy`` arrays, validated with
  :func:`require_hermitian` where an interface demands it.
* Bloch vectors ``v`` satisfy ``rho = (I + v . sigma)/2``.
* The Pauli transfer map of a channel ``E`` is the affine pair ``(t, T)``
  acting on Bloch vectors as ``v -> t + T v``, with
  ``t_i = Tr(sigma_i E(I))/2`` and ``T_ij = Tr(sigma_i E(sigma_j))/2``.
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
    "bloch_to_density",
    "density_to_bloch",
    "ptm_from_kraus",
    "ptm_derivative_from_kraus",
    "choi_from_kraus",
    "choi_from_ptm",
    "kraus_from_choi",
    "kraus_from_ptm",
    "validate_cptp",
    "apply_kraus",
    "trace_norm",
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


def trace_norm(op: np.ndarray) -> float:
    """Trace norm (sum of singular values)."""
    return float(np.linalg.svd(np.asarray(op), compute_uv=False).sum())


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
        if np.linalg.norm(v) > 1.0 + 1e-10:
            raise ValidationError(f"Bloch vector has norm {np.linalg.norm(v):.12g} > 1")
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
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "T", T)

    @property
    def is_unital(self) -> bool:
        return bool(np.linalg.norm(self.t) <= 1e-12)

    def apply_bloch(self, v: np.ndarray) -> np.ndarray:
        return self.t + self.T @ np.asarray(v, dtype=float)

    def apply_hermitian(self, op: np.ndarray) -> np.ndarray:
        """Channel action on a Hermitian 2x2 operator (trace is preserved)."""
        c = pauli_decompose(op)
        out = np.empty(4)
        out[0] = c[0]
        out[1:] = c[0] * self.t + self.T @ c[1:]
        return pauli_compose(out)

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
    return np.array([np.trace(op @ s).real for s in PAULIS])


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


def ptm_from_kraus(ks: KrausSet) -> PauliTransferMap:
    """Pauli transfer map ``t_i = Tr(sigma_i E(I))/2``, ``T_ij = Tr(sigma_i E(sigma_j))/2``."""
    if ks.dim != 2:
        raise ValidationError("ptm_from_kraus expects a qubit Kraus set")
    e_id = apply_kraus(ks.ops, I2)
    t = np.array([np.trace(s @ e_id).real / 2.0 for s in SIGMA])
    T = np.empty((3, 3))
    for j, sj in enumerate(SIGMA):
        out = apply_kraus(ks.ops, sj)
        for i, si in enumerate(SIGMA):
            T[i, j] = np.trace(si @ out).real / 2.0
    choi = choi_from_kraus(ks)
    validated = bool(np.linalg.eigvalsh(choi).min() >= -PSD_ATOL)
    return PauliTransferMap(t, T, validated=validated)


def ptm_derivative_from_kraus(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dt, dT) of the Pauli transfer map of a one-parameter channel.

    ``pairs`` is an iterable of ``(K_i, dK_i)`` at the true parameter value.
    """
    pairs = [(np.asarray(k, dtype=complex), np.asarray(dk, dtype=complex)) for k, dk in pairs]

    def dE(a):
        return sum(dk @ a @ k.conj().T + k @ a @ dk.conj().T for k, dk in pairs)

    dt = np.array([np.trace(s @ dE(I2)).real / 2.0 for s in SIGMA])
    dT = np.empty((3, 3))
    for j, sj in enumerate(SIGMA):
        out = dE(sj)
        for i, si in enumerate(SIGMA):
            dT[i, j] = np.trace(si @ out).real / 2.0
    return dt, dT


def choi_from_kraus(ks: KrausSet) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_i vec(K_i) vec(K_i)^dag`` (row-major vec)."""
    d = ks.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ks.ops:
        v = np.asarray(k).reshape(-1)
        out += np.outer(v, v.conj())
    return out


def choi_from_ptm(ptm: PauliTransferMap) -> np.ndarray:
    """Choi matrix of the qubit channel described by an affine Bloch map."""
    e_id = I2 + ptm.t[0] * X + ptm.t[1] * Y + ptm.t[2] * Z
    out = np.kron(e_id, I2)
    for k, sk in enumerate(SIGMA):
        col = ptm.T[:, k]
        e_sk = col[0] * X + col[1] * Y + col[2] * Z
        out += np.kron(e_sk, sk.T)
    return out / 2.0


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
