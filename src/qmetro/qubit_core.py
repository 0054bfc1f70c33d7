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
from functools import cached_property, lru_cache, wraps

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
    "ptm_from_kraus",
    "ptm_derivative_from_kraus",
    "choi_from_ptm",
    "validate_cptp",
    "require_cptp",
    "apply_kraus",
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
# _CHOI_BASIS[(i, j), (a, c, b, d)] = (sigma_i kron sigma_j^T)[(a, c), (b, d)] / 2
_CHOI_BASIS = np.einsum("iab,jdc->ijacbd", PAULIS, PAULIS).reshape(16, 16) / 2.0


class ValidationError(ValueError):
    """An input failed a structural validity check (shape, Hermiticity, CPTP)."""


class DomainError(ValueError):
    """An input is structurally fine but outside an operation's domain."""


def _overflow_is_domain_error(fn):
    """``fn`` raising :class:`DomainError` on numpy overflow, division by zero or an int too big for a float."""

    @wraps(fn)
    def run(*args, **kwargs):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except ArithmeticError as exc:  # FloatingPointError and OverflowError
            raise DomainError(f"{exc} in {fn.__name__}: the inputs overflow") from exc

    return run


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
# Least squares over Hermitian matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _herm_basis(r: int) -> np.ndarray:
    """Real basis of the r x r Hermitian matrices, shape ``(r*r, r, r)``, read-only.

    Diagonal units first, then ``E_ij + E_ji`` and ``i E_ij - i E_ji`` over
    the strict upper triangle.
    """
    iu, ju = np.triu_indices(r, 1)
    off = r + np.arange(len(iu))
    basis = np.zeros((r * r, r, r), dtype=complex)
    basis[np.arange(r), np.arange(r), np.arange(r)] = 1.0
    basis[off, iu, ju] = basis[off, ju, iu] = 1.0
    basis[off + len(iu), iu, ju] = 1j
    basis[off + len(iu), ju, iu] = -1j
    basis.flags.writeable = False
    return basis


def _herm_lstsq(images: np.ndarray, y: np.ndarray, cut: float):
    """``(min ||A(h) + y||^2, h, rank)`` over Hermitian ``h`` for a real-linear map ``A``.

    ``images[p]`` is ``A(_herm_basis(r)[p])``, a complex array shaped like ``y``;
    the norm is Frobenius.  The SVD of the real design keeps singular values above
    ``cut`` times the largest, and ``h`` is the minimum-norm solution in
    ``_herm_basis`` coordinates.
    """
    design = images.reshape(len(images), -1)
    y = y.reshape(-1)
    a_real = np.concatenate([design.real, design.imag], axis=1).T
    y_real = np.concatenate([y.real, y.imag])
    u, sv, vt = np.linalg.svd(a_real, full_matrices=False)
    # the cut drops noise directions of a (nearly) rank-deficient design;
    # the residual is y's part outside the kept columns of u, because
    # a_real @ x + y_real cancels the 1/sv growth of x only to roundoff
    keep = sv > cut * sv[0]
    coeffs = u[:, keep].T @ y_real
    resid = y_real - u[:, keep] @ coeffs
    x = -vt[keep].T @ (coeffs / sv[keep])
    h = np.tensordot(x, _herm_basis(math.isqrt(len(images))), 1)
    return float(resid @ resid), h, int(keep.sum())


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

    ``validated=True`` means CPTP by construction (Kraus-built, a rotation, or
    a composition of these), so consumers skip the CPTP check; any other map
    goes through :func:`require_cptp`.  ``t`` and ``T`` are read-only copies.
    """

    t: np.ndarray
    T: np.ndarray
    validated: bool = False

    def __post_init__(self):
        t = np.array(self.t, dtype=float).reshape(3)
        T = np.array(self.T, dtype=float).reshape(3, 3)
        if not all(map(math.isfinite, [*t.tolist(), *T.ravel().tolist()])):
            raise ValidationError("Pauli transfer map has non-finite entries")
        t.flags.writeable = T.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "T", T)

    @cached_property
    def _cptp(self) -> "CptpReport":
        """The Choi check of this map, run on first use only."""
        return validate_cptp(choi_from_ptm(self))

    def apply_bloch(self, v: np.ndarray) -> np.ndarray:
        return self.t + self.T @ np.asarray(v, dtype=float)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The real 4x4 map ``[[1, 0], [t, T]]`` on Pauli coordinates, built once, read-only."""
        m = np.eye(4)
        m[1:, 0], m[1:, 1:] = self.t, self.T
        m.flags.writeable = False
        return m

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The singular values of ``T`` in descending order, computed once, read-only."""
        s = np.linalg.svd(self.T, compute_uv=False)
        s.flags.writeable = False
        return s

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
    """Kraus operators of a trace-preserving channel (dimension 2 or 4), stacked once into
    the read-only ``(r, d, d)`` array ``ops``."""

    ops: np.ndarray

    def __init__(self, ops):
        mats = [np.asarray(op, dtype=complex) for op in ops]
        if not mats:
            raise ValidationError("KrausSet needs at least one operator")
        dim = mats[0].shape[0]
        if dim not in (2, 4) or any(m.shape != (dim, dim) for m in mats):
            raise ValidationError("Kraus operators must all be 2x2 or all 4x4")
        stack = np.array(mats)
        total = (np.swapaxes(stack.conj(), 1, 2) @ stack).sum(0)
        # the one trace-preservation test; "not <=" also rejects a nan residual
        if not np.linalg.norm(total - np.eye(dim)) <= 1e-10:
            raise ValidationError("sum_i K_i^dag K_i deviates from identity beyond 1e-10")
        stack.flags.writeable = False
        object.__setattr__(self, "ops", stack)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]


@dataclass(frozen=True)
class CptpReport:
    is_cp: bool
    is_tp: bool
    min_eigenvalue: float
    tp_residual: float


# ---------------------------------------------------------------------------
# Pauli coordinates
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


# ---------------------------------------------------------------------------
# Channel representations
# ---------------------------------------------------------------------------


def apply_kraus(ops, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def pauli_sandwich(left, right) -> np.ndarray:
    """``M_ij = sum_k Tr(sigma_i L_k sigma_j R_k^dag)`` over paired 2x2 operators.

    ``left`` and ``right`` are one 2x2 operator, equally long sequences of
    them, or equally shaped stacks ``(..., r, 2, 2)`` of such sequences, which
    give one 4x4 ``M`` each.  With ``L = R = K`` the Kraus operators of a
    channel ``E``, ``M_ij = Tr(sigma_i E(sigma_j))``, twice its 4x4 Pauli
    transfer matrix.
    """
    left, right = (np.asarray(ops, dtype=complex) for ops in (left, right))
    if left.shape[-2:] != (2, 2) or left.shape != right.shape:
        raise ValidationError("pauli_sandwich expects paired 2x2 operators")
    lead = left.shape[:-3]
    outer = np.swapaxes(left.reshape(lead + (-1, 4)), -1, -2) @ right.reshape(lead + (-1, 4)).conj()
    return (_SANDWICH @ outer.reshape(lead + (16, 1))).reshape(lead + (4, 4))


def ptm_from_kraus(ks: KrausSet) -> PauliTransferMap:
    """Pauli transfer map ``t_i = Tr(sigma_i E(I))/2``, ``T_ij = Tr(sigma_i E(sigma_j))/2``.

    A Kraus set is CP by form and TP by its constructor, so the map is ``validated``.
    """
    m = pauli_sandwich(ks.ops, ks.ops).real / 2.0
    return PauliTransferMap(m[1:, 0], m[1:, 1:], validated=True)


def ptm_derivative_from_kraus(k_ops, dk_ops) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dt, dT) of the Pauli transfer map of a one-parameter channel.

    ``k_ops`` and ``dk_ops`` are the stacked ``K_i`` and ``dK_i`` at the true
    parameter value; the 4x4 derivative is ``(M(dK, K) + M(K, dK))/2 = Re M(dK, K)``.
    """
    m = pauli_sandwich(dk_ops, k_ops).real
    return m[1:, 0], m[1:, 1:]


def choi_from_ptm(ptm: PauliTransferMap) -> np.ndarray:
    """Choi matrix ``sum_ij R_ij sigma_i kron sigma_j^T / 2`` of the 4x4 map ``R``."""
    return (ptm.matrix.ravel() @ _CHOI_BASIS).reshape(4, 4)


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
    min_eig = float(np.linalg.eigvalsh(choi)[0])  # eigenvalues come in ascending order
    residual = choi.reshape(d, d, d, d).trace(axis1=0, axis2=2) - np.eye(d)
    tp_residual = math.sqrt(np.vdot(residual, residual).real)  # the Frobenius norm
    return CptpReport(
        is_cp=min_eig >= -PSD_ATOL,
        is_tp=tp_residual <= 1e-10,
        min_eigenvalue=min_eig,
        tp_residual=tp_residual,
    )


def require_cptp(ptm: PauliTransferMap) -> None:
    """Raise :class:`ValidationError` unless ``ptm`` is CPTP; checks each map's Choi matrix once."""
    report = ptm._cptp
    if not (report.is_cp and report.is_tp):
        raise ValidationError(
            f"map is not CPTP (min Choi eigenvalue {report.min_eigenvalue:.3e}, "
            f"TP residual {report.tp_residual:.3e})"
        )


def _up_sweep(e: np.ndarray) -> list:
    """The levels of the pairwise product of the steps ``I + e_k`` of an (n, d, d) ``e``, n >= 1.

    Level 0 is ``e``; each next level composes neighbours in offset form,
    ``(I + b)(I + a) - I = a + b + b a`` with ``a`` applied first, and carries an
    odd last entry up unchanged, so the last level holds the offset of the whole
    product ``(I + e_n) ... (I + e_1) - I``.  That is log2 n batched products,
    each rounded against ``|e|`` rather than against the identity (as in
    :func:`qmetro.protocols._advance`).
    """
    levels = [e]
    while len(levels[-1]) > 1:
        lower = levels[-1]
        a, b = lower[0:-1:2], lower[1::2]
        up = a + b + b @ a
        levels.append(np.concatenate([up, lower[-1:]]) if len(lower) % 2 else up)
    return levels


def _down_sweep(levels: list) -> np.ndarray:
    """The offsets of every prefix product ``(I + e_k) ... (I + e_1) - I``, k = 1..n, from the
    levels of :func:`_up_sweep`.

    A right child (or a carried entry) ends where its parent ends, so it takes the parent's
    prefix as it is; a left child takes the prefix of its parent's left neighbour times itself.
    The last prefix is therefore the product's own offset, bit for bit.
    """
    prefix = levels[-1]
    for lower in reversed(levels[:-1]):
        pairs = len(lower) // 2
        out = np.empty(lower.shape, lower.dtype)
        out[1 : 2 * pairs : 2] = prefix[:pairs]
        out[0] = lower[0]
        before, left = prefix[: pairs - 1], lower[2 : 2 * pairs : 2]
        out[2 : 2 * pairs : 2] = before + left + left @ before
        if len(lower) % 2:
            out[-1] = prefix[-1]
        prefix = out
    return prefix
