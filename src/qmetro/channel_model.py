"""One-parameter qubit channel families and their structural conditions.

A one-parameter qubit channel is held as its Kraus pairs ``(K_i, dK_i)`` at
the true parameter value, stacked once into two arrays.  The central family
is the general dephasing-class channel

    ``E_theta(rho) = (1-p_theta) e^{-i G0 theta} rho e^{+i G0 theta}
                     + p_theta Z e^{-i G1 theta} rho e^{+i G1 theta} Z``

with ``p in (0, 1/2]`` and traceless Hermitian generators ``G0, G1``.  Up to
constant unitary rotations this covers every differentiable dephasing-class
family, and it carries the two structural conditions implemented here:

* HNKS: the Hamiltonian ``H = i sum_i K_i^dag dK_i`` lies outside the Kraus
  span ``span{K_i^dag K_j}`` (iff condition for the Heisenberg limit under
  full controls).
* RGNKS: at least one of ``G0, G1`` is not proportional to ``Z`` (iff
  condition for the standard quantum limit under restricted controls).

The distance from ``H`` to the Kraus span and the annihilating gauge
(``H + sum_ij h_ij K_i^dag K_j = 0``, solved for non-unital channels) are one
least-squares problem over Hermitian ``h``; both go through the same solver as
the channel QFI's inner minimum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qubit_core import (
    I2,
    PAULIS,
    X,
    Z,
    DomainError,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    _herm_basis,
    _herm_lstsq,
    pauli_decompose,
    require_cptp,
    require_hermitian,
)

__all__ = [
    "AmbiguousClassificationError",
    "NotApplicableError",
    "OneParamChannel",
    "DephasingFamily",
    "CanonicalPauliForm",
    "ChannelKind",
    "ChannelClass",
    "HnksResult",
    "AnnihilatingGauge",
    "classify",
    "dephasing_channel",
    "hnks_check",
    "rgnks_check",
    "canonical_pauli_form",
    "solve_h_annihilating",
    "x_rotation_dephasing",
    "rotated_family",
]

CLASSIFY_TOL = 1e-7
HNKS_TOL = 1e-7  # smallest ||H||-relative distance from the Kraus span that counts as HNKS
RGNKS_TOL = 1e-9  # largest |Tr(G X)|, |Tr(G Y)| at which a generator counts as proportional to Z
UNITAL_TOL = 1e-8  # largest unitality witness at which a channel counts as unital
_EDGE_GUARD = 1e-3  # fraction of CLASSIFY_TOL treated as "too close to call" at the band edge


class AmbiguousClassificationError(ValueError):
    """Singular values sit too close to the classification boundary."""

    def __init__(self, singular_values):
        self.singular_values = np.asarray(singular_values, dtype=float)
        super().__init__(
            "singular values too close to the classification boundary: "
            + np.array2string(self.singular_values, precision=12)
        )


class NotApplicableError(ValueError):
    """The operation's structural precondition does not hold for this input."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _lift(t, T, dt, dT) -> np.ndarray:
    """``[[T, 0, t], [dT, T, dt], [0, 0, 1]]``: the 7x7 map of Bloch data on ``(v, dv, 1)``; an
    (N, 3, 3) ``T`` gives N maps, each other argument shared by all or given per map."""
    T = np.asarray(T)
    s = np.zeros(T.shape[:-2] + (7, 7))
    s[..., :3, :3] = s[..., 3:6, 3:6] = T
    s[..., 3:6, :3] = dT
    s[..., :3, 6] = t
    s[..., 3:6, 6] = dt
    s[..., 6, 6] = 1.0
    return s


def _k_dag_dk(k_ops: np.ndarray, dk_ops: np.ndarray) -> np.ndarray:
    """``sum_i K_i^dag dK_i`` over the stacked pairs."""
    return (np.swapaxes(k_ops.conj(), 1, 2) @ dk_ops).sum(0)


@dataclass(frozen=True, init=False)
class OneParamChannel:
    """A differentiable one-parameter channel given by Kraus pairs ``(K_i, dK_i)`` at theta=0.

    The pairs are stacked once into read-only r x d x d arrays: ``k_ops`` is the
    ``ops`` of the channel's :class:`KrausSet`, ``dk_ops`` the derivatives.
    """

    k_ops: np.ndarray
    dk_ops: np.ndarray

    def __init__(self, kraus):
        pairs = [(np.asarray(k, dtype=complex), np.asarray(dk, dtype=complex)) for k, dk in kraus]
        for k, dk in pairs:
            if k.shape != dk.shape:
                raise ValidationError("Kraus operator and derivative must share a shape")
            if not (np.isfinite(k).all() and np.isfinite(dk).all()):
                raise ValidationError("Kraus operator or derivative has non-finite entries")
        # built once: its constructor is the trace-preservation check
        self._bind(KrausSet([k for k, _ in pairs]), np.array([dk for _, dk in pairs]))

    @classmethod
    def _of_kraus_set(cls, ks: KrausSet, dk_ops: np.ndarray) -> "OneParamChannel":
        """The channel of an already checked ``ks`` with the stacked derivatives ``dk_ops``:
        only the derivative checks run."""
        if not np.isfinite(dk_ops).all():
            raise ValidationError("Kraus operator or derivative has non-finite entries")
        ch = cls.__new__(cls)
        ch._bind(ks, dk_ops)
        return ch

    def _bind(self, ks: KrausSet, dk_ops: np.ndarray) -> None:
        """Hold ``ks`` and ``dk_ops`` once ``dk_ops`` keeps trace preservation at first order."""
        dk_ops = _read_only(dk_ops)
        first_order = _k_dag_dk(ks.ops, dk_ops)
        if np.linalg.norm(first_order + first_order.conj().T) > 1e-9:
            raise ValidationError("family breaks trace preservation at first order (residual > 1e-9)")
        object.__setattr__(self, "_kraus_set", ks)
        object.__setattr__(self, "k_ops", ks.ops)
        object.__setattr__(self, "dk_ops", dk_ops)

    @property
    def dim(self) -> int:
        return self.k_ops.shape[1]

    def kraus_set(self) -> KrausSet:
        return self._kraus_set

    def hamiltonian(self) -> np.ndarray:
        """``H = i sum_i K_i^dag dK_i`` (Hermitian by the family invariant)."""
        h = 1j * _k_dag_dk(self.k_ops, self.dk_ops)
        return (h + h.conj().T) / 2.0


@dataclass(frozen=True)
class DephasingFamily:
    """The general dephasing-class channel ``(p, pdot, G0, G1)``; ``g0`` and ``g1`` are read-only."""

    p: float
    pdot: float
    g0: np.ndarray
    g1: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise DomainError(f"p must lie in (0, 1/2], got {self.p}")
        if not np.isfinite(self.pdot):
            raise ValidationError(f"pdot must be finite, got {self.pdot}")
        g0 = require_hermitian(self.g0, name="G0").copy()
        g1 = require_hermitian(self.g1, name="G1").copy()
        if abs(np.trace(g0)) > 1e-12 or abs(np.trace(g1)) > 1e-12:
            raise ValidationError("G0 and G1 must be traceless")
        object.__setattr__(self, "g0", _read_only(g0))
        object.__setattr__(self, "g1", _read_only(g1))

    @property
    def g_plus(self) -> np.ndarray:
        """``G+ = (1-p) G0 + p G1``, the family Hamiltonian."""
        return (1.0 - self.p) * self.g0 + self.p * self.g1

    @property
    def g_minus(self) -> np.ndarray:
        """``G- = (1-p) G0 - p G1``."""
        return (1.0 - self.p) * self.g0 - self.p * self.g1

    @cached_property
    def g_plus_coords(self) -> np.ndarray:
        """Pauli coordinates ``Tr(G+ sigma_j)``, computed once, read-only."""
        return _read_only(pauli_decompose(self.g_plus))

    @cached_property
    def g_minus_coords(self) -> np.ndarray:
        """Pauli coordinates ``Tr(G- sigma_j)``, computed once, read-only."""
        return _read_only(pauli_decompose(self.g_minus))

    @cached_property
    def transfer_matrix(self) -> np.ndarray:
        """The 7x7 map ``[[T, 0, 0], [dT, T, 0], [0, 0, 1]]`` of one use on ``(v, dv, 1)`` at
        theta = 0, computed once, read-only: ``T = diag(1-2p, 1-2p, 1)`` and the drive ``dT``
        from ``pdot`` and the Pauli coordinates of ``G±``."""
        _, tx, ty, tz = self.g_minus_coords
        _, px, py, _ = self.g_plus_coords
        T = np.diag([1.0 - 2.0 * self.p, 1.0 - 2.0 * self.p, 1.0])
        dT = [[-2.0 * self.pdot, -tz, ty], [tz, -2.0 * self.pdot, -tx], [-py, px, 0.0]]
        return _read_only(_lift(0.0, T, 0.0, dT))

    @cached_property
    def _channel(self) -> OneParamChannel:
        """:func:`dephasing_channel`, built and checked once."""
        sq0, sq1 = np.sqrt(1.0 - self.p), np.sqrt(self.p)
        dk0 = -1j * sq0 * self.g0 - self.pdot / (2.0 * sq0) * I2
        dk1 = -1j * sq1 * (Z @ self.g1) + self.pdot / (2.0 * sq1) * Z
        return OneParamChannel([(sq0 * I2, dk0), (sq1 * Z, dk1)])


@dataclass(frozen=True)
class CanonicalPauliForm:
    """Block-triangular canonical Kraus data ``[[m00, m^dag], [0, frak_m]]``."""

    m00: float
    m: np.ndarray
    frak_m: np.ndarray

    def matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        out[0, 0] = self.m00
        out[0, 1:] = self.m.conj()
        out[1:, 1:] = self.frak_m
        return out

    def kraus_set(self) -> KrausSet:
        rows = self.matrix()
        return KrausSet([sum(rows[i, j] * PAULIS[j] for j in range(4)) for i in range(4)])

    @property
    def unitality_witness(self) -> float:
        """``|m00 * Re[m]|``; zero iff the channel is unital."""
        return float(self.m00 * np.linalg.norm(np.real(self.m)))


class ChannelKind(enum.Enum):
    UNITARY = "Unitary"
    DEPHASING_CLASS = "DephasingClass"
    STRICTLY_CONTRACTIVE = "StrictlyContractive"


# number of singular values of T within CLASSIFY_TOL of 1 -> class; two cannot happen for a CPTP map
_TAGS = {0: ChannelKind.STRICTLY_CONTRACTIVE, 1: ChannelKind.DEPHASING_CLASS, 3: ChannelKind.UNITARY}


@dataclass(frozen=True)
class ChannelClass:
    tag: ChannelKind
    singular_values: np.ndarray


@dataclass(frozen=True)
class HnksResult:
    holds: bool
    hamiltonian: np.ndarray
    residual: float


@dataclass(frozen=True)
class AnnihilatingGauge:
    """Solution of ``H + sum_ij h_ij K_i^dag K_j = 0`` in the canonical basis."""

    h: np.ndarray
    kraus: KrausSet
    residual: float


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(ptm: PauliTransferMap) -> ChannelClass:
    """Classify a qubit channel from the singular values of its Bloch matrix.

    All singular values within ``CLASSIFY_TOL`` of 1 gives a unitary channel;
    exactly one gives a dephasing-class channel; none gives a strictly contractive
    channel.  Values within ``_EDGE_GUARD * CLASSIFY_TOL`` of the decision edge raise
    :class:`AmbiguousClassificationError`.
    """
    if not ptm.validated:
        require_cptp(ptm)
    svals = ptm.singular_values
    edge = 1.0 - CLASSIFY_TOL
    tag = _TAGS.get(int((svals > edge).sum()))
    if tag is None or np.any(np.abs(svals - edge) < _EDGE_GUARD * CLASSIFY_TOL):
        raise AmbiguousClassificationError(svals)
    return ChannelClass(tag, svals)


# ---------------------------------------------------------------------------
# Dephasing family Kraus pairs
# ---------------------------------------------------------------------------


def dephasing_channel(fam: DephasingFamily) -> OneParamChannel:
    """Natural Kraus pairs of the general dephasing family at theta=0, built once per family.

    ``K0 = sqrt(1-p) I``, ``K1 = sqrt(p) Z`` with derivatives
    ``dK0 = -i sqrt(1-p) G0 - pdot/(2 sqrt(1-p)) I`` and
    ``dK1 = -i sqrt(p) Z G1 + pdot/(2 sqrt(p)) Z``.
    """
    return fam._channel


def x_rotation_dephasing(p: float) -> DephasingFamily:
    """Dephasing noise followed by a Pauli-X rotation: ``G0 = X``, ``G1 = -X``, ``pdot = 0``."""
    return DephasingFamily(p, 0.0, X, -X)


def rotated_family(ks: KrausSet, generator: np.ndarray) -> OneParamChannel:
    """One-parameter family ``e^{-i G theta} E(.) e^{+i G theta}`` at theta=0."""
    g = require_hermitian(generator, name="generator")
    return OneParamChannel._of_kraus_set(ks, -1j * g @ ks.ops)


# ---------------------------------------------------------------------------
# Kraus span and the HNKS / RGNKS conditions
# ---------------------------------------------------------------------------


def _span_lstsq(k_ops: np.ndarray, y: np.ndarray, cut: float):
    """``(min ||sum_ij h_ij K_i^dag K_j + y||_F^2, h, rank)`` over Hermitian ``h``."""
    gram = np.einsum("iba,jbc->ijac", k_ops.conj(), k_ops)  # K_i^dag K_j
    return _herm_lstsq(np.tensordot(_herm_basis(len(k_ops)), gram, 2), y, cut)


def hnks_check(ch: OneParamChannel) -> HnksResult:
    """Test whether the Hamiltonian leaves the Kraus span (HNKS condition).

    ``residual`` is the Frobenius distance ``min_h ||H - sum_ij h_ij K_i^dag K_j||``
    over Hermitian ``h``, the least squares cutting span directions below 1e-10 of
    the largest.  ``holds`` is True iff it exceeds ``HNKS_TOL * ||H||``; a
    vanishing Hamiltonian never satisfies the condition.
    """
    h = ch.hamiltonian()
    residual = math.sqrt(_span_lstsq(ch.k_ops, -h, 1e-10)[0])
    h_norm = float(np.linalg.norm(h))
    holds = h_norm > 1e-14 and residual > HNKS_TOL * h_norm
    return HnksResult(holds=holds, hamiltonian=h, residual=residual)


def rgnks_check(fam: DephasingFamily) -> bool:
    """RGNKS on the supplied (G0, G1): ``|Tr(G X)|`` or ``|Tr(G Y)|`` of some generator exceeds ``RGNKS_TOL``."""
    transverse = [pauli_decompose(g)[1:3] for g in (fam.g0, fam.g1)]  # Tr(G X), Tr(G Y)
    return bool(np.abs(transverse).max() > RGNKS_TOL)


# ---------------------------------------------------------------------------
# Canonical Pauli-basis Kraus form and the constructive gauge solver
# ---------------------------------------------------------------------------


def _pauli_rows(ks: KrausSet) -> np.ndarray:
    """Rows of Pauli coefficients: ``K_i = sum_j M_ij sigma_j``."""
    return np.einsum("kab,jba->kj", ks.ops, PAULIS) / 2.0


def canonical_pauli_form(ks: KrausSet) -> CanonicalPauliForm:
    """Bring the Pauli coefficient matrix to the block form ``[[m00, m^dag], [0, frak_m]]``.

    The channel only enters through its process matrix ``chi = M^dag M``;
    factoring ``chi`` under the block constraints and taking the PSD square
    root of the lower block (the polar correction) yields the unique
    canonical representative.  The represented channel is unchanged.
    """
    if ks.dim != 2:
        raise ValidationError("canonical_pauli_form expects a qubit Kraus set")
    m_rows = _pauli_rows(ks)
    chi = m_rows.conj().T @ m_rows
    m00 = float(np.sqrt(max(chi[0, 0].real, 0.0)))
    if m00 > 1e-12:
        m = chi[1:, 0] / m00
    else:
        m00 = 0.0
        m = np.zeros(3, dtype=complex)
    block = chi[1:, 1:] - np.outer(m, m.conj())
    lam, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
    frak_m = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T
    return CanonicalPauliForm(m00=m00, m=m, frak_m=frak_m)


def solve_h_annihilating(ks: KrausSet, h_target: np.ndarray) -> AnnihilatingGauge:
    """Hermitian ``h`` with ``H + sum_ij h_ij K_i^dag K_j = 0`` for a non-unital channel.

    Works on the canonical Pauli-basis Kraus set, whose products span every
    Hermitian 2x2 matrix when the channel is non-unital.  ``h`` is the
    minimum-norm least-squares solution in ``_herm_basis`` coordinates: among
    all solutions it minimises ``sum_i h_ii^2 + sum_{i<j} |h_ij|^2``.
    ``residual``, the operator 2-norm of ``H + sum_ij h_ij K_i^dag K_j``, is
    its certificate.  Unital channels, whose unitality witness is below
    ``UNITAL_TOL``, admit no such guarantee and raise :class:`NotApplicableError`.
    """
    h_target = require_hermitian(h_target, name="H")
    form = canonical_pauli_form(ks)
    if form.unitality_witness < UNITAL_TOL:
        raise NotApplicableError(
            "channel is unital within tolerance; the annihilating gauge is not guaranteed"
        )
    canon = form.kraus_set()
    h = _span_lstsq(canon.ops, h_target, 1e-12)[1]
    total = h_target + np.einsum("ij,iba,jbc->ac", h, canon.ops.conj(), canon.ops)
    return AnnihilatingGauge(h=h, kraus=canon, residual=float(np.linalg.norm(total, 2)))
