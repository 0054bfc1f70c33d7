"""One-parameter qubit channel families and their structural conditions.

A one-parameter qubit channel is held as a list of Kraus pairs ``(K_i, dK_i)``
evaluated at the true parameter value.  The central family is the general
dephasing-class channel

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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .qubit_core import (
    I2,
    PAULIS,
    SIGMA,
    X,
    Y,
    Z,
    DomainError,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    choi_from_kraus,
    pauli_decompose,
    require_cptp,
    require_hermitian,
    validate_cptp,
)

__all__ = [
    "AmbiguousClassificationError",
    "NotApplicableError",
    "KrausPair",
    "OneParamChannel",
    "DephasingFamily",
    "CanonicalPauliForm",
    "ChannelKind",
    "ChannelClass",
    "HnksResult",
    "AnnihilatingGauge",
    "classify",
    "dephasing_channel",
    "kraus_span",
    "span_residual",
    "hnks_check",
    "rgnks_check",
    "canonical_pauli_form",
    "solve_h_annihilating",
    "x_rotation_dephasing",
    "rotated_family",
    "depolarizing_kraus",
    "random_dephasing_family",
    "random_one_param_channel",
]

CLASSIFY_TOL = 1e-7
_EDGE_GUARD = 1e-3  # fraction of tol treated as "too close to call" at the band edge


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


@dataclass(frozen=True)
class KrausPair:
    """A Kraus operator and its theta-derivative at the true value."""

    k: np.ndarray
    dk: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=complex)
        dk = np.asarray(self.dk, dtype=complex)
        if k.shape != dk.shape:
            raise ValidationError("Kraus operator and derivative must share a shape")
        if not (np.isfinite(k).all() and np.isfinite(dk).all()):
            raise ValidationError("Kraus operator or derivative has non-finite entries")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "dk", dk)


@dataclass(frozen=True, init=False)
class OneParamChannel:
    """A differentiable one-parameter channel given by Kraus pairs at theta=0."""

    kraus: tuple

    def __init__(self, kraus):
        pairs = tuple(p if isinstance(p, KrausPair) else KrausPair(*p) for p in kraus)
        dim = pairs[0].k.shape[0]
        if dim not in (2, 4):
            raise ValidationError("OneParamChannel supports dimensions 2 and 4")
        total = sum(p.k.conj().T @ p.k for p in pairs)
        if np.linalg.norm(total - np.eye(dim)) > 1e-10:
            raise ValidationError("Kraus operators are not trace preserving within 1e-10")
        first_order = sum(p.dk.conj().T @ p.k + p.k.conj().T @ p.dk for p in pairs)
        if np.linalg.norm(first_order) > 1e-9:
            raise ValidationError("family breaks trace preservation at first order (residual > 1e-9)")
        object.__setattr__(self, "kraus", pairs)

    @property
    def dim(self) -> int:
        return self.kraus[0].k.shape[0]

    def kraus_set(self) -> KrausSet:
        return KrausSet([p.k for p in self.kraus])

    def hamiltonian(self) -> np.ndarray:
        """``H = i sum_i K_i^dag dK_i`` (Hermitian by the family invariant)."""
        h = 1j * sum(p.k.conj().T @ p.dk for p in self.kraus)
        return (h + h.conj().T) / 2.0


@dataclass(frozen=True)
class DephasingFamily:
    """The general one-parameter dephasing-class channel ``(p, pdot, G0, G1)``."""

    p: float
    pdot: float
    g0: np.ndarray
    g1: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise DomainError(f"p must lie in (0, 1/2], got {self.p}")
        if not np.isfinite(self.pdot):
            raise ValidationError(f"pdot must be finite, got {self.pdot}")
        g0 = require_hermitian(self.g0, name="G0")
        g1 = require_hermitian(self.g1, name="G1")
        if abs(np.trace(g0)) > 1e-12 or abs(np.trace(g1)) > 1e-12:
            raise ValidationError("G0 and G1 must be traceless")
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)

    @property
    def g_plus(self) -> np.ndarray:
        """``G+ = (1-p) G0 + p G1``, the family Hamiltonian."""
        return (1.0 - self.p) * self.g0 + self.p * self.g1

    @property
    def g_minus(self) -> np.ndarray:
        """``G- = (1-p) G0 - p G1``."""
        return (1.0 - self.p) * self.g0 - self.p * self.g1


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


def classify(ptm: PauliTransferMap, tol: float = CLASSIFY_TOL) -> ChannelClass:
    """Classify a qubit channel from the singular values of its Bloch matrix.

    All singular values within ``tol`` of 1 gives a unitary channel; exactly
    one gives a dephasing-class channel; none gives a strictly contractive
    channel.  Values within ``_EDGE_GUARD * tol`` of the decision edge raise
    :class:`AmbiguousClassificationError`.
    """
    require_cptp(ptm)
    svals = np.linalg.svd(ptm.T, compute_uv=False)
    svals = np.sort(svals)[::-1]
    edge = 1.0 - tol
    if np.any(np.abs(svals - edge) < _EDGE_GUARD * tol):
        raise AmbiguousClassificationError(svals)
    near_one = svals > edge
    count = int(near_one.sum())
    if count == 3:
        tag = ChannelKind.UNITARY
    elif count == 1:
        tag = ChannelKind.DEPHASING_CLASS
    elif count == 0:
        tag = ChannelKind.STRICTLY_CONTRACTIVE
    else:
        # two singular values at 1 cannot happen for a CPTP map; treat as noise
        raise AmbiguousClassificationError(svals)
    return ChannelClass(tag, svals)


# ---------------------------------------------------------------------------
# Dephasing family Kraus pairs
# ---------------------------------------------------------------------------


def dephasing_channel(fam: DephasingFamily) -> OneParamChannel:
    """Natural Kraus pairs of the general dephasing family at theta=0.

    ``K0 = sqrt(1-p) I``, ``K1 = sqrt(p) Z`` with derivatives
    ``dK0 = -i sqrt(1-p) G0 - pdot/(2 sqrt(1-p)) I`` and
    ``dK1 = -i sqrt(p) Z G1 + pdot/(2 sqrt(p)) Z``.
    """
    p, pdot = fam.p, fam.pdot
    sq0, sq1 = np.sqrt(1.0 - p), np.sqrt(p)
    k0 = sq0 * I2
    k1 = sq1 * Z
    dk0 = -1j * sq0 * fam.g0 - pdot / (2.0 * sq0) * I2
    dk1 = -1j * sq1 * (Z @ fam.g1) + pdot / (2.0 * sq1) * Z
    return OneParamChannel([(k0, dk0), (k1, dk1)])


def x_rotation_dephasing(p: float, pdot: float = 0.0) -> DephasingFamily:
    """Dephasing noise followed by a Pauli-X rotation: ``G0 = X``, ``G1 = -X``."""
    return DephasingFamily(p, pdot, X, -X)


def rotated_family(ks: KrausSet, generator: np.ndarray) -> OneParamChannel:
    """One-parameter family ``e^{-i G theta} E(.) e^{+i G theta}`` at theta=0."""
    g = require_hermitian(generator, name="generator")
    return OneParamChannel([(k, -1j * g @ k) for k in ks.ops])


def depolarizing_kraus(lam: float) -> KrausSet:
    """Depolarizing channel ``rho -> lam rho + (1-lam) I/2`` as a Pauli mixture."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError("depolarizing strength must lie in [0, 1]")
    c0 = (1.0 + 3.0 * lam) / 4.0
    cp = (1.0 - lam) / 4.0
    return KrausSet(
        [np.sqrt(c0) * I2, np.sqrt(cp) * X, np.sqrt(cp) * Y, np.sqrt(cp) * Z]
    )


# ---------------------------------------------------------------------------
# Kraus span and the HNKS / RGNKS conditions
# ---------------------------------------------------------------------------


def _herm_to_vec(op: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix (Frobenius norm preserved)."""
    d = op.shape[0]
    iu = np.triu_indices(d, 1)
    return np.concatenate(
        [np.real(np.diagonal(op)), np.sqrt(2.0) * np.real(op[iu]), np.sqrt(2.0) * np.imag(op[iu])]
    )


def kraus_span(ks: KrausSet) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of ``span{K_i^dag K_j}``.

    The span is assembled from the Hermitian and anti-Hermitian parts of all
    pairwise products, then orthonormalized with an SVD rank cut.  Applying
    the induced projection twice equals applying it once.
    """
    ops = ks.ops
    raw = []
    for i in range(len(ops)):
        for j in range(i, len(ops)):
            prod = ops[i].conj().T @ ops[j]
            raw.append((prod + prod.conj().T) / 2.0)
            raw.append(1j * (prod - prod.conj().T) / 2.0)
    vecs = np.array([_herm_to_vec(op) for op in raw])
    u, s, vt = np.linalg.svd(vecs, full_matrices=False)
    keep = s > 1e-10 * max(s[0], 1e-300)
    d = ops[0].shape[0]
    basis = []
    for row in vt[keep]:
        mat = np.zeros((d, d), dtype=complex)
        k = 0
        for a in range(d):
            mat[a, a] = row[k]
            k += 1
        iu = np.triu_indices(d, 1)
        n_off = len(iu[0])
        re = row[k : k + n_off]
        im = row[k + n_off : k + 2 * n_off]
        mat[iu] += (re + 1j * im) / np.sqrt(2.0)
        mat[(iu[1], iu[0])] += (re - 1j * im) / np.sqrt(2.0)
        basis.append(mat)
    return basis


def span_residual(basis: list[np.ndarray], op: np.ndarray) -> float:
    """Frobenius norm of the component of ``op`` orthogonal to the span."""
    vec = _herm_to_vec(require_hermitian(op, name="operator"))
    for b in basis:
        bv = _herm_to_vec(b)
        vec = vec - (bv @ vec) * bv
    return float(np.linalg.norm(vec))


def hnks_check(ch: OneParamChannel, tol: float = 1e-7) -> HnksResult:
    """Test whether the Hamiltonian leaves the Kraus span (HNKS condition).

    ``holds`` is True iff the residual of ``H = i sum K^dag dK`` outside
    ``span{K_i^dag K_j}`` exceeds ``tol * ||H||``; a vanishing Hamiltonian
    never satisfies the condition.
    """
    h = ch.hamiltonian()
    basis = kraus_span(ch.kraus_set())
    residual = span_residual(basis, h)
    h_norm = float(np.linalg.norm(h))
    holds = h_norm > 1e-14 and residual > tol * h_norm
    return HnksResult(holds=holds, hamiltonian=h, residual=residual)


def rgnks_check(fam: DephasingFamily, tol: float = 1e-9) -> bool:
    """RGNKS on the supplied (G0, G1) parametrization: some generator has an X or Y part."""
    transverse = [pauli_decompose(g)[1:3] for g in (fam.g0, fam.g1)]  # Tr(G X), Tr(G Y)
    return bool(np.abs(transverse).max() > tol)


# ---------------------------------------------------------------------------
# Canonical Pauli-basis Kraus form and the constructive gauge solver
# ---------------------------------------------------------------------------


def _pauli_rows(ks: KrausSet) -> np.ndarray:
    """Rows of Pauli coefficients: ``K_i = sum_j M_ij sigma_j``."""
    return np.array([[np.trace(k @ s) / 2.0 for s in PAULIS] for k in ks.ops])


def canonical_pauli_form(ks: KrausSet, tol: float = 1e-12) -> CanonicalPauliForm:
    """Bring the Pauli coefficient matrix to the block form ``[[m00, m^dag], [0, frak_m]]``.

    The channel only enters through its process matrix ``chi = M^dag M``;
    factoring ``chi`` under the block constraints and taking the PSD square
    root of the lower block (the polar correction) yields the unique
    canonical representative.  The represented channel is unchanged.
    """
    if ks.dim != 2:
        raise ValidationError("canonical_pauli_form expects a qubit Kraus set")
    report = validate_cptp(choi_from_kraus(ks))
    if not (report.is_cp and report.is_tp):
        raise ValidationError("input Kraus set is not CPTP")
    m_rows = _pauli_rows(ks)
    chi = m_rows.conj().T @ m_rows
    m00 = float(np.sqrt(max(chi[0, 0].real, 0.0)))
    if m00 > tol:
        m = chi[1:, 0] / m00
    else:
        m00 = 0.0
        m = np.zeros(3, dtype=complex)
    block = chi[1:, 1:] - np.outer(m, m.conj())
    lam, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
    frak_m = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T
    return CanonicalPauliForm(m00=m00, m=m, frak_m=frak_m)


def solve_h_annihilating(
    ks: KrausSet, h_target: np.ndarray, unital_tol: float = 1e-8
) -> AnnihilatingGauge:
    """Hermitian ``h`` with ``H + sum_ij h_ij K_i^dag K_j = 0`` for a non-unital channel.

    Works in the canonical Pauli-basis representation: diagonalize
    ``frak_m = sum_i sqrt(gamma_i) v_i v_i^dag`` and, for every index with
    ``gamma_i det(m~_i) != 0``, solve the 3x3 linear system that matches the
    traceless part of ``-H``, then fix the trace with a multiple of the
    identity.  Among eligible indices the solution of smallest operator norm
    is returned (lowest index on ties).  Unital channels admit no such
    guarantee and raise :class:`NotApplicableError`.
    """
    h_target = require_hermitian(h_target, name="H")
    form = canonical_pauli_form(ks)
    if form.unitality_witness < unital_tol:
        raise NotApplicableError(
            "channel is unital within tolerance; the annihilating gauge is not guaranteed"
        )
    canon = form.kraus_set()
    kc = canon.ops
    svals, vecs = np.linalg.eigh(form.frak_m)
    gammas = np.clip(svals, 0.0, None) ** 2
    re_m, im_m = np.real(form.m), np.imag(form.m)
    eta = np.array([np.trace(h_target @ s).real / 2.0 for s in SIGMA])

    def residual_of(h):
        total = h_target + sum(
            h[a, b] * kc[a].conj().T @ kc[b] for a in range(4) for b in range(4)
        )
        return float(np.linalg.norm(total, 2))

    candidates = []
    for idx in range(3):
        v = vecs[:, idx]
        gamma = gammas[idx]
        re_v, im_v = np.real(v), np.imag(v)
        cols = np.column_stack(
            [
                form.m00 * re_v + np.cross(re_m, im_v) - np.cross(im_m, re_v),
                -form.m00 * im_v + np.cross(re_m, re_v) + np.cross(im_m, im_v),
                np.cross(re_v, im_v),
            ]
        )
        if gamma * abs(np.linalg.det(cols)) < 1e-12:
            continue
        u = np.linalg.solve(cols, -eta / 2.0)
        h_i = (u[0] + 1j * u[1]) / np.sqrt(gamma)
        g_i = u[2] / gamma
        block = np.zeros((4, 4), dtype=complex)
        block[0, 1:] = (h_i * v).conj()
        block[1:, 0] = h_i * v
        block[1:, 1:] = g_i * np.outer(v, v.conj())
        generated = sum(
            block[a, b] * kc[a].conj().T @ kc[b] for a in range(4) for b in range(4)
        )
        shift = float(np.trace(-h_target - generated).real)
        h_full = block + (shift / 2.0) * np.eye(4)
        candidates.append((float(np.linalg.norm(h_full, 2)), idx, h_full))
    if not candidates:
        raise NotApplicableError("no eligible canonical index found (channel too close to unital)")
    candidates.sort(key=lambda item: (item[0], item[1]))
    h_best = candidates[0][2]
    return AnnihilatingGauge(h=h_best, kraus=canon, residual=residual_of(h_best))


# ---------------------------------------------------------------------------
# Random families (property tests, estimators)
# ---------------------------------------------------------------------------


def random_dephasing_family(
    rng: np.random.Generator, p_range: tuple[float, float] = (0.02, 0.5)
) -> DephasingFamily:
    p = rng.uniform(*p_range)
    pdot = rng.normal()
    coeffs = rng.normal(size=(2, 3))
    g0 = coeffs[0, 0] * X + coeffs[0, 1] * Y + coeffs[0, 2] * Z
    g1 = coeffs[1, 0] * X + coeffs[1, 1] * Y + coeffs[1, 2] * Z
    return DephasingFamily(p, pdot, g0, g1)


def random_one_param_channel(
    rng: np.random.Generator, dim: int = 2, env: int = 4
) -> OneParamChannel:
    """Random differentiable family from a rotating Stinespring isometry.

    ``K_i(theta) = (I x <i|) e^{-i H_env theta} V`` is exactly CPTP for every
    theta, so the pair list satisfies the first-order invariants by
    construction.
    """
    a = rng.normal(size=(dim * env, dim)) + 1j * rng.normal(size=(dim * env, dim))
    iso, _ = np.linalg.qr(a)
    h_env = rng.normal(size=(dim * env, dim * env)) + 1j * rng.normal(size=(dim * env, dim * env))
    h_env = (h_env + h_env.conj().T) / 2.0
    diso = -1j * (h_env @ iso)
    blocks = iso.reshape(dim, env, dim)
    dblocks = diso.reshape(dim, env, dim)
    return OneParamChannel([(blocks[:, e, :], dblocks[:, e, :]) for e in range(env)])
