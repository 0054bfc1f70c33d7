"""Random instances, round-trip conversions and estimators that only the tests read.

They moved here verbatim from ``qmetro``, so a fixed seed draws the same
instances it always drew: the acceptance criteria and the property tests take
their inputs from these generators.
"""

from __future__ import annotations

import math

import numpy as np

from qmetro.channel_model import DephasingFamily, OneParamChannel
from qmetro.fisher_info import Povm, qfi_bloch
from qmetro.qubit_core import (
    I2,
    PSD_ATOL,
    SIGMA,
    X,
    Y,
    Z,
    BlochState,
    DensityState,
    DomainError,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    choi_from_ptm,
    ptm_from_kraus,
    require_hermitian,
)

# ---------------------------------------------------------------------------
# Bloch and Kraus conversions (qmetro.qubit_core)
# ---------------------------------------------------------------------------


def bloch_to_density(b: BlochState) -> DensityState:
    """Lift (v, dv) to ``rho = (I + v.sigma)/2`` and ``drho = dv.sigma/2``."""
    rho = (I2 + b.v[0] * X + b.v[1] * Y + b.v[2] * Z) / 2.0
    drho = (b.dv[0] * X + b.dv[1] * Y + b.dv[2] * Z) / 2.0
    return DensityState(rho, drho)


def density_to_bloch(s: DensityState) -> BlochState:
    if s.dim != 2:
        raise ValidationError("density_to_bloch expects a qubit state")
    v = np.array([np.trace(s.rho @ p).real for p in SIGMA])
    dv = np.array([np.trace(s.drho @ p).real for p in SIGMA])
    return BlochState(v, dv)


def choi_from_kraus(ks: KrausSet) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_i vec(K_i) vec(K_i)^dag`` (row-major vec)."""
    v = ks.ops.reshape(len(ks.ops), -1)
    return v.T @ v.conj()


def kraus_from_choi(choi: np.ndarray) -> KrausSet:
    """Kraus operators from a PSD Choi matrix via eigendecomposition, dropping eigenvalues <= 1e-12."""
    choi = require_hermitian(choi, atol=1e-10, name="Choi matrix")
    d = int(round(math.sqrt(choi.shape[0])))
    lam, vecs = np.linalg.eigh(choi)
    if lam.min() < -PSD_ATOL:
        raise ValidationError(f"Choi matrix is not PSD (min eigenvalue {lam.min():.3e})")
    return KrausSet([np.sqrt(v) * vec.reshape(d, d) for v, vec in zip(lam, vecs.T) if v > 1e-12])


def kraus_from_ptm(ptm: PauliTransferMap) -> KrausSet:
    """Lift an affine Bloch map to Kraus operators (must be CPTP)."""
    return kraus_from_choi(choi_from_ptm(ptm))


# ---------------------------------------------------------------------------
# Random instances (exact CPTP by construction, for property tests and
# estimators; qmetro.qubit_core)
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


def random_unital_ptm(rng: np.random.Generator) -> PauliTransferMap:
    """Random unital qubit channel as a convex mixture of two rotations."""
    weights = rng.dirichlet(np.ones(2))
    T = sum(w * random_rotation(rng) for w in weights)
    return PauliTransferMap(np.zeros(3), T, validated=True)


# ---------------------------------------------------------------------------
# Channel families (qmetro.channel_model)
# ---------------------------------------------------------------------------


def depolarizing_kraus(lam: float) -> KrausSet:
    """Depolarizing channel ``rho -> lam rho + (1-lam) I/2`` as a Pauli mixture."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError("depolarizing strength must lie in [0, 1]")
    c0 = (1.0 + 3.0 * lam) / 4.0
    cp = (1.0 - lam) / 4.0
    return KrausSet(
        [np.sqrt(c0) * I2, np.sqrt(cp) * X, np.sqrt(cp) * Y, np.sqrt(cp) * Z]
    )


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


# ---------------------------------------------------------------------------
# Estimators and readouts (qmetro.fisher_info, qmetro.protocols)
# ---------------------------------------------------------------------------


def eta_estimate(ptm: PauliTransferMap, trials: int, seed: int = 0) -> float:
    """Sampled lower estimate of ``sup F(N(sigma_theta)) / F(sigma_theta)``.

    States are drawn with ``||v|| <= 0.99`` and a unit derivative whose
    radial component is projected out near the boundary, keeping the family
    inside the Bloch ball and the ratio well conditioned.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = 0.99 * rng.uniform() ** (1.0 / 3.0)
        v = radius * direction
        dv = rng.normal(size=3)
        dv /= np.linalg.norm(dv)
        if radius > 0.95:
            dv = dv - (direction @ dv) * direction
            norm = np.linalg.norm(dv)
            if norm < 1e-12:
                continue
            dv /= norm
        denom = qfi_bloch((v, dv))
        if denom < 1e-12:
            continue
        num = qfi_bloch((ptm.t + ptm.T @ v, ptm.T @ dv))
        best = max(best, num / denom)
    return best


def spam_povm(q: float) -> Povm:
    """The fixed SPAM readout POVM ``{(1-q)|0><0| + q|1><1|, complement}``."""
    m = (1.0 - q) * np.array([[1, 0], [0, 0]], dtype=complex) + q * np.array(
        [[0, 0], [0, 1]], dtype=complex
    )
    return Povm([m, I2 - m])
