"""Fisher information functionals for states, measurements and channels.

State-level quantities (``qfi_state``, ``sld``, ``classical_fi``, ``povm_fi``,
``bures_distance``) follow the standard eigendecomposition formulas.  Both
flavours of the channel QFI rest on one exact inner minimum: with
``B_j(h) = dK_j - i sum_i h_ji K_i`` over Hermitian gauges ``h`` and
``alpha(h) = sum_j B_j(h)^dag B_j(h)``, the function
``min_h Tr(rho alpha(h))`` of an input state ``rho = s s^dag`` is a real
linear least-squares problem in ``h`` (``_inner_min``, on the Hermitian least
squares that ``channel_model`` also uses for HNKS and the annihilating gauge).

* ancilla-assisted, ``4 min_h ||alpha(h)||``.  By the minimax theorem
  (Fujiwara & Imai 2008; Demkowicz-Dobrzanski, Kolodynski & Guta,
  Nat. Commun. 3, 1063, 2012) this equals ``4 max_rho min_h Tr(rho alpha(h))``,
  a concave maximum over inputs.  It is taken over the restricted set
  ``rho = (1 - eps) sigma + eps I/d`` with ``eps = INPUT_FLOOR``.  The
  least-squares argmin ``h_opt`` at the final ``rho*`` certifies the answer:
  ``value = 4 lambda_max(alpha(h_opt))`` is an upper bound on the QFI,
  ``4 Tr(rho* alpha(h_opt))`` a lower bound, and their difference ``gap``
  must stay within ``GAP_RTOL * value``;
* ancilla-free, ``4 sup_psi min_h <psi|alpha(h)|psi>``.  At a pure qubit
  input ``v`` the inner minimum is the output state's Bloch QFI, so the
  supremum is a closed-form maximum over the unit sphere (a Fibonacci grid,
  Riemannian Newton steps, and the pure-output inputs evaluated directly).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel_model import OneParamChannel
from .qubit_core import (
    DensityState,
    DomainError,
    PauliTransferMap,
    SIGMA,
    ValidationError,
    _herm_basis,
    _herm_lstsq,
    _overflow_is_domain_error,
    ptm_derivative_from_kraus,
    ptm_from_kraus,
    require_hermitian,
)

__all__ = [
    "Povm",
    "GaugeMatrix",
    "ChannelQfiResult",
    "ConvergenceError",
    "RankDeficiencyWarning",
    "qfi_state",
    "qfi_bloch",
    "sld",
    "classical_fi",
    "povm_fi",
    "bures_distance",
    "channel_qfi_ancilla",
    "channel_qfi_no_ancilla",
    "eta_bound",
    "eta_estimate",
]

EIG_PAIR_CUTOFF = 1e-12

PURE_TOL = 1e-14  # largest 1 - ||v||^2 at which a Bloch vector counts as pure


class ConvergenceError(RuntimeError):
    """The channel QFI's duality gap stayed above the certificate tolerance."""

    def __init__(self, message, best_value=None, gap=None):
        super().__init__(message)
        self.best_value = best_value
        self.gap = gap


class RankDeficiencyWarning(RuntimeWarning):
    """The derivative has weight on eigenvalue pairs excluded by the cutoff."""


@dataclass(frozen=True, init=False)
class Povm:
    """PSD elements summing to the identity."""

    elements: tuple

    def __init__(self, elements):
        mats = tuple(require_hermitian(m, atol=1e-10, name="POVM element") for m in elements)
        dim = mats[0].shape[0]
        for m in mats:
            if np.linalg.eigvalsh(m).min() < -1e-10:
                raise ValidationError("POVM element is not PSD within 1e-10")
        if np.linalg.norm(sum(mats) - np.eye(dim)) > 1e-10:
            raise ValidationError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", mats)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class GaugeMatrix:
    """Hermitian matrix parameterizing equivalent Kraus representations."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", require_hermitian(self.h, name="gauge matrix"))


@dataclass(frozen=True)
class ChannelQfiResult:
    """Certified ancilla-assisted channel QFI.

    ``value`` is an upper bound and ``value - gap`` a lower bound on the exact
    QFI.  ``h_opt`` is the gauge whose ``4 lambda_max(alpha(h_opt))`` gives
    ``value``; ``rho_opt`` is the input's reduced state on the probed system,
    and any purification of it with an ancilla reaches ``value - gap``.
    """

    value: float
    h_opt: GaugeMatrix
    gap: float
    rho_opt: np.ndarray


# ---------------------------------------------------------------------------
# State QFI
# ---------------------------------------------------------------------------


def _eigen_pairs(s: DensityState, warning: str):
    """rho's eigenvectors, drho in their frame, the eigenvalue pair sums and the mask of sums above
    ``EIG_PAIR_CUTOFF``; warns the caller's caller when drho's weight outside the mask exceeds
    ``1e-18 ||drho||^2`` (drho's roundoff grows with its norm, like ``n`` in a long protocol run)."""
    lam, vecs = np.linalg.eigh(s.rho)
    d = vecs.conj().T @ s.drho @ vecs
    pair_sums = lam[:, None] + lam[None, :]
    mask = pair_sums > EIG_PAIR_CUTOFF
    weight = np.abs(d) ** 2
    if weight[~mask].sum() > 1e-18 * weight.sum():
        warnings.warn(warning, RankDeficiencyWarning, stacklevel=3)
    return vecs, d, pair_sums, mask


def qfi_state(s: DensityState) -> float:
    """QFI from the eigendecomposition of rho.

    ``F = 2 sum_{i,j: li+lj > eps} |<i|drho|j>|^2 / (li + lj)``.  If ``drho``
    carries weight on excluded pairs a :class:`RankDeficiencyWarning` is
    issued.
    """
    _, d, pair_sums, mask = _eigen_pairs(
        s, "derivative has weight on eigenvalue pairs below the cutoff; QFI may be underestimated"
    )
    return 2.0 * float(np.sum(np.abs(d[mask]) ** 2 / pair_sums[mask]))


def _bloch_qfi(a, b, c):
    """Elementwise ``(a + b^2/c, b/c, 1/c)``: the Bloch QFI from ``a = ||dv||^2``,
    ``b = v.dv`` and ``c = 1 - ||v||^2``.  A pure state (``c <= PURE_TOL``) gets
    ``(a, 0, 0)``; no division ever sees its ``c``.
    """
    mixed = c > PURE_TOL
    safe = c * mixed + PURE_TOL * (c <= PURE_TOL)  # plain arithmetic keeps floats floats
    inv_c = mixed / safe
    return a + mixed * (b * b) / safe, b * inv_c, inv_c


def qfi_bloch(b) -> float:
    """Closed-form qubit QFI ``||dv||^2 + (v.dv)^2 / (1 - ||v||^2)``.

    Accepts a :class:`~qmetro.qubit_core.BlochState` or a ``(v, dv)`` pair.
    On the Bloch sphere (``1 - ||v||^2 <= PURE_TOL``) the derivative must be
    tangent (``|v.dv| <= 1e-9``) and the formula reduces to ``||dv||^2``.
    """
    v = np.asarray(b.v if hasattr(b, "v") else b[0], dtype=float)
    dv = np.asarray(b.dv if hasattr(b, "dv") else b[1], dtype=float)
    nv2 = float(v @ v)
    if nv2 > 1.0 + 1e-10:
        raise DomainError("Bloch vector outside the unit ball")
    radial = float(v @ dv)
    gap = 1.0 - nv2
    if gap <= PURE_TOL and abs(radial) > 1e-9:
        raise DomainError(
            f"pure state with radial derivative {radial:.3e}: family leaves the Bloch ball"
        )
    return float(_bloch_qfi(float(dv @ dv), radial, gap)[0])


def sld(s: DensityState) -> np.ndarray:
    """Symmetric logarithmic derivative: ``(L rho + rho L)/2 = drho`` on the support."""
    vecs, d, pair_sums, mask = _eigen_pairs(
        s, "derivative mixes into the kernel of rho; SLD restricted to the support"
    )
    l_eig = np.zeros_like(d)
    l_eig[mask] = 2.0 * d[mask] / pair_sums[mask]
    return vecs @ l_eig @ vecs.conj().T


def classical_fi(p: np.ndarray, dp: np.ndarray) -> float:
    """``sum_{i: p_i > 0} dp_i^2 / p_i`` for an outcome distribution."""
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if p.shape != dp.shape:
        raise ValidationError("p and dp must have the same length")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-12:
        raise ValidationError("p is not a probability vector")
    if abs(dp.sum()) > 1e-10:
        raise ValidationError("dp must sum to zero")
    mask = p > 1e-15
    if np.any(np.abs(dp[~mask]) > 1e-12):
        warnings.warn(
            "zero-probability outcomes with nonzero derivative were excluded",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def povm_fi(s: DensityState, m: Povm) -> float:
    """Classical FI of measuring ``s`` with the POVM; never exceeds the QFI."""
    p = np.array([np.trace(s.rho @ e).real for e in m])
    dp = np.array([np.trace(s.drho @ e).real for e in m])
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    return classical_fi(p, dp)


def _psd_sqrt(op: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(op)
    return (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T


def bures_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """``sqrt(2 (1 - Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))))``.

    The fidelity is evaluated as the nuclear norm of
    ``sqrt(rho1) sqrt(rho2)``, which is better conditioned for nearly
    rank-deficient states than diagonalizing the triple product.
    """
    rho1 = require_hermitian(rho1, atol=1e-10, name="rho1")
    rho2 = require_hermitian(rho2, atol=1e-10, name="rho2")
    fid = float(np.linalg.svd(_psd_sqrt(rho1) @ _psd_sqrt(rho2), compute_uv=False).sum())
    return float(np.sqrt(max(2.0 * (1.0 - fid), 0.0)))


# ---------------------------------------------------------------------------
# Channel QFI: one least-squares oracle behind both flavours
# ---------------------------------------------------------------------------

GAP_RTOL = 1e-8
"""Largest relative duality gap ``gap / value`` a channel QFI result may carry."""

INPUT_FLOOR = 1e-10
"""Weight ``eps`` of ``I/d`` mixed into every ancilla-assisted input state."""

POLISH_STEPS = 2
"""Newton steps allowed after BFGS before the certificate gives up."""

SPHERE_GRID = 400
"""Fibonacci grid size for the ancilla-free outer supremum."""

NEWTON_STARTS = 3  # best grid points refined by Newton steps
NEWTON_STEPS = 30  # most Newton steps from one start
NEAR_PURE = 1e-9  # Newton runs stop short of outputs with 0 < 1 - |w|^2 < NEAR_PURE


def _gauged_derivatives(k_ops: np.ndarray, dk_ops: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The gauged Kraus derivatives ``B_j(h) = dK_j - i sum_i h_ji K_i``, stacked; a stack of
    gauges ``h`` of shape (g, r, r) gives one stack per gauge, (g, r, d, d)."""
    return dk_ops - 1j * np.einsum("...ji,iab->...jab", h, k_ops)


def _alpha(k_ops: np.ndarray, dk_ops: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``alpha(h) = sum_j B_j(h)^dag B_j(h)`` (see :func:`_gauged_derivatives`)."""
    b = _gauged_derivatives(k_ops, dk_ops, h)
    return np.einsum("jab,jac->bc", b.conj(), b)


def _inner_min(k_ops: np.ndarray, dk_ops: np.ndarray, s: np.ndarray):
    """Exact ``min_h Tr(s s^dag alpha(h))`` and its argmin ``h`` for a d x m factor ``s``.

    The objective is ``sum_j ||dK_j s - i sum_i h_ji K_i s||_F^2``, a real
    linear least-squares problem in the coordinates of Hermitian ``h``.
    """
    basis = _herm_basis(k_ops.shape[0])
    images = -1j * np.einsum("pji,iam->pjam", basis, k_ops @ s)
    resid, h, _ = _herm_lstsq(images, dk_ops @ s, 1e-12)
    return resid, h


@_overflow_is_domain_error
def channel_qfi_ancilla(ch: OneParamChannel) -> ChannelQfiResult:
    """Ancilla-assisted channel QFI ``4 min_h ||alpha(h)||``, certified by its dual.

    By the minimax theorem the value equals ``4 max_rho min_h Tr(rho alpha(h))``.
    The outer maximum runs by BFGS, from ``I/d``, over inputs
    ``rho = (1 - eps) s s^dag / ||s||^2 + eps I/d`` with ``eps = INPUT_FLOOR``;
    the floor keeps the least-squares argmin unique when the optimal input
    is rank-deficient.  The gradient comes from the envelope theorem; while
    the certificate below fails, up to ``POLISH_STEPS`` Newton steps follow
    the BFGS run.  At the final ``rho*`` the argmin ``h_opt`` gives the upper bound
    ``value = 4 lambda_max(alpha(h_opt))`` and the lower bound
    ``4 Tr(rho* alpha(h_opt))``; ``gap`` is their difference, so the exact
    QFI lies in ``[value - gap, value]``.  Raises :class:`ConvergenceError`
    when ``gap > GAP_RTOL * value``, :class:`DomainError` when it overflows.
    """
    k_ops, dk_ops = ch.k_ops, ch.dk_ops
    d = ch.dim
    floor = np.sqrt(INPUT_FLOOR / d) * np.eye(d)

    def unpack(x):
        s = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
        return s, np.hstack([np.sqrt(1.0 - INPUT_FLOOR) * s / np.linalg.norm(s), floor])

    scale = _inner_min(k_ops, dk_ops, np.eye(d) / np.sqrt(d))[0]
    if scale < 1e-24:
        return ChannelQfiResult(0.0, GaugeMatrix(np.zeros((len(k_ops),) * 2)), 0.0, np.eye(d) / d)

    def neg_value(x):
        s, full = unpack(x)
        f, h = _inner_min(k_ops, dk_ops, full)
        alpha_s = _alpha(k_ops, dk_ops, h) @ s
        norm2 = np.vdot(s, s).real
        grad = 2.0 * (1.0 - INPUT_FLOOR) * (alpha_s - np.vdot(s, alpha_s).real / norm2 * s) / norm2
        return -f / scale, -np.concatenate([grad.real.ravel(), grad.imag.ravel()]) / scale

    from scipy.optimize import minimize  # scipy's only user; kept off the import path

    x0 = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])
    x = minimize(neg_value, x0, jac=True, method="BFGS", options={"gtol": 1e-12, "maxiter": 1000}).x
    for _ in range(POLISH_STEPS + 1):
        _, full = unpack(x)
        lower, h = _inner_min(k_ops, dk_ops, full)
        value = 4.0 * float(np.linalg.eigvalsh(_alpha(k_ops, dk_ops, h))[-1])
        gap = max(value - 4.0 * lower, 0.0)
        if gap <= GAP_RTOL * value:
            return ChannelQfiResult(value, GaugeMatrix(h), gap, full @ full.conj().T)
        # BFGS stops about sqrt(machine eps) from the optimum, where its line
        # search can no longer resolve the objective; a Newton step on the
        # envelope gradient with a central-difference Hessian needs no
        # objective values and reaches the gap floor that INPUT_FLOOR sets
        t = 1e-6 * np.linalg.norm(x)
        hess = np.column_stack(
            [neg_value(x + t * e)[1] - neg_value(x - t * e)[1] for e in np.eye(len(x))]
        ) / (2.0 * t)
        x = x - np.linalg.lstsq(hess, neg_value(x)[1], rcond=1e-8)[0]
    raise ConvergenceError(
        f"dual solver stopped with relative duality gap {gap / value:.2e}",
        best_value=value,
        gap=gap,
    )


_IDX = np.arange(SPHERE_GRID) + 0.5
_Z, _PHI = 1.0 - 2.0 * _IDX / SPHERE_GRID, np.pi * (1.0 + np.sqrt(5.0)) * _IDX
_SPHERE = np.vstack([np.sqrt(1.0 - _Z**2) * [np.cos(_PHI), np.sin(_PHI)], _Z]).T
_SYMPLECTIC = np.array([[0.0, 1.0], [-1.0, 0.0]])  # a^T J b = det[a, b]


def _output_qfi(v, t, T, dt, dT):
    """``(F, q, 1/c)`` of the output pair ``w = T v + t``, ``w' = dT v + dt``, per row of ``v``."""
    w, dw = v @ T.T + t, v @ dT.T + dt
    return _bloch_qfi(np.sum(dw * dw, -1), np.sum(w * dw, -1), 1.0 - np.sum(w * w, -1))


def _pure_output_inputs(k_ops: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors of candidate inputs: all those whose output is pure, and a few others.

    The output of ``psi`` is pure iff every minor ``det[K_i psi, K_j psi] = psi^T S_ij psi``
    vanishes, so such a ``psi`` is a root of each nonzero binary quadratic.  A near-double root
    is snapped to the double root, which the quadratic formula gives to half the digits.
    """
    i, j = np.triu_indices(len(k_ops), 1)
    s = np.swapaxes(k_ops[i], 1, 2) @ _SYMPLECTIC @ k_ops[j]
    s00, s01, s11 = s[:, 0, 0], (s[:, 0, 1] + s[:, 1, 0]) / 2.0, s[:, 1, 1]
    disc = s01 * s01 - s00 * s11
    r = np.sqrt(np.where(abs(disc) > 1e-12 * np.sum(abs(s) ** 2, (1, 2)), disc, 0.0))
    roots = [(sgn * r - s01, s00) for sgn in (1, -1)] + [(s11, sgn * r - s01) for sgn in (1, -1)]
    psi = np.concatenate([np.stack(root, -1) for root in roots])
    psi = psi[np.linalg.norm(psi, axis=1) > 0.0]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.einsum("ni,jik,nk->nj", psi.conj(), SIGMA, psi).real


def _newton_ascent(v, t, T, dt, dT) -> float:
    """Riemannian Newton ascent of the output QFI from the unit vector ``v``; the best value.

    With ``q = b/c`` and ``u = b' - q c'``, the Euclidean gradient of ``a + q b`` is
    ``a' + 2q b' - q^2 c'`` and its Hessian ``a'' + 2q b'' - q^2 c'' + (2/c) u u^T``.  Steps
    use the absolute eigenvalues of the tangent Hessian, so each one ascends, and are halved
    until the value grows.  A run stops short of ``0 < c < NEAR_PURE``, where ``b^2/c`` loses
    digits; the pure-output input it heads for is a candidate of its own.
    """
    best, q, inv_c = _output_qfi(v, t, T, dt, dT)
    for _ in range(NEWTON_STEPS):
        w, dw = T @ v + t, dT @ v + dt
        grad_b, grad_c = T.T @ dw + dT.T @ w, -2.0 * T.T @ w
        u, grad = grad_b - q * grad_c, 2.0 * dT.T @ dw + 2.0 * q * grad_b - q * q * grad_c
        hess = dT.T @ dT + q * (T.T @ dT + dT.T @ T) + q * q * T.T @ T + inv_c * np.outer(u, u)
        tangent = np.linalg.svd(v[None, :])[2][1:].T
        lam, vecs = np.linalg.eigh(tangent.T @ (2.0 * hess - (v @ grad) * np.eye(3)) @ tangent)
        lam = np.maximum(abs(lam), 1e-12 * abs(lam).max() + 1e-300)
        step = tangent @ vecs @ (vecs.T @ tangent.T @ grad / lam)
        if np.linalg.norm(step) < 1e-10:
            break
        step *= min(1.0, 0.5 / np.linalg.norm(step))  # at most half a radian
        for _ in range(10):
            trial = (v + step) / np.linalg.norm(v + step)
            value, q_trial, inv_c_trial = _output_qfi(trial, t, T, dt, dT)
            if value > best or inv_c_trial > 1.0 / NEAR_PURE:
                break
            step /= 2.0
        if not value > best or inv_c_trial > 1.0 / NEAR_PURE:
            break
        v, best, q, inv_c = trial, value, q_trial, inv_c_trial
    return float(best)


@_overflow_is_domain_error
def channel_qfi_no_ancilla(ch: OneParamChannel) -> float:
    """Ancilla-free channel QFI ``4 sup_psi min_h <psi|alpha(h)|psi>`` for a qubit channel.

    At a pure input ``v`` the inner minimum is the output state's QFI ``qfi_bloch(w, w')``,
    ``w = T v + t``, ``w' = dT v + dt`` (Escher, de Matos Filho & Davidovich, Nat. Phys. 7,
    406, 2011).  Its maximum over the unit sphere is the best of: the ``SPHERE_GRID``-point
    Fibonacci grid, Newton runs from its best ``NEWTON_STARTS`` points, and the candidates
    where the value ``|w'|^2`` of a pure output need not be the limit of nearby values: the
    pure-output inputs, and the top eigenvectors of ``dT^T dT`` (when every output is pure).
    Raises :class:`DomainError` when the QFI overflows.
    """
    ptm = ptm_from_kraus(ch.kraus_set())
    t, T = ptm.t, ptm.T
    dt, dT = ptm_derivative_from_kraus(ch.k_ops, ch.dk_ops)
    top = np.linalg.eigh(dT.T @ dT)[1][:, -1]
    candidates = np.vstack([_pure_output_inputs(ch.k_ops), top, -top])
    grid = _output_qfi(_SPHERE, t, T, dt, dT)[0]
    runs = [_newton_ascent(_SPHERE[i], t, T, dt, dT) for i in np.argsort(grid)[-NEWTON_STARTS:]]
    return float(max(grid.max(), _output_qfi(candidates, t, T, dt, dT)[0].max(), *runs))


# ---------------------------------------------------------------------------
# QFI contraction coefficient
# ---------------------------------------------------------------------------


def eta_bound(ptm: PauliTransferMap) -> float:
    """Trace-norm contraction coefficient: the largest singular value of T.

    For qubit channels this upper-bounds the QFI contraction coefficient; it
    is below 1 exactly for strictly contractive channels.
    """
    return float(np.linalg.svd(ptm.T, compute_uv=False).max())


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
        num = qfi_bloch((ptm.apply_bloch(v), ptm.T @ dv))
        best = max(best, num / denom)
    return best
