"""Upper bounds on the QFI of sequential strategies.

The workhorse is the refined channel-extension recursion.  For the channel
``C_n o E o ... o C_1 o E`` with per-step Kraus operators
``K~_(a,b) = C_a K~_b`` (controls times a gauged representation of the
estimated channel), the ancilla-assisted QFI obeys

    ``F <= sum_k 4 Tr(iota_{k-1} alpha_k) + sum_{k<n} 8 Tr(gamma_k beta_{k+1})``

with ``alpha_k = sum dK~^dag dK~``, ``beta_k = i sum K~^dag dK~``,
``iota_k = E^(k)(I)``, ``ubeta_k`` the symmetrized cross operator and the
recursion ``gamma_k = C_k o E(gamma_{k-1}) + ubeta_k`` from ``gamma_0 = 0``.
With a suitable gauge choice the cross terms stay bounded, turning the naive
quadratic bound into a linear one.

The recursion runs in Pauli coordinates ``c_j = Tr(sigma_j A)``: ``iota``
and ``gamma`` are real 4-vectors, the channel and each control 4x4 maps
``[[1, 0], [t, T]]``, and each gauge fixes the coordinates ``a`` of ``alpha``,
``b`` of ``beta`` and the map ``ubeta = U iota`` (:func:`step_coordinates`).
A step adds ``2 iota.a`` and ``4 gamma.b``, maps ``iota -> C E iota`` and ``(gamma, 1)`` by the
affine 5x5 step ``[[C E, C U iota], [0, 1]]``, and ``||gamma||_1 = max(|c_0|, |c_(1:)|)``.

:func:`extension_bound` streams the steps in blocks of ``_BLOCK``, carrying the last ``iota``
and ``gamma`` rows from block to block.  In each block it reads the ``iota`` rows off one up-
and down-sweep of the offsets ``C E - I`` (the prefix products of ``qubit_core``, which the
protocols share), builds the gauges (the explicit ones in one stack with one shape check, the
default ones at once from those rows) and their ``(a, b, U)`` in one stacked build, then
sweeps the lifted offsets for the ``gamma`` rows.

Closed-form constant ceilings are provided for dephasing families violating
the RGNKS condition and for strictly contractive channels, together with the
Bloch-vector inequality every CPTP qubit map satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import (
    DephasingFamily,
    NotApplicableError,
    OneParamChannel,
    dephasing_channel,
    rgnks_check,
)
from .fisher_info import GaugeMatrix, _gauged_derivatives, channel_qfi_no_ancilla, eta_bound
from .qubit_core import (
    DomainError,
    PauliTransferMap,
    ValidationError,
    _down_sweep,
    _overflow_is_domain_error,
    _up_sweep,
    pauli_sandwich,
    ptm_from_kraus,
    require_cptp,
)

__all__ = [
    "ExtensionStep",
    "BoundReport",
    "extension_bound",
    "unital_gauge",
    "nonunital_gauge",
    "rgnks_violated_bound",
    "contractive_bound",
    "bloch_inequality_check",
    "BlochInequalityReport",
    "step_coordinates",
]

_BLOCK = 512  # steps extension_bound stacks at once; bounds its transient maps, gauges and coordinates


@dataclass(frozen=True)
class ExtensionStep:
    """One recursion step: the control applied after the channel, plus the gauge.

    ``gauge=None`` selects the explicit gauge for dephasing families (the
    not-too-non-unital choice, which reduces to the unital one when
    ``iota = I``); a :class:`~qmetro.fisher_info.GaugeMatrix` fixes it
    explicitly.
    """

    control: PauliTransferMap
    gauge: GaugeMatrix | None = None

    def __post_init__(self):
        if not self.control.validated:
            require_cptp(self.control)


@dataclass(frozen=True)
class BoundReport:
    """Per-step traces and the total of the channel-extension bound."""

    n: int
    total: float
    alpha_terms: tuple
    cross_terms: tuple
    gamma_norms: tuple


# ---------------------------------------------------------------------------
# Gauge choices (App. S5)
# ---------------------------------------------------------------------------


def unital_gauge(fam: DephasingFamily) -> GaugeMatrix:
    """Gauge that makes the cross operators noise-orthogonal under unital controls.

    ``h00 = h11 = 0`` and
    ``h01 = h10 = -[(1-p) Tr(G0 Z) + p Tr(G1 Z)] / (4 sqrt(p(1-p)))``.
    """
    p = fam.p
    off = -fam.g_plus_coords[3] / (4.0 * np.sqrt(p * (1.0 - p)))
    return GaugeMatrix(np.array([[0.0, off], [off, 0.0]], dtype=complex))


def nonunital_gauge(fam: DephasingFamily, iota: np.ndarray) -> GaugeMatrix:
    """Gauge for the not-too-non-unital regime, built from the coordinates ``Tr(sigma_j iota_{k-1})``.

    Solves the three linear conditions that zero the trace and Z-trace of the
    cross operator and minimize the alpha trace.  Requires ``|Tr(iota Z)/2| < 1``;
    reduces to :func:`unital_gauge` at ``iota = I``, coordinates ``(2, 0, 0, 0)``.
    """
    return GaugeMatrix(_nonunital_gauges(fam, np.reshape(iota, (1, 4)))[0])


def _nonunital_gauges(fam: DephasingFamily, iotas: np.ndarray) -> np.ndarray:
    """The (N, 2, 2) matrices of :func:`nonunital_gauge`, one per row of the (N, 4) ``iotas``;
    :class:`DomainError` names the first row with ``|Tr(iota Z)/2| >= 1``."""
    p = fam.p
    gp, gm = fam.g_plus_coords, fam.g_minus_coords
    z = iotas[:, 3] / 2.0
    pole = np.abs(z) >= 1.0
    if pole.any():
        raise DomainError(f"|Tr(iota Z)/2| = {abs(z[pole][0]):.6g} >= 1: control too non-unital")
    # Tr(A B) = c(A).c(B)/2 in Pauli coordinates
    g_plus = iotas @ gp / 4.0 - gp[3] / 2.0 * z
    g_minus = iotas @ gm / 4.0 - gm[3] / 2.0 * z
    sum_cond = -g_plus / (1.0 - z * z)  # (1-p) h00 + p h11
    dif_cond = -g_minus - gm[3] / 2.0 * z  # (1-p) h00 - p h11
    h = np.empty((len(z), 2, 2), dtype=complex)
    h[:, 0, 0] = (sum_cond + dif_cond) / (2.0 * (1.0 - p))
    h[:, 1, 1] = (sum_cond - dif_cond) / (2.0 * p)
    h[:, 0, 1] = h[:, 1, 0] = (z * g_plus / (1.0 - z * z) - gp[3] / 2.0) / (2.0 * np.sqrt(p * (1.0 - p)))
    return h


# ---------------------------------------------------------------------------
# The recursion engine
# ---------------------------------------------------------------------------


def _gauge_matrix(ch: OneParamChannel, gauge: GaugeMatrix) -> np.ndarray:
    """``gauge.h``, once its shape fits the Kraus rank of ``ch``."""
    return _gauge_matrices(ch, [gauge])[0]


def _gauge_matrices(ch: OneParamChannel, gauges: list) -> np.ndarray:
    """The ``h`` of each of ``gauges`` as one (g, r, r) stack, once every shape fits the Kraus
    rank ``r`` of ``ch``; :class:`ValidationError` names the first shape that does not."""
    r = len(ch.k_ops)
    hs = [gauge.h for gauge in gauges]
    if {h.shape for h in hs} != {(r, r)}:
        wrong = next(h.shape for h in hs if h.shape != (r, r))
        raise ValidationError(f"gauge must be {r}x{r} for this channel, got {wrong}")
    return np.array(hs)


def step_coordinates(ch: OneParamChannel, gauge: GaugeMatrix):
    """Pauli coordinates ``(a, b, U)`` of ``alpha``, ``beta`` and ``iota -> ubeta`` under ``gauge``.

    With the gauged derivatives ``dK~ = dK - i h K`` and the sandwich
    ``m = M(dK~, K)``: ``a = M(dK~, dK~)[0]``, ``U = -Im(m)/2`` and ``b = -Im(m[0]) = 2 U[0]``.
    """
    a, b, u = _stacked_coordinates(ch, _gauge_matrix(ch, gauge)[None])
    return a[0], b[0], u[0]


def _stacked_coordinates(ch: OneParamChannel, hs: np.ndarray):
    """The ``(a, b, U)`` of :func:`step_coordinates` for a (g, r, r) stack of gauge matrices,
    as (g, 4), (g, 4) and (g, 4, 4) stacks."""
    dks = _gauged_derivatives(ch.k_ops, ch.dk_ops, hs)
    u = -0.5 * pauli_sandwich(dks, np.broadcast_to(ch.k_ops, dks.shape)).imag
    return pauli_sandwich(dks, dks)[:, 0].real, 2.0 * u[:, 0], u


@_overflow_is_domain_error
def extension_bound(ch, steps) -> BoundReport:
    """Refined channel-extension upper bound for the given control sequence.

    ``ch`` is a :class:`~qmetro.channel_model.DephasingFamily` or a
    :class:`~qmetro.channel_model.OneParamChannel`; ``steps`` supply the
    per-step controls and gauges.  The returned total upper-bounds the QFI of
    every input state and measurement run through the same sequence.  Raises
    :class:`DomainError` when it overflows.
    """
    if not steps:
        raise ValidationError("steps must be nonempty")
    fam = ch if isinstance(ch, DephasingFamily) else None
    base = ch if fam is None else dephasing_channel(fam)
    if fam is None and any(step.gauge is None for step in steps):
        raise ValidationError("explicit gauges are required for general one-parameter channels")
    chan = ptm_from_kraus(base.kraus_set()).matrix  # first row exactly (1, 0, 0, 0)
    n, r = len(steps), len(base.k_ops)
    # rows j = 0..n: iotas[j] = iota_j, gammas[j] = gamma_j; a[j] and b[j] belong to step j + 1
    iotas, gammas = np.zeros((2, n + 1, 4))
    iotas[0, 0] = 2.0  # iota_0 = I, gamma_0 = 0
    a, b = np.empty((2, n, 4))
    for lo in range(0, n, _BLOCK):
        block = steps[lo : lo + _BLOCK]
        m = len(block)
        k, k1 = slice(lo, lo + m), slice(lo + 1, lo + m + 1)  # rows of the block's iota_{k-1} and iota_k
        controls = np.array([step.control.matrix for step in block])
        offsets = controls @ chan - np.eye(4)  # each step's C E - I
        iotas[k1] = iotas[lo] + _down_sweep(_up_sweep(offsets)) @ iotas[lo]
        gauges = [step.gauge for step in block]
        default = np.array([gauge is None for gauge in gauges])
        hs = np.empty((m, r, r), dtype=complex)
        if not default.all():
            hs[~default] = _gauge_matrices(base, [gauge for gauge in gauges if gauge is not None])
        if default.any():
            hs[default] = _nonunital_gauges(fam, iotas[k][default])
        a[k], b[k], u = _stacked_coordinates(base, hs)
        # gamma_k = C_k E gamma_{k-1} + f_k with f_k = C_k U_k iota_{k-1}: the steps [[C_k E, f_k], [0, 1]]
        lifted = np.zeros((m, 5, 5))
        lifted[:, :4] = np.concatenate([offsets, controls @ (u @ iotas[k, :, None])], axis=2)
        gammas[k1] = gammas[lo] + (_down_sweep(_up_sweep(lifted)) @ np.append(gammas[lo], 1.0))[:, :4]
    alpha_terms = (2.0 * (iotas[:-1] * a).sum(1)).tolist()
    cross_terms = (4.0 * (gammas[1:-1] * b[1:]).sum(1)).tolist()
    gamma_norms = np.maximum(np.abs(gammas[1:, 0]), np.sqrt((gammas[1:, 1:] ** 2).sum(1))).tolist()
    return BoundReport(
        n=n,
        total=float(sum(alpha_terms) + sum(cross_terms)),
        alpha_terms=tuple(alpha_terms),
        cross_terms=tuple(cross_terms),
        gamma_norms=tuple(gamma_norms),
    )


# ---------------------------------------------------------------------------
# Constant ceilings
# ---------------------------------------------------------------------------


@_overflow_is_domain_error
def rgnks_violated_bound(fam: DephasingFamily) -> float:
    """Constant QFI ceiling ``(Tr(G- Z)^2 + 4 pdot^2) / (p^2 (1-p)^2)``.

    Applies to dephasing families with ``G0, G1`` proportional to Z (RGNKS
    violated) under unital controls.  Raises :class:`DomainError` when it overflows.
    """
    if rgnks_check(fam):
        raise NotApplicableError("RGNKS holds: the constant ceiling does not apply")
    tr_gm_z = fam.g_minus_coords[3]
    p, pdot = np.float64(fam.p), np.float64(fam.pdot)  # numpy scalars obey the error state
    return float((tr_gm_z**2 + 4.0 * pdot**2) / (p * p * (1.0 - p) ** 2))


@_overflow_is_domain_error
def contractive_bound(ch: OneParamChannel) -> float:
    """Ceiling ``F(E) / (1 - sqrt(eta))^2`` for strictly contractive channels.

    ``eta`` is the trace-norm contraction coefficient (an upper bound on the
    QFI contraction coefficient), so the returned value remains a valid,
    possibly loose, ceiling on any sequential-strategy QFI.  Raises
    :class:`DomainError` when it overflows.
    """
    ptm = ptm_from_kraus(ch.kraus_set())
    eta = eta_bound(ptm)
    if eta >= 1.0 - 1e-9:
        raise NotApplicableError(f"channel is not strictly contractive (eta = {eta:.9f})")
    f_channel = channel_qfi_no_ancilla(ch)
    return float(f_channel / (1.0 - np.sqrt(eta)) ** 2)


@dataclass(frozen=True)
class BlochInequalityReport:
    holds: bool
    lhs: float
    rhs: float


def bloch_inequality_check(ptm: PauliTransferMap) -> BlochInequalityReport:
    """Necessary CPTP condition ``||t||^2 <= (1 - s_min(T)^2)(1 - ||T||^2)``."""
    svals = ptm.singular_values
    lhs = float(ptm.t @ ptm.t)
    rhs = float((1.0 - svals.min() ** 2) * (1.0 - svals.max() ** 2))
    return BlochInequalityReport(holds=lhs <= rhs + 1e-10, lhs=lhs, rhs=rhs)
