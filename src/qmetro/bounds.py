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
A step adds ``2 iota.a`` and ``4 gamma.b``, sets ``gamma <- C (E gamma + U iota)``
and ``iota <- C E iota``, and ``||gamma||_1 = max(|c_0|, |c_(1:)|)``.  The
default gauge depends on ``iota`` and is recomputed only when ``iota`` changes.

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
from .fisher_info import GaugeMatrix, channel_qfi_no_ancilla, eta_bound
from .qubit_core import (
    Z,
    DomainError,
    PauliTransferMap,
    ValidationError,
    pauli_compose,
    pauli_decompose,
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
    "bounded_ancilla_multiplier",
    "bloch_inequality_check",
    "BlochInequalityReport",
    "gauged_pairs",
    "step_coordinates",
    "step_operators",
]


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
    off = -pauli_decompose(fam.g_plus)[3] / (4.0 * np.sqrt(p * (1.0 - p)))
    return GaugeMatrix(np.array([[0.0, off], [off, 0.0]], dtype=complex))


def nonunital_gauge(fam: DephasingFamily, iota_prev: np.ndarray) -> GaugeMatrix:
    """Gauge for the not-too-non-unital regime, built from ``iota_{k-1}``.

    Solves the three linear conditions that zero the trace and Z-trace of the
    cross operator and minimize the alpha trace.  Requires
    ``|Tr(iota Z)/2| < 1``; reduces to :func:`unital_gauge` at ``iota = I``.
    """
    p = fam.p
    iota, gp, gm = (pauli_decompose(op) for op in (iota_prev, fam.g_plus, fam.g_minus))
    z = iota[3] / 2.0
    if abs(z) >= 1.0:
        raise DomainError(f"|Tr(iota Z)/2| = {abs(z):.6g} >= 1: control too non-unital")
    # Tr(A B) = c(A).c(B)/2 in Pauli coordinates
    g_plus = iota @ gp / 4.0 - gp[3] / 2.0 * z
    g_minus = iota @ gm / 4.0 - gm[3] / 2.0 * z
    sum_cond = -g_plus / (1.0 - z * z)  # (1-p) h00 + p h11
    dif_cond = -g_minus - gm[3] / 2.0 * z  # (1-p) h00 - p h11
    h00 = (sum_cond + dif_cond) / (2.0 * (1.0 - p))
    h11 = (sum_cond - dif_cond) / (2.0 * p)
    off = (z * g_plus / (1.0 - z * z) - gp[3] / 2.0) / (2.0 * np.sqrt(p * (1.0 - p)))
    return GaugeMatrix(np.array([[h00, off], [off, h11]], dtype=complex))


# ---------------------------------------------------------------------------
# The recursion engine
# ---------------------------------------------------------------------------


def gauged_pairs(ch: OneParamChannel, gauge: GaugeMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Apply the Kraus-representation gauge: ``dK~_i = dK_i - i sum_j h_ij K_j``."""
    h = gauge.h
    r = len(ch.kraus)
    if h.shape != (r, r):
        raise ValidationError(f"gauge must be {r}x{r} for this channel, got {h.shape}")
    ks = [p.k for p in ch.kraus]
    out = []
    for i, pair in enumerate(ch.kraus):
        dk = pair.dk - 1j * sum(h[i, j] * ks[j] for j in range(r))
        out.append((pair.k, dk))
    return out


def step_coordinates(pairs):
    """Pauli coordinates ``(a, b, U)`` of ``alpha``, ``beta`` and ``iota -> ubeta``.

    With the sandwich ``m = M(dK~, K~)``: ``a = M(dK~, dK~)[0]``,
    ``U = -Im(m)/2`` and ``b = -Im(m[0]) = 2 U[0]``.
    """
    ks, dks = zip(*pairs)
    u = -0.5 * pauli_sandwich(dks, ks).imag
    return pauli_sandwich(dks, dks)[0].real, 2.0 * u[0], u


def step_operators(pairs, iota: np.ndarray):
    """``(alpha, beta, ubeta)`` of one step as 2x2 operators, for the given ``iota``.

    ``alpha`` and ``beta`` are invariant under the control; ``ubeta`` is the
    cross operator the control maps (see :func:`step_coordinates`).
    """
    a, b, u = step_coordinates(pairs)
    return pauli_compose(a), pauli_compose(b), pauli_compose(u @ pauli_decompose(iota))


def extension_bound(ch, steps) -> BoundReport:
    """Refined channel-extension upper bound for the given control sequence.

    ``ch`` is a :class:`~qmetro.channel_model.DephasingFamily` or a
    :class:`~qmetro.channel_model.OneParamChannel`; ``steps`` supply the
    per-step controls and gauges.  The returned total upper-bounds the QFI of
    every input state and measurement run through the same sequence.
    """
    if not steps:
        raise ValidationError("steps must be nonempty")
    if isinstance(ch, DephasingFamily):
        base = dephasing_channel(ch)
        fam = ch
    else:
        base = ch
        fam = None
    if base.dim != 2:
        raise ValidationError("extension_bound runs on qubit channels")
    ks = [p.k for p in base.kraus]
    chan = pauli_sandwich(ks, ks).real / 2.0
    chan[0] = (1.0, 0.0, 0.0, 0.0)  # trace preservation, exactly
    iota = np.array([2.0, 0.0, 0.0, 0.0])  # coordinates of I
    gamma = np.zeros(4)
    alpha_terms, cross_terms, gamma_norms = [], [], []
    gauge_key = control = None
    for step in steps:
        if step.gauge is None and fam is None:
            raise ValidationError("explicit gauges are required for general one-parameter channels")
        key = id(step.gauge) if step.gauge is not None else iota.tobytes()
        if key != gauge_key:
            gauge = step.gauge if step.gauge is not None else nonunital_gauge(fam, pauli_compose(iota))
            a, b, u = step_coordinates(gauged_pairs(base, gauge))
            gauge_key = key
        if step.control is not control:
            control, c = step.control, step.control.matrix
        alpha_terms.append(2.0 * (iota @ a))
        if gamma_norms:
            cross_terms.append(4.0 * (gamma @ b))
        gamma = c @ (chan @ gamma + u @ iota)
        gamma_norms.append(float(max(abs(gamma[0]), np.linalg.norm(gamma[1:]))))
        iota = c @ (chan @ iota)
    total = float(sum(alpha_terms) + sum(cross_terms))
    return BoundReport(
        n=len(steps),
        total=total,
        alpha_terms=tuple(alpha_terms),
        cross_terms=tuple(cross_terms),
        gamma_norms=tuple(gamma_norms),
    )


# ---------------------------------------------------------------------------
# Constant ceilings
# ---------------------------------------------------------------------------


def rgnks_violated_bound(fam: DephasingFamily) -> float:
    """Constant QFI ceiling ``(Tr(G- Z)^2 + 4 pdot^2) / (p^2 (1-p)^2)``.

    Applies to dephasing families with ``G0, G1`` proportional to Z (RGNKS
    violated) under unital controls.
    """
    if rgnks_check(fam):
        raise NotApplicableError("RGNKS holds: the constant ceiling does not apply")
    tr_gm_z = np.trace(fam.g_minus @ Z).real
    p = fam.p
    return float((tr_gm_z**2 + 4.0 * fam.pdot**2) / (p * p * (1.0 - p) ** 2))


def contractive_bound(ch: OneParamChannel) -> float:
    """Ceiling ``F(E) / (1 - sqrt(eta))^2`` for strictly contractive channels.

    ``eta`` is the trace-norm contraction coefficient (an upper bound on the
    QFI contraction coefficient), so the returned value remains a valid,
    possibly loose, ceiling on any sequential-strategy QFI.
    """
    ptm = ptm_from_kraus(ch.kraus_set())
    eta = eta_bound(ptm)
    if eta >= 1.0 - 1e-9:
        raise NotApplicableError(f"channel is not strictly contractive (eta = {eta:.9f})")
    f_channel = channel_qfi_no_ancilla(ch)
    return float(f_channel / (1.0 - np.sqrt(eta)) ** 2)


def bounded_ancilla_multiplier(n_ancilla: int) -> float:
    """Factor ``2^{n_A}`` carried by the linear QFI bound with ``n_A`` noiseless ancillas.

    With unital controls acting across the probe and a bounded ancilla, the
    channel-extension bound grows by at most this factor; the recursion itself
    is not extended to the enlarged system here.
    """
    if n_ancilla < 0:
        raise DomainError("ancilla count must be nonnegative")
    return float(2**n_ancilla)


@dataclass(frozen=True)
class BlochInequalityReport:
    holds: bool
    lhs: float
    rhs: float


def bloch_inequality_check(ptm: PauliTransferMap) -> BlochInequalityReport:
    """Necessary CPTP condition ``||t||^2 <= (1 - s_min(T)^2)(1 - ||T||^2)``."""
    svals = np.linalg.svd(ptm.T, compute_uv=False)
    lhs = float(ptm.t @ ptm.t)
    rhs = float((1.0 - svals.min() ** 2) * (1.0 - svals.max() ** 2))
    return BlochInequalityReport(holds=lhs <= rhs + 1e-10, lhs=lhs, rhs=rhs)
