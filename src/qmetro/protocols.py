"""Simulators for the metrological strategies compared in the worked example.

Every protocol propagates a Bloch vector and its parameter derivative
analytically (finite differences are reserved for test oracles).  For a
dephasing family the one-step update under a control ``(t_k, T_k)`` is

    ``v_k  = t_k + T_k M v_{k-1}``
    ``dv_k = T_k D v_{k-1} + T_k M dv_{k-1}``

with ``M = diag(1-2p, 1-2p, 1)`` and the drive matrix ``D`` assembled from
``Tr(G± {X,Y,Z})`` and ``pdot``.  The update is affine in
``z = (v, dv, 1) ∈ R⁷``: a channel with Bloch data ``(t, T; dt, dT)`` lifts
to the 7x7 matrix ``[[T, 0, t], [dT, T, dt], [0, 0, 1]]`` and a control to
``[[T_k, 0, t_k], [0, T_k, 0], [0, 0, 1]]``.  A constant control therefore
runs ``n`` steps as one matrix power ``(C K)^n z_0`` in O(log n) products,
carried out on the offset ``C K - I`` so that it rounds no worse than the
step-by-step loop; per-step controls (and trajectory recording) apply the
lifted steps one by one.

The QEC protocol propagates the full two-qubit density matrix and its
derivative through the repetition-code recovery channel.  One step is the
linear map ``(rho, drho) -> (R D rho, R A D rho + R D drho)`` on row-major
vectorized 4x4 matrices (``D`` dephasing, ``A`` the generator commutator,
``R`` the recovery), a 32x32 superoperator that is likewise raised to the
power ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel_model import (
    DephasingFamily,
    NotApplicableError,
    OneParamChannel,
)
from .fisher_info import Povm, _bloch_qfi, qfi_bloch, qfi_state
from .qubit_core import (
    I2,
    X,
    Y,
    Z,
    BlochState,
    DensityState,
    DomainError,
    PauliTransferMap,
    ValidationError,
    _overflow_is_domain_error,
    ptm_derivative_from_kraus,
    ptm_from_kraus,
    require_cptp,
)

__all__ = [
    "ControlSequence",
    "ProtocolResult",
    "BlochKernel",
    "simulate_sequence",
    "sql_control_ptm",
    "sql_protocol",
    "sql_asymptotic",
    "repeated_measurement",
    "spam_fi",
    "spam_povm",
    "qec_repetition_sim",
    "qec_analytic",
    "no_control_fixed_point",
    "SQL_VARIANTS",
]

SQL_VARIANTS = ("g0x", "g0y", "g1x", "g1y")


@dataclass(frozen=True, init=False)
class ControlSequence:
    """Constant or per-step interleaved controls as Pauli transfer maps."""

    maps: tuple
    constant: bool

    def __init__(self, maps, constant: bool | None = None):
        if isinstance(maps, PauliTransferMap):
            maps = (maps,)
            constant = True
        else:
            maps = tuple(maps)
            if constant is None:
                constant = len(maps) == 1
        if not maps:
            raise ValidationError("ControlSequence needs at least one map")
        for m in maps:
            if not m.validated:
                require_cptp(m)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "constant", bool(constant))

    @staticmethod
    def identity() -> "ControlSequence":
        return ControlSequence(PauliTransferMap.identity())

    def require_length(self, n: int):
        if not self.constant and len(self.maps) < n:
            raise ValidationError(f"need {n} controls, have {len(self.maps)}")


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol run."""

    n: int
    qfi_or_fi: float
    meta: dict = field(default_factory=dict)
    terminal: BlochState | None = None
    trajectory: tuple | None = None

    def __post_init__(self):
        if not math.isfinite(self.qfi_or_fi):
            raise DomainError(f"qfi_or_fi is not finite ({self.qfi_or_fi}): the inputs overflow")
        if self.qfi_or_fi < -1e-12:
            raise ValidationError("qfi_or_fi must be nonnegative")


@dataclass(frozen=True)
class BlochKernel:
    """Bloch-space data (T, dT; t, dt) of a one-parameter qubit channel at theta=0."""

    t: np.ndarray
    T: np.ndarray
    dt: np.ndarray
    dT: np.ndarray

    @staticmethod
    def from_family(fam: DephasingFamily) -> "BlochKernel":
        p = fam.p
        m = np.diag([1.0 - 2.0 * p, 1.0 - 2.0 * p, 1.0])
        _, tx, ty, tz = fam.g_minus_coords
        _, px, py, _ = fam.g_plus_coords
        d = np.array(
            [
                [-2.0 * fam.pdot, -tz, ty],
                [tz, -2.0 * fam.pdot, -tx],
                [-py, px, 0.0],
            ]
        )
        return BlochKernel(np.zeros(3), m, np.zeros(3), d)

    @staticmethod
    def from_channel(ch: OneParamChannel) -> "BlochKernel":
        ptm = ptm_from_kraus(ch.kraus_set())
        dt, dT = ptm_derivative_from_kraus(zip(ch.k_ops, ch.dk_ops))
        return BlochKernel(ptm.t, ptm.T, dt, dT)

    def lifted(self) -> np.ndarray:
        """The 7x7 affine map of one channel use on ``(v, dv, 1)``."""
        return _lift(self.t, self.T, self.dt, self.dT)


def _lift(t, T, dt=0.0, dT=0.0) -> np.ndarray:
    """``[[T, 0, t], [dT, T, dt], [0, 0, 1]]``, batched over leading axes of ``T``.

    A control map has no derivative part: ``dt = dT = 0``.
    """
    T = np.asarray(T)
    s = np.zeros(T.shape[:-2] + (7, 7))
    s[..., :3, :3] = s[..., 3:6, 3:6] = T
    s[..., 3:6, :3] = dT
    s[..., :3, 6] = t
    s[..., 3:6, 6] = dt
    s[..., 6, 6] = 1.0
    return s


def _power_minus_identity(e: np.ndarray, n: int) -> np.ndarray:
    """``(I + e)^n - I`` by binary powering carried out on the offset from ``I``.

    Squaring ``I + e`` directly rounds each product against the identity, so
    the error along an eigenvalue near 1 doubles with every squaring and
    reaches ``n eps``.  ``(I + a)(I + b) - I = a + b + ab`` rounds against
    ``|a|`` and ``|b|`` instead, which keeps the power as accurate as the
    step-by-step loop (the QFI of a nearly pure state divides by ``1 - |v|^2``).
    """
    f = np.zeros_like(e)
    while n:
        if n & 1:
            f = f + e + f @ e
        n >>= 1
        if n:
            e = 2.0 * e + e @ e
    return f


def _kernel_of(fam) -> BlochKernel:
    if isinstance(fam, DephasingFamily):
        return BlochKernel.from_family(fam)
    if isinstance(fam, OneParamChannel):
        return BlochKernel.from_channel(fam)
    raise ValidationError(f"unsupported channel description: {type(fam).__name__}")


def simulate_sequence(
    fam,
    controls: ControlSequence,
    v0: BlochState,
    n: int,
    record_trajectory: bool = False,
) -> ProtocolResult:
    """Propagate (v, dv) through ``n`` channel applications with interleaved controls.

    Returns the QFI of the terminal state.  A constant control without
    trajectory recording costs one 7x7 matrix power; otherwise the lifted
    steps are applied one at a time.  Each step ``C K`` is held as its
    offset ``C K - I``, formed from the exact offsets of ``C`` and ``K``.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    kernel = _kernel_of(fam)
    controls.require_length(n)
    eye = np.eye(7)
    k = kernel.lifted() - eye
    maps = controls.maps[: 1 if controls.constant else n]
    shifts = np.reshape([m.t for m in maps], (-1, 3))
    c = _lift(shifts, np.reshape([m.T for m in maps], (-1, 3, 3))) - eye
    steps = c + k + c @ k
    z = np.concatenate([v0.v, v0.dv, [1.0]])
    traj = [z] if record_trajectory else None
    if controls.constant and not record_trajectory:
        z = z + _power_minus_identity(steps[0], n) @ z
    else:
        for i in range(n):
            z = z + steps[0 if controls.constant else i] @ z
            if traj is not None:
                traj.append(z)
    v, dv = z[:3], z[3:6]
    return ProtocolResult(
        n=n,
        qfi_or_fi=qfi_bloch((v, dv)),
        terminal=BlochState(v, dv),
        trajectory=None if traj is None else tuple(BlochState(s[:3], s[3:6]) for s in traj),
    )


# ---------------------------------------------------------------------------
# The SQL-achieving unitary-control protocol
# ---------------------------------------------------------------------------


def _sql_trace(fam: DephasingFamily, variant: str, w: float, z0: float) -> float:
    """The driving trace ``Tr(G A)`` of an SQL variant, once its arguments pass their checks."""
    if w <= 0.0:
        raise DomainError("w must be positive")
    if not 0.0 < z0 <= 1.0:
        raise DomainError("z0 must lie in (0, 1]")
    if variant not in SQL_VARIANTS:
        raise DomainError(f"variant must be one of {SQL_VARIANTS}, got {variant!r}")
    g, axis = fam.g0 if variant[1] == "0" else fam.g1, X if variant[2] == "x" else Y
    tr = float(np.trace(g @ axis).real)
    if abs(tr) < 1e-12:
        raise NotApplicableError(f"variant {variant}: the driving trace vanishes, no signal")
    return tr


def sql_control_ptm(variant: str, phi: float) -> PauliTransferMap:
    """Bloch rotation of the constant control ``exp(-i phi A / 2)`` (times Z for G1 variants)."""
    c, s = np.cos(phi), np.sin(phi)
    if variant in ("g0x", "g1x"):
        rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    else:
        rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if variant in ("g1x", "g1y"):
        rot = rot @ np.diag([-1.0, -1.0, 1.0])
    return PauliTransferMap(np.zeros(3), rot, validated=True)


def sql_protocol(
    fam: DephasingFamily, n: int, w: float, variant: str = "g0x", z0: float = 1.0
) -> ProtocolResult:
    """Constant-unitary-control protocol achieving the SQL when RGNKS holds.

    Applies ``U = exp(-i sqrt(w/n) A / 2)`` (``A`` the variant's Pauli axis,
    with an extra Z factor for the G1 variants) after each channel use,
    starting from ``(0, 0, z0)``.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    _sql_trace(fam, variant, w, z0)
    control = ControlSequence(sql_control_ptm(variant, np.sqrt(w / n)))
    result = simulate_sequence(fam, control, BlochState(np.array([0.0, 0.0, z0]), np.zeros(3)), n)
    return ProtocolResult(
        n=result.n,
        qfi_or_fi=result.qfi_or_fi,
        meta={"w": w, "variant": variant, "z0": z0},
        terminal=result.terminal,
    )


@_overflow_is_domain_error
def sql_asymptotic(fam: DephasingFamily, w: float, variant: str = "g0x", z0: float = 1.0) -> float:
    """Leading QFI-per-step coefficient of the unitary-control protocol.

    For the G0 variants:
    ``((1-p)^2/p^2) w / (z0^{-2} e^{(1-p) w / p} - 1) Tr(G0 A)^2``;
    for the G1 variants the roles of ``p`` and ``1-p`` swap.  ``1 / (e^a - 1)``
    is evaluated as ``e^{-a} / (1 - e^{-a})``, which goes to 0 at large ``w``
    instead of overflowing; :class:`DomainError` when the coefficient overflows.
    """
    tr = _sql_trace(fam, variant, w, z0)
    p = np.float64(fam.p)  # numpy scalars obey the error state; Python floats do not
    if variant.startswith("g0"):
        ratio, expo = (1.0 - p) / p, (1.0 - p) * w / p
    else:
        ratio, expo = p / (1.0 - p), p * w / (1.0 - p)
    a = expo - 2.0 * np.log(z0)
    return float(ratio**2 * w * (np.exp(-a) / -np.expm1(-a)) * tr * tr)


# ---------------------------------------------------------------------------
# Repeated measurement and SPAM-noisy readout
# ---------------------------------------------------------------------------


def repeated_measurement(fam: DephasingFamily, n: int, interval: int) -> ProtocolResult:
    """Reset-and-measure protocol: optimal measurement every ``interval`` steps from ``(0, 0, 1)``.

    The FI is the number of completed intervals times the QFI accumulated in
    one interval; remainder steps are dropped and recorded in the metadata.
    """
    if interval < 1:
        raise DomainError("interval must be at least 1")
    if n < 0:
        raise DomainError("n must be nonnegative")
    pole = BlochState(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    per_interval = simulate_sequence(fam, ControlSequence.identity(), pole, interval)
    blocks = n // interval
    return ProtocolResult(
        n=n,
        qfi_or_fi=blocks * per_interval.qfi_or_fi,
        meta={
            "interval": interval,
            "blocks": blocks,
            "remainder": n % interval,
            "per_interval_qfi": per_interval.qfi_or_fi,
        },
    )


def spam_fi(
    fam: DephasingFamily,
    n: int,
    w: float,
    q: float,
    variant: str = "g0x",
) -> float:
    """FI of the unitary-control protocol under SPAM noise of rate ``q``.

    The input state is ``(1-q)|0><0| + q|1><1|`` and the readout is the fixed
    binary POVM ``{M, I - M}`` with ``M = (1-q)|0><0| + q|1><1|``, whose FI
    on the terminal Bloch pair is ``s'^2 / (1 - s^2)`` with ``s = (1-2q) v_z`` and
    ``s' = (1-2q) dv_z``; a noiseless readout at the pole (``s^2 = 1``) gets ``s'^2``.
    """
    if not 0.0 <= q <= 0.5:
        raise DomainError("q must lie in [0, 1/2]")
    z0 = 1.0 - 2.0 * q
    if z0 <= 0.0:
        return 0.0  # input is maximally mixed and the POVM element is I/2
    terminal = sql_protocol(fam, n, w, variant=variant, z0=z0).terminal
    s, ds = z0 * terminal.v[2], z0 * terminal.dv[2]
    return float(_bloch_qfi(ds * ds, s * ds, 1.0 - s * s)[0])


def spam_povm(q: float) -> Povm:
    """The fixed SPAM readout POVM ``{(1-q)|0><0| + q|1><1|, complement}``."""
    m = (1.0 - q) * np.array([[1, 0], [0, 0]], dtype=complex) + q * np.array(
        [[0, 0], [0, 1]], dtype=complex
    )
    return Povm([m, I2 - m])


# ---------------------------------------------------------------------------
# Two-qubit repetition-code QEC protocol
# ---------------------------------------------------------------------------


def _qec_transfer(p: float) -> np.ndarray:
    """32x32 map of one QEC step on ``(vec rho, vec drho)``, row-major vectorization.

    ``vec(A X B) = (A ⊗ Bᵀ) vec(X)``; the syndrome projectors
    ``P± = (I ± X⊗Z_A)/2`` are built exactly, so ``P+ + P- = I`` holds in
    floating point and the trace does not drift with ``n``.
    """
    z1 = np.kron(Z, I2)
    x1 = np.kron(X, I2)
    eye = np.eye(4)
    p_plus = (eye + np.kron(X, Z)) / 2.0
    flip = z1 @ (eye - np.kron(X, Z)) / 2.0  # Z on the probe after the -1 projector
    dephase = (1.0 - p) * np.eye(16) + p * np.kron(z1, z1)
    drive = -1j * (np.kron(x1, eye) - np.kron(eye, x1))
    recover = np.kron(p_plus, p_plus) + np.kron(flip, flip)
    step = recover @ dephase
    return np.block([[step, np.zeros((16, 16))], [recover @ drive @ dephase, step]])


def qec_repetition_sim(p: float, n: int) -> ProtocolResult:
    """Error-corrected estimation of the dephasing + X-rotation channel.

    Input ``(|+>|0>_A + |->|1>_A)/sqrt(2)``; each step applies the channel to
    the probe qubit, measures the syndrome ``X x Z_A`` and applies
    ``Z x I`` on outcome -1.  The recovery is realized as the deterministic
    sum over syndrome branches, the ``n`` steps as one power of the 32x32
    step superoperator, and the terminal QFI reproduces
    ``4 (1-2p)^2 n^2``.
    """
    if not 0.0 < p <= 0.5:
        raise DomainError("p must lie in (0, 1/2]")
    if n < 0:
        raise DomainError("n must be nonnegative")
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    psi0 = (np.kron(plus, e0) + np.kron(minus, e1)) / np.sqrt(2.0)
    z = np.concatenate([np.outer(psi0, psi0).ravel(), np.zeros(16)])
    z = z + _power_minus_identity(_qec_transfer(p) - np.eye(32), n) @ z
    qfi = qfi_state(DensityState(z[:16].reshape(4, 4), z[16:].reshape(4, 4)))
    return ProtocolResult(n=n, qfi_or_fi=qfi, meta={"p": p, "code": "two_qubit_repetition"})


def qec_analytic(p: float, n: int) -> float:
    """Heisenberg-limited QFI ``4 (1-2p)^2 n^2`` of the repetition-code protocol."""
    if not 0.0 < p <= 0.5:
        raise DomainError("p must lie in (0, 1/2]")
    if n < 0:
        raise DomainError("n must be nonnegative")
    return 4.0 * (1.0 - 2.0 * p) ** 2 * n * n


@_overflow_is_domain_error
def no_control_fixed_point(fam: DephasingFamily, z0: float = 1.0) -> float:
    """Large-n QFI constant of the control-free, measurement-free protocol.

    From ``v = (0, 0, z0)`` the transverse derivative converges to the fixed
    point of ``dv -> d + (1-2p) dv``, giving
    ``z0^2 (Tr(G- X)^2 + Tr(G- Y)^2) / (4 p^2)``.  Raises :class:`DomainError`
    when it overflows.
    """
    _, tx, ty, _ = fam.g_minus_coords
    p = np.float64(fam.p)
    return float(z0 * z0 * (tx * tx + ty * ty) / (4.0 * p * p))
