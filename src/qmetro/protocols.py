"""Simulators for the metrological strategies compared in the worked example.

Every protocol propagates a Bloch vector and its parameter derivative
analytically (finite differences are reserved for test oracles).  For a
dephasing family the one-step update under a control ``(t_k, T_k)`` is

    ``v_k  = t_k + T_k M v_{k-1}``
    ``dv_k = T_k D v_{k-1} + T_k M dv_{k-1}``

with ``M = diag(1-2p, 1-2p, 1)`` and the drive matrix ``D`` assembled from
``Tr(G± {X,Y,Z})`` and ``pdot``.  The update is affine in
``z = (v, dv, 1) ∈ R⁷``: ``channel_model._lift`` lifts Bloch data ``(t, T; dt, dT)``
to the 7x7 matrix ``[[T, 0, t], [dT, T, dt], [0, 0, 1]]``, a channel with its
derivative and a control ``(t_k, T_k)`` with none.  A constant control therefore
runs ``n`` steps as ``(C K)^n z_0``, which :func:`_advance` applies in
O(log n) products by binary powering on the offset ``C K - I``, so that it
rounds no worse than the step-by-step loop.  Per-step controls (and
trajectory recording) form all step offsets ``C_k K - I`` in one batched
expression and compose them pairwise in offset form, in log2 n batched
products; a :class:`ControlSequence` keeps its last product, keyed by the
channel's lifted kernel and ``n``, so many start states through one sequence
share one composition.  A trajectory reads every prefix product off the same
tree, so its last point is the plain run's terminal.  These up- and down-sweeps
live in ``qubit_core`` (``_up_sweep``, ``_down_sweep``), and :mod:`qmetro.bounds`
runs its recursion on them.

The QEC protocol runs on the logical qubit of the repetition code.  The
recovery returns every state to the code space ``span{|+0>, |-1>}`` and the
input is its ``|+_L>``, so one step is exactly the lifted map with ``T = I``
and ``dT = 2 (1-2p) G_z`` (``G_z`` the generator of a z rotation), one more
7x7 step that :func:`_advance` raises to the power ``n``.

Each per-n protocol has a rows form (``*_rows``) that takes a sequence of
step counts ``ns`` and returns one value per entry.  It runs its argument
checks in the one helper it shares with its per-n sibling, builds the steps
as that sibling does, and advances all rows of a block of ``ROWS_PER_BLOCK``
together, so each value is bitwise the per-n call's.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from .channel_model import (
    DephasingFamily,
    NotApplicableError,
    OneParamChannel,
    _lift,
    _read_only,
)
from .fisher_info import _bloch_qfi, qfi_bloch
from .qubit_core import (
    X,
    Y,
    BlochState,
    DomainError,
    PauliTransferMap,
    ValidationError,
    _down_sweep,
    _overflow_is_domain_error,
    _up_sweep,
    ptm_derivative_from_kraus,
    ptm_from_kraus,
    require_cptp,
)

__all__ = [
    "ControlSequence",
    "ProtocolResult",
    "simulate_sequence",
    "no_control_rows",
    "sql_control_ptm",
    "sql_protocol",
    "sql_protocol_rows",
    "sql_asymptotic",
    "repeated_measurement",
    "repeated_measurement_rows",
    "spam_fi",
    "spam_fi_rows",
    "qec_repetition_sim",
    "qec_repetition_rows",
    "qec_analytic",
    "no_control_fixed_point",
    "SQL_VARIANTS",
    "ROWS_PER_BLOCK",
]

SQL_VARIANTS = ("g0x", "g0y", "g1x", "g1y")
ROWS_PER_BLOCK = 1024  # rows a rows form advances together; bounds its (N, 7, 7) step stack
_EYE7 = np.eye(7)


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
        if constant and len(maps) > 1:
            raise ValidationError(f"a constant ControlSequence holds one map, got {len(maps)}")
        for m in maps:
            if not m.validated:
                require_cptp(m)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "constant", bool(constant))

    @cached_property
    def _offsets(self) -> np.ndarray:
        """The lifted offsets ``C_k - I`` of the maps, stacked on first use only, read-only."""
        return _read_only(_lift([m.t for m in self.maps], [m.T for m in self.maps], 0.0, 0.0) - _EYE7)

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


def _advance(e: np.ndarray, n, z: np.ndarray) -> np.ndarray:
    """``(I + e)^n z`` by binary powering carried out on the offset ``e`` from ``I``.

    One run takes an int ``n``, a (d, d) ``e`` and a (d,) ``z``.  Many rows take
    an int array ``n`` of shape (N,), an ``e`` shared by all rows (d, d) or one
    per row (N, d, d), and a ``z`` shared (d,) or per row (N, d); they return
    the (N, d) rows.  Squaring ``I + e`` directly would round each product
    against the identity, so the error along an eigenvalue near 1 doubles with
    every squaring and reaches ``n eps``.  ``(I + e)^2 - I = 2e + e e`` rounds
    against ``|e|`` instead.  Each squared offset is applied to the vector and
    its image accumulated in the offset ``d = ((I + e)^m - I) z`` of the bits
    done so far, ``d <- d + e (z + d)``; ``z + d`` is formed once at the end.
    This keeps the power as accurate as the step-by-step loop (the QFI of a
    nearly pure state divides by ``1 - |v|^2``).  A row is touched only when
    its current bit is set, and its ``e`` is squared only while its ``n`` has
    bits left, so each row does exactly the arithmetic (and meets exactly the
    floating-point exceptions) of its one-row call.
    """
    if np.ndim(n) == 0:
        d = np.zeros_like(z)
        while n:
            if n & 1:
                d = d + e @ (z + d)
            n >>= 1
            if n:
                e = 2.0 * e + e @ e
        return z + d
    n = np.asarray(n)  # object dtype when an n exceeds int64
    z = np.broadcast_to(z, n.shape + np.shape(z)[-1:])
    d = np.zeros(z.shape, dtype=np.result_type(e, z))
    rows = np.flatnonzero(n)  # the rows whose n still has bits left
    n = n[rows]
    if e.ndim == 3:
        e = e[rows]  # aligned with rows
    while rows.size:
        odd = (n & 1).astype(bool)
        if odd.any():
            r, step = rows[odd], e if e.ndim == 2 else e[odd]
            d[r] = d[r] + (step @ (z[r] + d[r])[..., None])[..., 0]
        n = n >> 1
        more = n != 0
        rows, n = rows[more], n[more]
        if rows.size:
            if e.ndim == 3:
                e = e[more]
            e = 2.0 * e + e @ e
    return z + d


def _rows_form(per_block):
    """The rows form ``f(first, ns, ...)`` of ``per_block``, run over ``ns`` in blocks of
    ``ROWS_PER_BLOCK`` rows; one float per entry of ``ns``, none (and no checks) for none."""

    @wraps(per_block)
    def rows(first, ns, *args, **kwargs) -> np.ndarray:
        ns = np.asarray(ns)
        values = np.empty(len(ns))
        for lo in range(0, len(ns), ROWS_PER_BLOCK):
            values[lo : lo + ROWS_PER_BLOCK] = per_block(first, ns[lo : lo + ROWS_PER_BLOCK], *args, **kwargs)
        return values

    return rows


def _lifted_kernel(fam) -> np.ndarray:
    """The 7x7 map of one channel use on ``(v, dv, 1)``: a family's exact ``transfer_matrix``,
    or a channel's Bloch data ``(t, T; dt, dT)`` read from its stacked Kraus pairs and lifted."""
    if isinstance(fam, DephasingFamily):
        return fam.transfer_matrix
    if isinstance(fam, OneParamChannel):
        ptm = ptm_from_kraus(fam.kraus_set())
        return _lift(ptm.t, ptm.T, *ptm_derivative_from_kraus(fam.k_ops, fam.dk_ops))
    raise ValidationError(f"unsupported channel description: {type(fam).__name__}")


def _kernel_steps(kernel: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Offsets ``C_k K - I`` of the lifted steps from the channel's lifted ``kernel`` ``K`` and
    the stacked control offsets ``c = C_k - I``.

    Formed from the exact offsets of ``C`` and ``K``: ``(I + c)(I + k) - I = c + k + c k``.
    """
    k = kernel - _EYE7
    return c + k + c @ k


def _step_offsets(fam, shifts, rotations) -> np.ndarray:
    """Offsets ``C K - I`` of the lifted steps: one (7, 7) for one control ``(t, T)``, or one
    per control for stacked rotations (N, 3, 3); a control has no derivative part."""
    return _kernel_steps(_lifted_kernel(fam), _lift(shifts, rotations, 0.0, 0.0) - _EYE7)


def _start(v0: BlochState) -> np.ndarray:
    return np.concatenate([v0.v, v0.dv, [1.0]])


def _axis_state(z0: float) -> BlochState:
    """The start ``(0, 0, z0)`` with no derivative."""
    return BlochState(np.array([0.0, 0.0, z0]), np.zeros(3))


def _bloch_result(n, z: np.ndarray, trajectory=None) -> ProtocolResult:
    """The result of a run that ends in ``z = (v, dv, 1)``: its QFI and terminal state."""
    v, dv = z[:3], z[3:6]
    return ProtocolResult(n=n, qfi_or_fi=qfi_bloch((v, dv)), terminal=BlochState(v, dv), trajectory=trajectory)


def _require_steps(n_min) -> int:
    """A step count (or a run's smallest) as an int: :class:`ValidationError` when it is not an
    integer, :class:`DomainError` when it is negative."""
    try:
        n_min = operator.index(n_min)
    except TypeError as exc:
        raise ValidationError(f"n must be an integer, got {n_min!r}") from exc
    if n_min < 0:
        raise DomainError("n must be nonnegative")
    return n_min


def _float_steps(n) -> float:
    """A step count (or block count) as a float; :class:`DomainError` when it has none."""
    try:
        return float(n)
    except OverflowError as exc:
        raise DomainError(f"{exc}: the step count overflows") from exc


def simulate_sequence(
    fam,
    controls: ControlSequence,
    v0: BlochState,
    n: int,
    record_trajectory: bool = False,
) -> ProtocolResult:
    """Propagate (v, dv) through ``n`` channel applications with interleaved controls.

    Returns the QFI of the terminal state.  A constant control without
    trajectory recording costs one 7x7 binary power; otherwise the ``n`` lifted
    steps are composed pairwise in log2 n batched products, and the product is
    applied to the start once.  Without a trajectory, ``controls`` keeps that
    product for the next call of the same channel kernel and ``n``, so a
    sequence is composed once per channel and length and reused, bit for bit,
    for every start.  Both paths of a per-step run compose the same product,
    so recording a trajectory leaves the terminal unchanged.  :class:`ValidationError`
    when ``n`` is not an integer.
    """
    n = _require_steps(n)
    kernel = _lifted_kernel(fam)
    if n and not (controls.constant or record_trajectory):
        key = (kernel.tobytes(), n)  # the product's one-entry memo, in the instance dict
        controls.require_length(n)
        if controls.__dict__.get("_product", (None,))[0] != key:
            controls.__dict__["_product"] = key, _up_sweep(_kernel_steps(kernel, controls._offsets[:n]))[-1][0]
        z = _start(v0)
        return _bloch_result(n, z + controls._product[1] @ z)
    steps = _kernel_steps(kernel, controls._offsets[: 1 if controls.constant else n])
    controls.require_length(n)
    z = _start(v0)
    if controls.constant and not record_trajectory:
        return _bloch_result(n, _advance(steps[0], n, z))
    points = [z]
    if n:
        levels = _up_sweep(np.broadcast_to(steps, (n, 7, 7)))
        if record_trajectory:
            points += list(z + _down_sweep(levels)[:-1] @ z)
        points.append(z + levels[-1][0] @ z)
    trajectory = tuple(BlochState(s[:3], s[3:6]) for s in points) if record_trajectory else None
    return _bloch_result(n, points[-1], trajectory)


def _constant_rows(fam, ns, v0: BlochState, shifts, rotations) -> list:
    """:func:`simulate_sequence`'s results at each n of ``ns`` under a constant control:
    one ``(t, T)`` for all rows, or one per row (``rotations`` of shape (N, 3, 3))."""
    _require_steps(ns.min())
    z = _advance(_step_offsets(fam, shifts, rotations), ns, _start(v0))
    return [_bloch_result(n, row) for n, row in zip(ns, z)]


@_rows_form
def no_control_rows(fam, ns, z0: float = 1.0):
    """The control-free, measurement-free run from ``(0, 0, z0)`` at each n of ``ns``: the QFI of
    ``simulate_sequence(fam, ControlSequence.identity(), start, n)``."""
    identity = PauliTransferMap.identity()
    return [r.qfi_or_fi for r in _constant_rows(fam, ns, _axis_state(z0), identity.t, identity.T)]


# ---------------------------------------------------------------------------
# The SQL-achieving unitary-control protocol
# ---------------------------------------------------------------------------


def _sql_trace(fam: DephasingFamily, variant: str, w: float, z0: float, n_min: int = 1) -> float:
    """The driving trace ``Tr(G A)`` of an SQL variant, once its arguments pass their checks;
    ``n_min`` is the smallest step count of the run."""
    if _require_steps(n_min) < 1:
        raise DomainError("n must be at least 1")
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


def _sql_rotation(variant: str, phi: float) -> np.ndarray:
    """Bloch rotation of the control ``exp(-i phi A / 2)``, times Z for the G1 variants
    (which negates the first two columns)."""
    c, s = math.cos(phi), math.sin(phi)
    g = -1.0 if variant in ("g1x", "g1y") else 1.0
    if variant in ("g0x", "g1x"):
        return np.array([[g, 0.0, 0.0], [0.0, g * c, -s], [0.0, g * s, c]])
    return np.array([[g * c, 0.0, s], [0.0, g, 0.0], [-g * s, 0.0, c]])


def sql_control_ptm(variant: str, phi: float) -> PauliTransferMap:
    """Bloch rotation of the constant control ``exp(-i phi A / 2)`` (times Z for G1 variants)."""
    return PauliTransferMap(np.zeros(3), _sql_rotation(variant, phi), validated=True)


def sql_protocol(
    fam: DephasingFamily, n: int, w: float, variant: str = "g0x", z0: float = 1.0
) -> ProtocolResult:
    """Constant-unitary-control protocol achieving the SQL when RGNKS holds.

    Applies ``U = exp(-i sqrt(w/n) A / 2)`` (``A`` the variant's Pauli axis,
    with an extra Z factor for the G1 variants) after each channel use,
    starting from ``(0, 0, z0)``.
    """
    _sql_trace(fam, variant, w, z0, n)
    control = ControlSequence(sql_control_ptm(variant, math.sqrt(w / _float_steps(n))))
    result = simulate_sequence(fam, control, _axis_state(z0), n)
    return ProtocolResult(
        n=result.n,
        qfi_or_fi=result.qfi_or_fi,
        meta={"w": w, "variant": variant, "z0": z0},
        terminal=result.terminal,
    )


def _sql_results(fam: DephasingFamily, ns: np.ndarray, w: float, variant: str, z0: float) -> list:
    """:func:`sql_protocol`'s checks, then the run at each n of ``ns``, each under its own control."""
    _sql_trace(fam, variant, w, z0, ns.min())
    rotations = [_sql_rotation(variant, math.sqrt(w / _float_steps(n))) for n in ns]
    return _constant_rows(fam, ns, _axis_state(z0), np.zeros(3), rotations)


@_rows_form
def sql_protocol_rows(fam: DephasingFamily, ns, w: float, variant: str = "g0x", z0: float = 1.0):
    """The QFI of :func:`sql_protocol` at each n of ``ns``."""
    return [r.qfi_or_fi for r in _sql_results(fam, ns, w, variant, z0)]


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


def _pole_interval(fam: DephasingFamily, interval: int, n_min: int) -> float:
    """The QFI one interval of ``interval`` control-free steps accumulates from ``(0, 0, 1)``,
    once ``interval`` and the smallest step count ``n_min`` pass their checks."""
    if interval < 1:
        raise DomainError("interval must be at least 1")
    _require_steps(n_min)
    return simulate_sequence(fam, ControlSequence.identity(), _axis_state(1.0), interval).qfi_or_fi


def repeated_measurement(fam: DephasingFamily, n: int, interval: int) -> ProtocolResult:
    """Reset-and-measure protocol: optimal measurement every ``interval`` steps from ``(0, 0, 1)``.

    The FI is the number of completed intervals times the QFI accumulated in
    one interval; remainder steps are dropped and recorded in the metadata.
    """
    per_interval = _pole_interval(fam, interval, n)
    blocks = n // interval
    return ProtocolResult(
        n=n,
        qfi_or_fi=_float_steps(blocks) * per_interval,
        meta={
            "interval": interval,
            "blocks": blocks,
            "remainder": n % interval,
            "per_interval_qfi": per_interval,
        },
    )


@_rows_form
def repeated_measurement_rows(fam: DephasingFamily, ns, interval: int):
    """The FI of :func:`repeated_measurement` at each n of ``ns``: ``(n // interval)`` times
    one per-interval QFI."""
    per_interval = _pole_interval(fam, interval, ns.min())
    return [ProtocolResult(n=n, qfi_or_fi=_float_steps(int(n) // interval) * per_interval).qfi_or_fi for n in ns]


def _spam_bias(fam: DephasingFamily, n_min: int, w: float, q: float, variant: str) -> float:
    """The bias ``z0 = 1 - 2q`` of the SPAM input and readout, once ``q`` passes its check.  At
    ``q = 1/2`` (``z0 = 0``, a zero FI) the SQL run's checks run here, all but ``z0``'s."""
    if not 0.0 <= q <= 0.5:
        raise DomainError("q must lie in [0, 1/2]")
    if q == 0.5:
        _sql_trace(fam, variant, w, 1.0, n_min)
    return 1.0 - 2.0 * q


def _spam_readout(z0: float, terminal: BlochState) -> float:
    """FI of the readout ``{M, I - M}`` on a terminal Bloch pair, ``M`` of bias ``z0 = 1 - 2q``."""
    s, ds = z0 * terminal.v[2], z0 * terminal.dv[2]
    return float(_bloch_qfi(ds * ds, s * ds, 1.0 - s * s)[0])


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
    z0 = _spam_bias(fam, n, w, q, variant)
    if z0 <= 0.0:
        return 0.0  # input is maximally mixed and the POVM element is I/2
    return _spam_readout(z0, sql_protocol(fam, n, w, variant=variant, z0=z0).terminal)


@_rows_form
def spam_fi_rows(fam: DephasingFamily, ns, w: float, q: float, variant: str = "g0x"):
    """:func:`spam_fi` at each n of ``ns``."""
    z0 = _spam_bias(fam, ns.min(), w, q, variant)
    if z0 <= 0.0:
        return 0.0
    return [_spam_readout(z0, r.terminal) for r in _sql_results(fam, ns, w, variant, z0)]


# ---------------------------------------------------------------------------
# Two-qubit repetition-code QEC protocol
# ---------------------------------------------------------------------------


_QEC_PLUS = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])  # |+_L>: v = (1, 0, 0), no derivative
_G_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # generator of a z rotation


def _qec_step(p: float) -> np.ndarray:
    """The offset ``S - I`` of one logical QEC step, once ``p`` passes its check: the logical
    qubit is kept (``T = I``) and turns about z at ``dT = 2 (1-2p) G_z``."""
    if not 0.0 < p <= 0.5:
        raise DomainError("p must lie in (0, 1/2]")
    return _lift(0.0, np.eye(3), 0.0, 2.0 * (1.0 - 2.0 * p) * _G_Z) - _EYE7


def qec_repetition_sim(p: float, n: int) -> ProtocolResult:
    """Error-corrected estimation of the dephasing + X-rotation channel.

    Input ``(|+>|0>_A + |->|1>_A)/sqrt(2)``; each step applies the channel to
    the probe qubit, measures the syndrome ``X x Z_A`` and applies
    ``Z x I`` on outcome -1.  The recovery returns every state to the code
    space ``span{|+0>, |-1>}``, where the input is ``|+_L>`` and ``X x I`` acts
    as ``Z_L``.  A flipped branch turns the other way, so after its correction
    one step is the identity with derivative ``-i (1-2p) [Z_L, .]``.
    The ``n`` steps are one power of that 7x7 lifted step on the logical
    ``(v, dv, 1)``; the result's ``terminal`` is the logical Bloch pair, and its
    QFI is ``4 (1-2p)^2 n^2``.
    """
    step = _qec_step(p)
    n = _require_steps(n)
    return _bloch_result(n, _advance(step, n, _QEC_PLUS))


@_rows_form
def qec_repetition_rows(p: float, ns):
    """The QFI of :func:`qec_repetition_sim` at each n of ``ns``."""
    step = _qec_step(p)
    _require_steps(ns.min())
    return [_bloch_result(n, z).qfi_or_fi for n, z in zip(ns, _advance(step, ns, _QEC_PLUS))]


@_overflow_is_domain_error
def qec_analytic(p: float, n: int) -> float:
    """Heisenberg-limited QFI ``4 (1-2p)^2 n^2`` of the repetition code; :class:`DomainError` on overflow."""
    if not 0.0 < p <= 0.5:
        raise DomainError("p must lie in (0, 1/2]")
    _require_steps(n)
    return float(np.float64(4.0) * (1.0 - 2.0 * p) ** 2 * n * n)  # numpy scalars obey the error state


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
