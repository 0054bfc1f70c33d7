import warnings

import numpy as np
import pytest

from qmetro import bounds
from qmetro.bounds import (
    BoundReport,
    ExtensionStep,
    _gauge_matrix,
    _nonunital_gauges,
    _stacked_coordinates,
    bloch_inequality_check,
    contractive_bound,
    bounded_ancilla_multiplier,
    extension_bound,
    nonunital_gauge,
    rgnks_violated_bound,
    step_coordinates,
    unital_gauge,
)
from qmetro.channel_model import (
    DephasingFamily,
    NotApplicableError,
    OneParamChannel,
    dephasing_channel,
    depolarizing_kraus,
    random_dephasing_family,
    random_one_param_channel,
    rotated_family,
    x_rotation_dephasing,
)
from qmetro.fisher_info import GaugeMatrix, _gauged_derivatives
from qmetro.protocols import ControlSequence, simulate_sequence
from qmetro.qubit_core import (
    I2,
    X,
    Y,
    Z,
    BlochState,
    DomainError,
    PauliTransferMap,
    ValidationError,
    apply_kraus,
    pauli_compose,
    pauli_decompose,
    ptm_from_kraus,
    random_cptp_kraus,
    random_rotation,
    random_unital_ptm,
)

IDENT = PauliTransferMap.identity()


def loop_gauged_pairs(ch, gauge):
    """Oracle: ``dK~_i = dK_i - i sum_j h_ij K_j`` one Kraus index at a time."""
    h = gauge.h
    ks = ch.k_ops
    out = []
    for i, (k, dk) in enumerate(zip(ks, ch.dk_ops)):
        out.append((k, dk - 1j * sum(h[i, j] * ks[j] for j in range(len(ks)))))
    return out


def coordinate_operators(ch, gauge, iota):
    """``(alpha, beta, ubeta)`` as 2x2 operators, composed from :func:`step_coordinates`."""
    a, b, u = step_coordinates(ch, gauge)
    return pauli_compose(a), pauli_compose(b), pauli_compose(u @ pauli_decompose(iota))


def random_hermitian_gauge(rng, r):
    a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return GaugeMatrix((a + a.conj().T) / 2.0)


def identity_steps(fam, n):
    g = unital_gauge(fam)
    return [ExtensionStep(IDENT, g)] * n


# ---------------------------------------------------------------------------
# Oracle: the recursion on 2x2 operators, step by step, with np.trace-built
# gauges and traces, as it ran before the Pauli-coordinate form replaced it
# ---------------------------------------------------------------------------


def trace_nonunital_gauge(fam, iota):
    p = fam.p
    z = np.trace(iota @ Z).real / 2.0
    if abs(z) >= 1.0:
        raise DomainError("control too non-unital")
    gp, gm = fam.g_plus, fam.g_minus
    tr_gp_z = np.trace(gp @ Z).real
    tr_gm_z = np.trace(gm @ Z).real
    g_plus = np.trace(iota @ gp).real / 2.0 - tr_gp_z / 2.0 * z
    g_minus = np.trace(iota @ gm).real / 2.0 - tr_gm_z / 2.0 * z
    sum_cond = -g_plus / (1.0 - z * z)
    dif_cond = -g_minus - tr_gm_z / 2.0 * z
    h00 = (sum_cond + dif_cond) / (2.0 * (1.0 - p))
    h11 = (sum_cond - dif_cond) / (2.0 * p)
    off = (z * g_plus / (1.0 - z * z) - tr_gp_z / 2.0) / (2.0 * np.sqrt(p * (1.0 - p)))
    return GaugeMatrix(np.array([[h00, off], [off, h11]], dtype=complex))


def matrix_step_operators(pairs, iota):
    alpha = sum(dk.conj().T @ dk for _, dk in pairs)
    beta = 1j * sum(k.conj().T @ dk for k, dk in pairs)
    beta = (beta + beta.conj().T) / 2.0
    cross = 0.5j * sum(dk @ iota @ k.conj().T for k, dk in pairs)
    return alpha, beta, cross + cross.conj().T


def apply_control(ptm, op):
    c = np.array([np.trace(op @ s).real for s in (I2, X, Y, Z)])
    v = c[0] * ptm.t + ptm.T @ c[1:]
    return (c[0] * I2 + v[0] * X + v[1] * Y + v[2] * Z) / 2.0


def matrix_extension_bound(ch, steps):
    """``(total, alpha_terms, cross_terms, gamma_norms)`` from the 2x2 step loop."""
    if isinstance(ch, DephasingFamily):
        base, fam = dephasing_channel(ch), ch
    else:
        base, fam = ch, None
    ks = base.k_ops
    iota = I2.copy()
    gamma = np.zeros((2, 2), dtype=complex)
    alphas, crosses, norms = [], [], []
    for k, step in enumerate(steps):
        gauge = step.gauge if step.gauge is not None else trace_nonunital_gauge(fam, iota)
        alpha, beta, ubeta0 = matrix_step_operators(loop_gauged_pairs(base, gauge), iota)
        alphas.append(4.0 * np.trace(iota @ alpha).real)
        if k:
            crosses.append(8.0 * np.trace(gamma @ beta).real)
        gamma = apply_control(step.control, apply_kraus(ks, gamma) + ubeta0)
        norms.append(np.linalg.svd(gamma, compute_uv=False).sum())
        iota = apply_control(step.control, apply_kraus(ks, iota))
    return sum(alphas) + sum(crosses), alphas, crosses, norms


def assert_matches_oracle(report, oracle, rtol=1e-12):
    """Total and every term to ``rtol``, relative to the term or, near 0, to the largest term."""
    total, alphas, crosses, norms = oracle
    assert abs(report.total - total) <= rtol * abs(total)
    pairs = ((report.alpha_terms, alphas), (report.cross_terms, crosses), (report.gamma_norms, norms))
    for got, want in pairs:
        assert len(got) == len(want)
        if want:
            floor = rtol * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=rtol, atol=floor)


# ---------------------------------------------------------------------------
# Oracle: the recursion as two per-step passes of 4x4 products in each block,
# as it ran before the prefix-product sweeps replaced them
# ---------------------------------------------------------------------------


def loop_extension_bound(ch, steps) -> BoundReport:
    fam = ch if isinstance(ch, DephasingFamily) else None
    base = ch if fam is None else dephasing_channel(fam)
    chan = ptm_from_kraus(base.kraus_set()).matrix
    n, r = len(steps), len(base.k_ops)
    # per step k: iotas[k] = iota_{k-1}, gammas[k] = gamma_k and the gauge's a and b
    iotas, gammas, a, b = np.empty((4, n, 4))
    iota, gamma = np.array([2.0, 0.0, 0.0, 0.0]), np.zeros(4)
    for lo in range(0, n, bounds._BLOCK):
        k = slice(lo, lo + bounds._BLOCK)
        block = steps[k]
        controls = np.array([step.control.matrix for step in block])
        after = controls @ chan
        for m, row in zip(after, iotas[k]):
            row[...] = iota
            iota = m.dot(iota)
        hs = np.empty((len(block), r, r), dtype=complex)
        default = np.array([step.gauge is None for step in block])
        for j in np.flatnonzero(~default):
            hs[j] = _gauge_matrix(base, block[j].gauge)
        if default.any():
            hs[default] = _nonunital_gauges(fam, iotas[k][default])
        a[k], b[k], u = _stacked_coordinates(base, hs)
        forcing = (controls @ (u @ iotas[k, :, None]))[..., 0]
        for m, f, row in zip(after, forcing, gammas[k]):
            gamma = row[...] = m.dot(gamma) + f
    alpha_terms = 2.0 * (iotas * a).sum(1)
    cross_terms = 4.0 * (gammas[:-1] * b[1:]).sum(1)
    gamma_norms = np.maximum(np.abs(gammas[:, 0]), np.sqrt((gammas[:, 1:] ** 2).sum(1)))
    total = float(sum(alpha_terms.tolist()) + sum(cross_terms.tolist()))
    return BoundReport(n, total, tuple(alpha_terms), tuple(cross_terms), tuple(gamma_norms))


def assert_matches_loop(report, want, tol=1e-14):
    """The total to ``tol`` relative to itself, each term to ``tol`` relative to the largest of its kind."""
    assert report.n == want.n
    assert abs(report.total - want.total) <= tol * abs(want.total)
    for field in ("alpha_terms", "cross_terms", "gamma_norms"):
        got, ref = np.array(getattr(report, field)), np.array(getattr(want, field))
        assert got.shape == ref.shape
        if len(ref):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), field


def mildly_nonunital_ptm(rng, max_weight=0.1):
    """Rotation mixed with a replacement channel of weight at most ``max_weight``."""
    lam = rng.uniform(0.0, max_weight)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return PauliTransferMap(lam * direction * rng.uniform() ** (1 / 3), (1 - lam) * random_rotation(rng))


class TestExtensionBound:
    def test_single_step_example(self):
        fam = x_rotation_dephasing(0.1)
        report = extension_bound(fam, identity_steps(fam, 1))
        assert np.isclose(report.total, 8.0)

    def test_two_step_example(self):
        # hand-unrolled recursion: gamma_1 = X, beta_2 = 0.8 X,
        # total = 16 + 8 Tr(0.8 X X) = 28.8
        fam = x_rotation_dephasing(0.1)
        report = extension_bound(fam, identity_steps(fam, 2))
        assert np.isclose(report.total, 28.8)
        assert np.allclose(report.alpha_terms, [8.0, 8.0])
        assert np.isclose(report.cross_terms[0], 12.8)

    def test_symbolic_recursion_oracle(self):
        # independent recursion in Pauli coefficients for the example family:
        # gamma in span{X}; r_{k+1} = (1-2p) r_k + 1, beta = (1-2p) X
        fam = x_rotation_dephasing(0.1)
        n = 30
        report = extension_bound(fam, identity_steps(fam, n))
        p = fam.p
        r = 0.0
        total = 0.0
        for k in range(1, n + 1):
            total += 8.0  # 4 Tr(alpha) with alpha = identity
            if k > 1:
                total += 8.0 * (r * (1 - 2 * p) * 2.0)  # 8 Tr(gamma_{k-1} beta_k)
            r = (1 - 2 * p) * r + 1.0
        assert np.isclose(report.total, total, rtol=1e-12)

    def test_parameter_independent(self):
        fam = DephasingFamily(0.2, 0.0, np.zeros((2, 2)), np.zeros((2, 2)))
        report = extension_bound(fam, identity_steps(fam, 5))
        assert abs(report.total) < 1e-12

    def test_overflow_is_domain_error(self):
        fam = DephasingFamily(0.3, 0.0, 1e155 * X, np.zeros((2, 2)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="overflow"):
                extension_bound(fam, identity_steps(fam, 3))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_one_channel_per_family(self, monkeypatch):
        made = []
        init = OneParamChannel.__init__

        def counted(self, kraus):
            made.append(kraus)
            init(self, kraus)

        monkeypatch.setattr(OneParamChannel, "__init__", counted)
        fam = x_rotation_dephasing(0.1)
        steps = identity_steps(fam, 50)
        for _ in range(200):
            extension_bound(fam, steps)
        assert len(made) == 1

    def test_total_is_sum_of_terms(self, rng):
        fam = random_dephasing_family(rng)
        steps = [ExtensionStep(random_unital_ptm(rng), unital_gauge(fam)) for _ in range(20)]
        report = extension_bound(fam, steps)
        assert np.isclose(
            report.total, sum(report.alpha_terms) + sum(report.cross_terms), atol=1e-9
        )

    def test_gauge_dimension_mismatch(self):
        fam = x_rotation_dephasing(0.1)
        bad = GaugeMatrix(np.zeros((3, 3)))
        with pytest.raises(Exception):
            extension_bound(fam, [ExtensionStep(IDENT, bad)])

    def test_general_channel_requires_explicit_gauge(self):
        ch = rotated_family(depolarizing_kraus(0.5), X)
        with pytest.raises(Exception):
            extension_bound(ch, [ExtensionStep(IDENT, None)])

    def test_general_channel_with_explicit_gauge(self, rng):
        # the engine runs on arbitrary qubit Kraus-pair families and the total
        # still dominates the simulated QFI for the same controls
        from qmetro.protocols import ControlSequence, simulate_sequence

        ch = rotated_family(depolarizing_kraus(0.5), X)
        zero_gauge = GaugeMatrix(np.zeros((len(ch.k_ops), len(ch.k_ops))))
        n = 30
        controls = [random_unital_ptm(rng) for _ in range(n)]
        total = extension_bound(ch, [ExtensionStep(c, zero_gauge) for c in controls]).total
        seq = ControlSequence(controls, constant=False)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            v0 = BlochState(direction * rng.uniform() ** (1 / 3), np.zeros(3))
            assert simulate_sequence(ch, seq, v0, n).qfi_or_fi <= total + 1e-9


class TestPauliCoordinateOracle:
    def test_random_unital_sequences(self, rng):
        for _ in range(20):
            fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
            n = int(rng.integers(1, 60))
            steps = [ExtensionStep(random_unital_ptm(rng), unital_gauge(fam)) for _ in range(n)]
            assert_matches_oracle(extension_bound(fam, steps), matrix_extension_bound(fam, steps))

    def test_mildly_nonunital_sequences_default_gauge(self, rng):
        for _ in range(20):
            fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
            n = int(rng.integers(1, 60))
            steps = [ExtensionStep(mildly_nonunital_ptm(rng), None) for _ in range(n)]
            assert_matches_oracle(extension_bound(fam, steps), matrix_extension_bound(fam, steps))

    def test_general_channel_explicit_gauges(self, rng):
        channels = [rotated_family(depolarizing_kraus(0.5), X)]
        channels += [random_one_param_channel(rng, env=env) for env in (2, 3, 4)]
        for ch in channels:
            gauges = [random_hermitian_gauge(rng, len(ch.k_ops)) for _ in range(3)]
            n = 30
            steps = [ExtensionStep(mildly_nonunital_ptm(rng), gauges[k % 3]) for k in range(n)]
            assert_matches_oracle(extension_bound(ch, steps), matrix_extension_bound(ch, steps))

    def test_identity_controls_at_5000(self):
        # the `qmetro bound` sequence: identity controls and the default gauge
        fam = DephasingFamily(0.13, 0.4, X + 0.3 * Z, -0.6 * Y + 0.2 * Z)
        steps = [ExtensionStep(IDENT)] * 5000
        assert_matches_oracle(extension_bound(fam, steps), matrix_extension_bound(fam, steps))

    @pytest.mark.parametrize("n", [511, 512, 513, 1300])
    def test_default_gauge_across_blocks(self, rng, n):
        fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
        steps = [ExtensionStep(mildly_nonunital_ptm(rng), None) for _ in range(n)]
        assert_matches_oracle(extension_bound(fam, steps), matrix_extension_bound(fam, steps))

    def test_explicit_gauges_across_blocks(self, rng):
        ch = random_one_param_channel(rng, env=3)
        gauges = [random_hermitian_gauge(rng, 3) for _ in range(3)]
        steps = [ExtensionStep(mildly_nonunital_ptm(rng), gauges[k % 3]) for k in range(600)]
        assert_matches_oracle(extension_bound(ch, steps), matrix_extension_bound(ch, steps))

    def test_pole_iota_raises_domain_error(self):
        # a reset to |0> drives iota to I + Z, where |Tr(iota Z)/2| = 1
        fam = x_rotation_dephasing(0.1)
        reset = ExtensionStep(PauliTransferMap([0.0, 0.0, 1.0], np.zeros((3, 3))))
        with pytest.raises(DomainError):
            extension_bound(fam, [reset, ExtensionStep(IDENT)])
        extension_bound(fam, [ExtensionStep(reset.control, unital_gauge(fam))] * 2)

    def test_gauges_match_trace_forms(self, rng):
        for _ in range(50):
            fam = random_dephasing_family(rng)
            a = rng.normal(size=3)
            iota = I2 + rng.uniform(0, 0.9) * (a[0] * X + a[1] * Y + a[2] * Z) / np.linalg.norm(a)
            np.testing.assert_allclose(
                nonunital_gauge(fam, pauli_decompose(iota)).h,
                trace_nonunital_gauge(fam, iota).h,
                rtol=1e-12,
                atol=1e-12,
            )

    def test_step_operators_match_matrix_forms(self, rng):
        for _ in range(50):
            fam = random_dephasing_family(rng)
            ch, gauge = dephasing_channel(fam), unital_gauge(fam)
            iota = I2 + 0.5 * X - 0.2 * Z
            got = coordinate_operators(ch, gauge, iota)
            for got_op, want in zip(got, matrix_step_operators(loop_gauged_pairs(ch, gauge), iota)):
                assert np.abs(got_op - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_step_coordinates_match_matrix_forms_on_stinespring_channels(self, rng):
        # every Kraus rank 1-4, random Hermitian gauges and random iota of norm below 1
        for env in (1, 2, 3, 4):
            for _ in range(25):
                ch = random_one_param_channel(rng, env=env)
                gauge = random_hermitian_gauge(rng, env)
                a = rng.normal(size=3)
                iota = I2 + rng.uniform(0, 0.9) * (a[0] * X + a[1] * Y + a[2] * Z) / np.linalg.norm(a)
                want = matrix_step_operators(loop_gauged_pairs(ch, gauge), iota)
                for got_op, want_op in zip(coordinate_operators(ch, gauge, iota), want):
                    assert np.abs(got_op - want_op).max() <= 1e-12 * max(np.abs(want_op).max(), 1.0)

    def test_non_cptp_control_rejected(self):
        with pytest.raises(ValidationError, match="not CPTP"):
            ExtensionStep(PauliTransferMap(np.zeros(3), 1.5 * np.eye(3)))


class TestLoopOracle:
    """The prefix-product sweeps against the per-step passes they replaced."""

    def test_identity_controls_at_5000(self):
        fam = DephasingFamily(0.13, 0.4, X + 0.3 * Z, -0.6 * Y + 0.2 * Z)
        steps = [ExtensionStep(IDENT)] * 5000
        assert_matches_loop(extension_bound(fam, steps), loop_extension_bound(fam, steps))

    def test_benchmark_shaped_sequences(self, rng):
        # n = 1..99 with n % 4 in (0, 1): odd lengths mix two rotations under the unital gauge,
        # even ones are mildly non-unital under the default gauge
        for n in [n for n in range(1, 101) if n % 4 in (0, 1)]:
            fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
            if n % 2:
                weights = rng.uniform(size=n)
                mixes = [w * random_rotation(rng) + (1 - w) * random_rotation(rng) for w in weights]
                steps = [ExtensionStep(PauliTransferMap(np.zeros(3), t), unital_gauge(fam)) for t in mixes]
            else:
                steps = [ExtensionStep(mildly_nonunital_ptm(rng)) for _ in range(n)]
            assert_matches_loop(extension_bound(fam, steps), loop_extension_bound(fam, steps))

    @pytest.mark.parametrize("n", [511, 512, 513, 1300])
    def test_default_gauge_across_blocks(self, rng, n):
        fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
        steps = [ExtensionStep(mildly_nonunital_ptm(rng)) for _ in range(n)]
        assert_matches_loop(extension_bound(fam, steps), loop_extension_bound(fam, steps))

    def test_explicit_gauges_across_blocks(self, rng):
        ch = random_one_param_channel(rng, env=3)
        gauges = [random_hermitian_gauge(rng, 3) for _ in range(3)]
        steps = [ExtensionStep(mildly_nonunital_ptm(rng), gauges[k % 3]) for k in range(600)]
        assert_matches_loop(extension_bound(ch, steps), loop_extension_bound(ch, steps))


class TestBoundValidity:
    def test_random_unital_sequences_dominate_simulation(self, rng):
        for _ in range(50):
            fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
            n = int(rng.integers(1, 40))
            controls = [random_unital_ptm(rng) for _ in range(n)]
            steps = [ExtensionStep(c, unital_gauge(fam)) for c in controls]
            total = extension_bound(fam, steps).total
            seq = ControlSequence(controls, constant=False)
            best = 0.0
            for _ in range(20):
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                v0 = BlochState(direction * rng.uniform() ** (1 / 3), np.zeros(3))
                best = max(best, simulate_sequence(fam, seq, v0, n).qfi_or_fi)
            assert best <= total * (1 + 1e-9) + 1e-9

    def test_linear_growth_at_constant_controls(self, rng):
        fam = x_rotation_dephasing(0.1)
        control = random_rotation(rng)
        ptm = PauliTransferMap(np.zeros(3), control, validated=True)
        g = unital_gauge(fam)
        slopes = []
        for n in (500, 2000):
            report = extension_bound(fam, [ExtensionStep(ptm, g)] * n)
            assert np.allclose(report.alpha_terms, report.alpha_terms[0], atol=1e-9)
            slopes.append(report.total / n)
        assert abs(slopes[1] - slopes[0]) / abs(slopes[0]) < 0.05


class TestUnitalGauge:
    def test_example_family_gauge_vanishes(self):
        assert np.allclose(unital_gauge(x_rotation_dephasing(0.1)).h, 0)

    def test_z_generator_value(self):
        fam = DephasingFamily(0.1, 0.0, Z, np.zeros((2, 2)))
        assert np.isclose(unital_gauge(fam).h[0, 1].real, -1.5)

    def test_beta_structure(self, rng):
        # beta = Tr(G+ X)/2 X + Tr(G+ Y)/2 Y for any family under this gauge
        for _ in range(100):
            fam = random_dephasing_family(rng)
            _, beta, _ = coordinate_operators(dephasing_channel(fam), unital_gauge(fam), I2)
            gp = fam.g_plus
            expected = (
                np.trace(gp @ X).real / 2 * X + np.trace(gp @ Y).real / 2 * Y
            )
            assert np.linalg.norm(beta - expected) < 1e-10

    def test_alpha_is_scalar(self, rng):
        # alpha must be the exact identity multiple of the closed form
        for _ in range(100):
            fam = random_dephasing_family(rng)
            alpha, _, _ = coordinate_operators(dephasing_channel(fam), unital_gauge(fam), I2)
            assert np.linalg.norm(alpha - np.trace(alpha) / 2 * I2) < 1e-10
            p, pdot = fam.p, fam.pdot
            g0z = np.trace(fam.g0 @ Z).real
            g1z = np.trace(fam.g1 @ Z).real
            scalar = (
                (1 - p) / 2 * np.trace(fam.g0 @ fam.g0).real
                + p / 2 * np.trace(fam.g1 @ fam.g1).real
                + (1 - p) * (1 - 4 * p) / (16 * p) * g0z**2
                - g0z * g1z / 8
                - (3 - 4 * p) * p / (16 * (1 - p)) * g1z**2
                + pdot**2 / (4 * p * (1 - p))
            )
            assert np.isclose(np.trace(alpha).real / 2, scalar, rtol=1e-10, atol=1e-12)

    def test_cross_operator_orthogonal_to_noise(self, rng):
        for _ in range(1000):
            fam = random_dephasing_family(rng)
            _, _, ubeta = coordinate_operators(dephasing_channel(fam), unital_gauge(fam), I2)
            assert abs(np.trace(ubeta)) <= 1e-10
            assert abs(np.trace(Z @ ubeta)) <= 1e-10


def random_iotas(rng, n, max_radius=0.9):
    """``n`` rows of Pauli coordinates ``(2, 2 r u)`` with ``|u| = 1``, ``r < max_radius``."""
    u = rng.normal(size=(n, 3))
    u *= rng.uniform(0, max_radius, size=(n, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
    return np.column_stack([np.full(n, 2.0), 2.0 * u])


def assert_rows_close(stack, rows, rtol=1e-15):
    for got, want in zip(stack, rows):
        assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


class TestStackedForms:
    """The stacked gauges and coordinates against their one-row calls."""

    def test_gauges_match_one_row_calls(self, rng):
        for _ in range(20):
            fam = random_dephasing_family(rng)
            iotas = random_iotas(rng, 40)
            hs = _nonunital_gauges(fam, iotas)
            assert hs.shape == (40, 2, 2)
            assert_rows_close(hs, [nonunital_gauge(fam, row).h for row in iotas])

    def test_coordinates_match_one_row_calls(self, rng):
        cases = []
        for _ in range(10):
            fam = random_dephasing_family(rng)
            cases.append((dephasing_channel(fam), _nonunital_gauges(fam, random_iotas(rng, 30))))
        for env in (1, 2, 3, 4):
            gauges = [random_hermitian_gauge(rng, env).h for _ in range(30)]
            cases.append((random_one_param_channel(rng, env=env), np.array(gauges)))
        for ch, hs in cases:
            a, b, u = _stacked_coordinates(ch, hs)
            rows = [step_coordinates(ch, GaugeMatrix(h)) for h in hs]
            for stack, part in zip((a, b, u), zip(*rows)):
                assert stack.shape == (len(hs),) + part[0].shape
                assert_rows_close(stack, part)

    def test_first_pole_row_is_named(self, rng):
        fam = x_rotation_dephasing(0.1)
        iotas = random_iotas(rng, 6)
        iotas[2, 3], iotas[4, 3] = 3.0, -2.4  # |Tr(iota Z)/2| = 1.5, then 1.2
        with pytest.raises(DomainError, match=r"\|Tr\(iota Z\)/2\| = 1.5 >= 1"):
            _nonunital_gauges(fam, iotas)

    @pytest.fixture
    def built(self, monkeypatch):
        """The row counts of the gauge and coordinate stacks ``extension_bound`` builds and sweeps."""
        rows = []

        def recorded(build):
            def run(*args):
                rows.append(len(args[-1]))  # the stack is the last argument
                return build(*args)

            return run

        monkeypatch.setattr(bounds, "_stacked_coordinates", recorded(_stacked_coordinates))
        monkeypatch.setattr(bounds, "_nonunital_gauges", recorded(_nonunital_gauges))
        monkeypatch.setattr(bounds, "_up_sweep", recorded(bounds._up_sweep))
        return rows

    def test_identical_steps_stack_one_block_at_a_time(self, built):
        fam = DephasingFamily(0.13, 0.4, X + 0.3 * Z, -0.6 * Y + 0.2 * Z)
        extension_bound(fam, [ExtensionStep(IDENT)] * 5000)
        assert built and max(built) <= bounds._BLOCK

    def test_distinct_steps_stack_one_block_at_a_time(self, rng, built):
        fam = random_dephasing_family(rng, p_range=(0.05, 0.5))
        extension_bound(fam, [ExtensionStep(mildly_nonunital_ptm(rng)) for _ in range(1300)])
        assert built and max(built) <= bounds._BLOCK

    def test_wrong_shape_gauge_among_many_rejected(self, rng):
        ch = random_one_param_channel(rng, env=2)
        good, bad = random_hermitian_gauge(rng, 2), GaugeMatrix(np.zeros((3, 3)))
        with pytest.raises(ValidationError, match=r"gauge must be 2x2 for this channel, got \(3, 3\)"):
            extension_bound(ch, [ExtensionStep(IDENT, good), ExtensionStep(IDENT, bad)])

    def test_rejections_in_a_later_block(self, rng):
        fam = x_rotation_dephasing(0.1)
        reset = ExtensionStep(PauliTransferMap([0.0, 0.0, 1.0], np.zeros((3, 3))))
        with pytest.raises(DomainError, match=r"\|Tr\(iota Z\)/2\| = 1 >= 1: control too non-unital"):
            extension_bound(fam, [ExtensionStep(IDENT)] * 600 + [reset, ExtensionStep(IDENT)])
        ch = random_one_param_channel(rng, env=2)
        good, bad = random_hermitian_gauge(rng, 2), GaugeMatrix(np.zeros((3, 3)))
        with pytest.raises(ValidationError, match=r"gauge must be 2x2 for this channel, got \(3, 3\)"):
            extension_bound(ch, [ExtensionStep(IDENT, good)] * 600 + [ExtensionStep(IDENT, bad)])


class TestNonunitalGauge:
    def test_reduces_to_unital_at_identity(self, rng):
        for _ in range(50):
            fam = random_dephasing_family(rng)
            a = nonunital_gauge(fam, pauli_decompose(I2)).h
            b = unital_gauge(fam).h
            assert np.allclose(a, b, atol=1e-12)

    def test_cross_traces_vanish(self, rng):
        fam = x_rotation_dephasing(0.1)
        ch = dephasing_channel(fam)
        for _ in range(200):
            a = rng.normal(size=3)
            a = a / np.linalg.norm(a) * rng.uniform(0, 0.9)
            iota = I2 + a[0] * X + a[1] * Y + a[2] * Z
            g = nonunital_gauge(fam, pauli_decompose(iota))
            _, _, ubeta = coordinate_operators(ch, g, iota)
            assert abs(np.trace(ubeta)) <= 1e-10
            assert abs(np.trace(Z @ ubeta)) <= 1e-10
            # closed-form identities for the transverse components
            z = np.trace(iota @ Z).real / 2
            gm = fam.g_minus
            tr_gm_z = np.trace(gm @ Z).real
            g_minus = np.trace(iota @ gm).real / 2 - tr_gm_z / 2 * z
            for pauli in (X, Y):
                anti = pauli @ gm + gm @ pauli
                expected = (
                    np.trace(iota @ anti).real / 2
                    - (g_minus + tr_gm_z / 2 * z) * np.trace(iota @ pauli).real
                )
                assert np.isclose(np.trace(pauli @ ubeta).real, expected, atol=1e-10)

    def test_boundary_iota_rejected(self):
        fam = x_rotation_dephasing(0.1)
        with pytest.raises(DomainError):
            nonunital_gauge(fam, pauli_decompose(I2 + Z))  # Tr(iota Z)/2 = 1

    def test_gamma_growth_with_cptp_controls(self, rng):
        # quantitative shadow of the square-root growth lemma:
        # ||gamma_k||_1^2 / 4 <= k (||G-||^2 + ||G+||^2) / (2p(1-p))
        for _ in range(20):
            fam = random_dephasing_family(rng, p_range=(0.1, 0.5))
            n = 60
            steps = [
                ExtensionStep(ptm_from_kraus(random_cptp_kraus(rng)), None) for _ in range(n)
            ]
            try:
                report = extension_bound(fam, steps)
            except DomainError:
                continue  # a control drove iota onto the pole; lemma hypotheses fail
            cap = (
                np.linalg.norm(fam.g_minus, 2) ** 2 + np.linalg.norm(fam.g_plus, 2) ** 2
            ) / (2 * fam.p * (1 - fam.p))
            for k, norm1 in enumerate(report.gamma_norms, start=1):
                assert norm1**2 / 4 <= k * cap + 1e-9


class TestConstantCeilings:
    def test_rgnks_violated_example(self):
        fam = DephasingFamily(0.1, 0.0, Z, Z.copy())
        assert np.isclose(rgnks_violated_bound(fam), 2.56 / 0.0081)

    def test_zero_drive(self):
        fam = DephasingFamily(0.3, 0.0, np.zeros((2, 2)), np.zeros((2, 2)))
        assert rgnks_violated_bound(fam) == 0.0

    def test_pure_p_drive(self):
        fam = DephasingFamily(0.1, 1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        expected = 4.0 / (0.1**2 * 0.9**2)
        assert np.isclose(rgnks_violated_bound(fam), expected)

    def test_not_applicable_when_rgnks_holds(self):
        with pytest.raises(NotApplicableError):
            rgnks_violated_bound(x_rotation_dephasing(0.1))

    def test_contractive_parameter_independent(self):
        ch = rotated_family(depolarizing_kraus(0.5), np.zeros((2, 2)))
        assert contractive_bound(ch) < 1e-9

    def test_contractive_rejects_dephasing(self):
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        with pytest.raises(NotApplicableError):
            contractive_bound(ch)


class TestBlochInequality:
    def test_unital_holds(self):
        report = bloch_inequality_check(PauliTransferMap(np.zeros(3), 0.7 * np.eye(3)))
        assert report.holds and report.lhs == 0.0

    def test_amplitude_damping(self):
        gamma = 0.4
        ptm = PauliTransferMap(
            [0, 0, gamma], np.diag([np.sqrt(1 - gamma), np.sqrt(1 - gamma), 1 - gamma])
        )
        report = bloch_inequality_check(ptm)
        assert report.holds
        assert np.isclose(report.lhs, gamma**2)
        assert np.isclose(report.rhs, gamma**2 * (2 - gamma))

    def test_violating_map(self):
        report = bloch_inequality_check(
            PauliTransferMap([0, 0, 0.5], np.diag([0.9, 0.9, 0.9]))
        )
        assert not report.holds
        assert report.lhs > report.rhs

    def test_random_cptp_maps(self, rng):
        for _ in range(10_000):
            ptm = ptm_from_kraus(random_cptp_kraus(rng))
            assert bloch_inequality_check(ptm).holds


class TestBoundedAncilla:
    def test_multiplier(self):
        assert bounded_ancilla_multiplier(0) == 1.0
        assert bounded_ancilla_multiplier(3) == 8.0
        with pytest.raises(DomainError):
            bounded_ancilla_multiplier(-1)

    def test_overflow_is_domain_error(self):
        # 2**2000 has no float; the factor must not escape as a bare OverflowError
        assert bounded_ancilla_multiplier(1023) == 2.0**1023
        with pytest.raises(DomainError, match="overflow"):
            bounded_ancilla_multiplier(2000)


class TestGaugedPairs:
    """The stacked gauged derivatives that :func:`step_coordinates` reads, against the loop oracle."""

    def test_bit_identical_to_loop_on_dephasing_families(self, rng):
        for _ in range(200):
            fam = random_dephasing_family(rng)
            ch, gauge = dephasing_channel(fam), unital_gauge(fam)
            got = _gauged_derivatives(ch.k_ops, ch.dk_ops, gauge.h)
            want = loop_gauged_pairs(ch, gauge)
            assert len(got) == len(want) == 2
            for dk, (_, dk_ref) in zip(got, want):
                assert np.array_equal(dk, dk_ref)

    def test_matches_loop_on_stinespring_channels(self, rng):
        for env in (1, 2, 3, 4):
            for _ in range(25):
                ch = random_one_param_channel(rng, env=env)
                gauge = random_hermitian_gauge(rng, env)
                got = _gauged_derivatives(ch.k_ops, ch.dk_ops, gauge.h)
                want = loop_gauged_pairs(ch, gauge)
                assert len(got) == len(want) == env
                for dk, (_, dk_ref) in zip(got, want):
                    assert np.abs(dk - dk_ref).max() <= 1e-15 * np.abs(dk_ref).max()

    def test_wrong_shape_gauge_rejected(self):
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        with pytest.raises(ValidationError, match=r"gauge must be 2x2 for this channel, got \(3, 3\)"):
            step_coordinates(ch, GaugeMatrix(np.zeros((3, 3))))


class TestCeilingOverflow:
    @pytest.mark.parametrize(
        "fam",
        [
            DephasingFamily(0.3, 0.0, 1e155 * Z, np.zeros((2, 2))),
            DephasingFamily(1e-200, 0.0, Z, np.zeros((2, 2))),
            DephasingFamily(0.3, 1e200, Z, np.zeros((2, 2))),
        ],
        ids=["huge_generator", "tiny_p", "huge_pdot"],
    )
    def test_rgnks_violated_bound_raises_domain_error(self, fam):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError):
                rgnks_violated_bound(fam)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_contractive_bound_raises_domain_error(self):
        # F(E) is about 1.6e293 and (1 - sqrt(eta))^2 about 2.5e-17: the ceiling overflows
        ch = rotated_family(depolarizing_kraus(1 - 1e-8), 1e146 * X)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="overflow"):
                contractive_bound(ch)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
