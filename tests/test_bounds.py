import numpy as np
import pytest

from qmetro.bounds import (
    ExtensionStep,
    bloch_inequality_check,
    contractive_bound,
    extension_bound,
    gauged_pairs,
    nonunital_gauge,
    rgnks_violated_bound,
    step_operators,
    unital_gauge,
)
from qmetro.channel_model import (
    DephasingFamily,
    NotApplicableError,
    dephasing_channel,
    depolarizing_kraus,
    random_dephasing_family,
    random_one_param_channel,
    rotated_family,
    x_rotation_dephasing,
)
from qmetro.fisher_info import GaugeMatrix
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
    ptm_from_kraus,
    random_cptp_kraus,
    random_rotation,
    random_unital_ptm,
)

IDENT = PauliTransferMap.identity()


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
    ks = [p.k for p in base.kraus]
    iota = I2.copy()
    gamma = np.zeros((2, 2), dtype=complex)
    alphas, crosses, norms = [], [], []
    for k, step in enumerate(steps):
        gauge = step.gauge if step.gauge is not None else trace_nonunital_gauge(fam, iota)
        alpha, beta, ubeta0 = matrix_step_operators(gauged_pairs(base, gauge), iota)
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
        zero_gauge = GaugeMatrix(np.zeros((len(ch.kraus), len(ch.kraus))))
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
            r = len(ch.kraus)
            gauges = []
            for _ in range(3):
                h = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
                gauges.append(GaugeMatrix((h + h.conj().T) / 2.0))
            n = 30
            steps = [ExtensionStep(mildly_nonunital_ptm(rng), gauges[k % 3]) for k in range(n)]
            assert_matches_oracle(extension_bound(ch, steps), matrix_extension_bound(ch, steps))

    def test_identity_controls_at_5000(self):
        # the `qmetro bound` sequence: identity controls and the default gauge
        fam = DephasingFamily(0.13, 0.4, X + 0.3 * Z, -0.6 * Y + 0.2 * Z)
        steps = [ExtensionStep(IDENT)] * 5000
        assert_matches_oracle(extension_bound(fam, steps), matrix_extension_bound(fam, steps))

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
                nonunital_gauge(fam, iota).h, trace_nonunital_gauge(fam, iota).h, rtol=1e-12, atol=1e-12
            )

    def test_step_operators_match_matrix_forms(self, rng):
        for _ in range(50):
            fam = random_dephasing_family(rng)
            pairs = gauged_pairs(dephasing_channel(fam), unital_gauge(fam))
            iota = I2 + 0.5 * X - 0.2 * Z
            for got, want in zip(step_operators(pairs, iota), matrix_step_operators(pairs, iota)):
                assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_non_cptp_control_rejected(self):
        with pytest.raises(ValidationError, match="not CPTP"):
            ExtensionStep(PauliTransferMap(np.zeros(3), 1.5 * np.eye(3)))


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
            pairs = gauged_pairs(dephasing_channel(fam), unital_gauge(fam))
            _, beta, _ = step_operators(pairs, I2)
            gp = fam.g_plus
            expected = (
                np.trace(gp @ X).real / 2 * X + np.trace(gp @ Y).real / 2 * Y
            )
            assert np.linalg.norm(beta - expected) < 1e-10

    def test_alpha_is_scalar(self, rng):
        # alpha must be the exact identity multiple of the closed form
        for _ in range(100):
            fam = random_dephasing_family(rng)
            pairs = gauged_pairs(dephasing_channel(fam), unital_gauge(fam))
            alpha, _, _ = step_operators(pairs, I2)
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
            pairs = gauged_pairs(dephasing_channel(fam), unital_gauge(fam))
            _, _, ubeta = step_operators(pairs, I2)
            assert abs(np.trace(ubeta)) <= 1e-10
            assert abs(np.trace(Z @ ubeta)) <= 1e-10


class TestNonunitalGauge:
    def test_reduces_to_unital_at_identity(self, rng):
        for _ in range(50):
            fam = random_dephasing_family(rng)
            a = nonunital_gauge(fam, I2).h
            b = unital_gauge(fam).h
            assert np.allclose(a, b, atol=1e-12)

    def test_cross_traces_vanish(self, rng):
        fam = x_rotation_dephasing(0.1)
        ch = dephasing_channel(fam)
        for _ in range(200):
            a = rng.normal(size=3)
            a = a / np.linalg.norm(a) * rng.uniform(0, 0.9)
            iota = I2 + a[0] * X + a[1] * Y + a[2] * Z
            g = nonunital_gauge(fam, iota)
            pairs = gauged_pairs(ch, g)
            _, _, ubeta = step_operators(pairs, iota)
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
            nonunital_gauge(fam, I2 + Z)  # Tr(iota Z)/2 = 1

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
        from qmetro.bounds import bounded_ancilla_multiplier

        assert bounded_ancilla_multiplier(0) == 1.0
        assert bounded_ancilla_multiplier(3) == 8.0
        with pytest.raises(DomainError):
            bounded_ancilla_multiplier(-1)
