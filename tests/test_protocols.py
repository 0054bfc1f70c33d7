import warnings

import numpy as np
import pytest

from conftest import bloch_state_matrix, dephasing_apply
from oracles import (
    _QEC_START,
    _qec_transfer,
    bloch_to_density,
    qec_code_maps,
    qec_superoperator_rows,
    random_cptp_kraus,
    random_dephasing_family,
    random_one_param_channel,
    random_unital_ptm,
    spam_povm,
)
from qmetro.bounds import ExtensionStep, extension_bound, rgnks_violated_bound, unital_gauge
from qmetro.channel_model import (
    DephasingFamily,
    NotApplicableError,
    _lift,
    x_rotation_dephasing,
)
from qmetro.fisher_info import povm_fi, qfi_bloch, qfi_state
from qmetro.protocols import (
    SQL_VARIANTS,
    ControlSequence,
    ProtocolResult,
    no_control_fixed_point,
    no_control_rows,
    qec_analytic,
    qec_repetition_rows,
    qec_repetition_sim,
    repeated_measurement,
    repeated_measurement_rows,
    simulate_sequence,
    spam_fi,
    spam_fi_rows,
    sql_asymptotic,
    sql_control_ptm,
    sql_protocol,
    sql_protocol_rows,
    _advance,
    _kernel_steps,
    _lifted_kernel,
    _qec_step,
    _step_offsets,
)
from qmetro.qubit_core import (
    I2,
    X,
    Y,
    Z,
    BlochState,
    DensityState,
    DomainError,
    PauliTransferMap,
    ValidationError,
    pauli_compose,
    pauli_decompose,
    ptm_from_kraus,
)

ZERO = np.zeros((2, 2))
POLE = BlochState([0.0, 0.0, 1.0], np.zeros(3))


def step_loop(fam, controls, v0, n):
    """Oracle: the per-step (v, dv) update, one channel use then one control at a time."""
    k = fam.transfer_matrix
    t, T, dt, dT = k[:3, 6], k[:3, :3], k[3:6, 6], k[3:6, :3]
    v, dv = np.array(v0.v), np.array(v0.dv)
    for k in range(n):
        c = controls.maps[0 if controls.constant else k]
        v_mid = t + T @ v
        dv_mid = dt + dT @ v + T @ dv
        v, dv = c.t + c.T @ v_mid, c.T @ dv_mid
    return v, dv


def qec_loop(p, n):
    """Oracle: the repetition-code step on the 4x4 density matrix and its derivative."""
    z1, x1 = np.kron(Z, I2), np.kron(X, I2)
    p_plus = (np.eye(4) + np.kron(X, Z)) / 2.0
    p_minus = np.eye(4) - p_plus
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
    psi0 = (np.kron(plus, [1.0, 0.0]) + np.kron(minus, [0.0, 1.0])) / np.sqrt(2.0)
    rho = np.outer(psi0, psi0).astype(complex)
    drho = np.zeros((4, 4), dtype=complex)

    def dephase(op):
        return (1.0 - p) * op + p * (z1 @ op @ z1)

    def recover(op):
        return p_plus @ op @ p_plus + z1 @ (p_minus @ op @ p_minus) @ z1

    for _ in range(n):
        mid = dephase(rho)
        dmid = dephase(drho) - 1j * (x1 @ mid - mid @ x1)
        rho, drho = recover(mid), recover(dmid)
    return rho, drho


def rel_dist(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), 1e-300)


class TestSimulateSequence:
    def test_parameter_independent(self):
        fam = DephasingFamily(0.2, 0.0, ZERO, ZERO)
        res = simulate_sequence(fam, ControlSequence.identity(), POLE, 50)
        assert res.qfi_or_fi == 0.0
        assert np.allclose(res.terminal.dv, 0)

    def test_example_family_saturation(self):
        # identity controls on the X-rotation + dephasing family: the transverse
        # derivative saturates at -2/(2p) and the QFI approaches 1/p^2
        fam = x_rotation_dephasing(0.1)
        res = simulate_sequence(fam, ControlSequence.identity(), POLE, 400)
        assert np.isclose(res.terminal.dv[1], -10.0, atol=1e-8)
        assert np.isclose(res.qfi_or_fi, 100.0, rtol=1e-6)
        assert np.isclose(res.qfi_or_fi, no_control_fixed_point(fam), rtol=1e-6)

    def test_sql_ansatz_terminal_z(self):
        # consistent closed form: z_n -> exp(-(1-p) w / (2p)) z0 + O(1/sqrt(n))
        fam = x_rotation_dephasing(0.1)
        w, n = 0.01, 40_000
        res = sql_protocol(fam, n, w)
        target = np.exp(-(1 - fam.p) * w / (2 * fam.p))
        assert abs(res.terminal.v[2] - target) < 5.0 / np.sqrt(n)

    def test_trajectory_recording(self):
        fam = x_rotation_dephasing(0.1)
        res = simulate_sequence(fam, ControlSequence.identity(), POLE, 5, record_trajectory=True)
        assert len(res.trajectory) == 6
        assert np.allclose(res.trajectory[0].v, POLE.v)

    def test_matches_density_matrix_oracle(self, rng):
        # dense 2x2 propagation at finite theta, Richardson finite differences
        for _ in range(1000):
            fam = random_dephasing_family(rng)
            n = int(rng.integers(1, 15))
            controls = []
            affine = []
            for _ in range(n):
                if rng.uniform() < 0.5:
                    ptm = random_unital_ptm(rng)
                else:
                    ptm = ptm_from_kraus(random_cptp_kraus(rng))
                controls.append(ptm)
                affine.append(ptm)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            v0 = direction * rng.uniform() ** (1 / 3)
            seq = ControlSequence(controls, constant=False)
            res = simulate_sequence(fam, seq, BlochState(v0, np.zeros(3)), n)

            def propagate(theta):
                rho = bloch_state_matrix(v0)
                for ptm in affine:
                    rho = dephasing_apply(fam, theta, rho)
                    rho = pauli_compose(ptm.matrix @ pauli_decompose(rho))
                return rho

            def bloch_of(rho):
                return np.array([np.trace(rho @ s).real for s in (X, Y, Z)])

            h = 1e-5
            coarse = (bloch_of(propagate(h)) - bloch_of(propagate(-h))) / (2 * h)
            fine = (bloch_of(propagate(h / 2)) - bloch_of(propagate(-h / 2))) / h
            dv_fd = (4 * fine - coarse) / 3
            v_fd = bloch_of(propagate(0.0))
            assert np.allclose(res.terminal.v, v_fd, atol=1e-10)
            assert np.allclose(res.terminal.dv, dv_fd, atol=1e-6)
            assert np.isclose(res.qfi_or_fi, qfi_bloch((v_fd, dv_fd)), atol=1e-6)


class TestTransferMatrix:
    # every SQL variant has signal: Tr(G0 X), Tr(G0 Y), Tr(G1 X), Tr(G1 Y) != 0
    FAM = DephasingFamily(0.1, 0.3, X + 0.5 * Y + Z, 0.7 * X - Y + 0.2 * Z)

    def test_sql_matrix_power_matches_step_loop(self):
        for variant in SQL_VARIANTS:
            for n in (1, 2, 7, 200, 10_000, 100_000):
                res = sql_protocol(self.FAM, n, 0.01, variant=variant)
                control = ControlSequence(sql_control_ptm(variant, np.sqrt(0.01 / n)))
                v, dv = step_loop(self.FAM, control, POLE, n)
                assert rel_dist(res.terminal.v, v) <= 1e-9
                assert rel_dist(res.terminal.dv, dv) <= 1e-9
                assert rel_dist(res.qfi_or_fi, qfi_bloch((v, dv))) <= 1e-9

    def test_sql_slope_at_a_million_steps(self):
        fam = x_rotation_dephasing(0.1)
        n = 1_000_000
        res = sql_protocol(fam, n, 0.01)
        assert rel_dist(res.qfi_or_fi / n, sql_asymptotic(fam, 0.01)) <= 1e-4

    def test_trajectory_leaves_terminal_unchanged(self, rng):
        fam = random_dephasing_family(rng)
        n = 40
        maps = [ptm_from_kraus(random_cptp_kraus(rng)) for _ in range(n)]
        seq = ControlSequence(maps, constant=False)
        v0 = BlochState(0.5 * np.array([0.6, 0.0, 0.8]), np.zeros(3))
        plain = simulate_sequence(fam, seq, v0, n)
        traced = simulate_sequence(fam, seq, v0, n, record_trajectory=True)
        assert np.array_equal(plain.terminal.v, traced.terminal.v)
        assert np.array_equal(plain.terminal.dv, traced.terminal.dv)
        assert np.array_equal(traced.trajectory[-1].v, traced.terminal.v)
        v, dv = step_loop(fam, seq, v0, n)
        assert np.allclose(plain.terminal.v, v, atol=1e-12)
        assert np.allclose(plain.terminal.dv, dv, atol=1e-12)
        for k in (0, 1, 17):
            v, dv = step_loop(fam, seq, v0, k)
            assert np.allclose(traced.trajectory[k].v, v, atol=1e-12)
            assert np.allclose(traced.trajectory[k].dv, dv, atol=1e-12)

    def test_constant_control_trajectory_matches_power(self):
        control = ControlSequence(sql_control_ptm("g0y", 0.05))
        plain = simulate_sequence(self.FAM, control, POLE, 300)
        traced = simulate_sequence(self.FAM, control, POLE, 300, record_trajectory=True)
        assert len(traced.trajectory) == 301
        assert rel_dist(traced.terminal.v, plain.terminal.v) <= 1e-12
        assert rel_dist(traced.terminal.dv, plain.terminal.dv) <= 1e-12

    def test_qec_superoperator_matches_density_loop(self):
        state = np.concatenate([qec_loop(0.1, 0)[0].ravel(), np.zeros(16)])
        for p in (0.05, 0.13, 0.3, 0.5):
            step = _qec_transfer(p)
            for n in (0, 1, 2, 5, 50, 200):
                rho, drho = qec_loop(p, n)
                z = np.linalg.matrix_power(step, n) @ state
                assert np.allclose(z[:16].reshape(4, 4), rho, rtol=0, atol=1e-12)
                # drho grows like n, so its bound is relative
                assert np.allclose(z[16:].reshape(4, 4), drho, rtol=0, atol=1e-12 * max(n, 1))
                want = qfi_state(DensityState(rho, drho))
                assert abs(qec_repetition_sim(p, n).qfi_or_fi - want) <= 1e-12 * max(want, 1.0)

    @pytest.mark.parametrize("n", [10**7, 10**8, 10**12])
    def test_qec_at_huge_n_is_exact_without_warning(self, n):
        # drho grows like n: its roundoff on the excluded eigenvalue pairs must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qfi = qec_repetition_sim(0.1, n).qfi_or_fi
        assert rel_dist(qfi, qec_analytic(0.1, n)) <= 1e-12

    def test_qec_at_large_n(self):
        # the syndrome projectors are exact, so the trace cannot drift with n
        for p in (0.05, 0.13, 0.3):
            for n in (5000, 100_000, 1_000_000):
                assert rel_dist(qec_repetition_sim(p, n).qfi_or_fi, qec_analytic(p, n)) <= 1e-12


def random_controls(rng, n):
    """Per-step controls, half Kraus-built CPTP maps and half unital mixtures of rotations."""
    return [ptm_from_kraus(random_cptp_kraus(rng)) if k % 2 else random_unital_ptm(rng) for k in range(n)]


def near_pure_start(rng, gap):
    """A random start with ``|v| = 1 - gap`` and no derivative."""
    direction = rng.normal(size=3)
    return BlochState((1.0 - gap) * direction / np.linalg.norm(direction), np.zeros(3))


def assert_close_to_loop(got, v, dv, tol=1e-12):
    """``(v, dv)`` of ``got`` within ``tol`` of the loop's, relative to ``max(|.|, 1)``."""
    assert np.abs(got.v - v).max() <= tol * max(np.abs(v).max(), 1.0)
    assert np.abs(got.dv - dv).max() <= tol * max(np.abs(dv).max(), 1.0)


class TestComposedSteps:
    """Per-step runs compose their lifted steps pairwise; the step loop is the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 2000])
    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 0.3])
    def test_terminal_matches_step_loop(self, rng, n, gap):
        fam = random_dephasing_family(rng)
        seq = ControlSequence(random_controls(rng, n), constant=False)
        v0 = near_pure_start(rng, gap)
        res = simulate_sequence(fam, seq, v0, n)
        v, dv = step_loop(fam, seq, v0, n)
        assert_close_to_loop(res.terminal, v, dv)
        assert rel_dist(res.qfi_or_fi, qfi_bloch((v, dv))) <= 1e-12

    def test_per_step_trajectory_matches_step_loop_at_every_k(self, rng):
        fam = random_dephasing_family(rng)
        n = 150
        seq = ControlSequence(random_controls(rng, n), constant=False)
        v0 = near_pure_start(rng, 1e-9)
        traced = simulate_sequence(fam, seq, v0, n, record_trajectory=True)
        assert len(traced.trajectory) == n + 1
        for k, point in enumerate(traced.trajectory):
            assert_close_to_loop(point, *step_loop(fam, seq, v0, k))
        plain = simulate_sequence(fam, seq, v0, n)
        assert np.array_equal(plain.terminal.v, traced.terminal.v)
        assert np.array_equal(plain.terminal.dv, traced.terminal.dv)

    def test_constant_control_trajectory_matches_step_loop_at_every_k(self):
        fam = TestTransferMatrix.FAM
        control = ControlSequence(sql_control_ptm("g1x", 0.02))
        traced = simulate_sequence(fam, control, POLE, 150, record_trajectory=True)
        for k, point in enumerate(traced.trajectory):
            assert_close_to_loop(point, *step_loop(fam, control, POLE, k))

    def test_longer_sequence_runs_its_first_n_controls(self, rng):
        fam = random_dephasing_family(rng)
        seq = ControlSequence(random_controls(rng, 40), constant=False)
        for n in (0, 1, 17, 40):
            res = simulate_sequence(fam, seq, POLE, n, record_trajectory=True)
            assert_close_to_loop(res.terminal, *step_loop(fam, seq, POLE, n))
            assert len(res.trajectory) == n + 1
        assert np.array_equal(simulate_sequence(fam, seq, POLE, 0).terminal.v, POLE.v)

    def test_lifted_offsets_are_stacked_once_and_read_only(self, rng):
        maps = random_controls(rng, 5)
        seq = ControlSequence(maps, constant=False)
        assert seq._offsets is seq._offsets
        assert seq._offsets.shape == (5, 7, 7)
        with pytest.raises(ValueError):
            seq._offsets[0, 0, 0] = 1.0
        e = _step_offsets(TestTransferMatrix.FAM, [m.t for m in maps], [m.T for m in maps])
        assert np.array_equal(e, _kernel_steps(_lifted_kernel(TestTransferMatrix.FAM), seq._offsets))


def random_starts(rng, count):
    """``count`` random starts inside the Bloch ball, with no derivative."""
    directions = rng.normal(size=(count, 3))
    radii = rng.uniform(0.0, 1.0, size=count)
    return [BlochState(r * d / np.linalg.norm(d), np.zeros(3)) for r, d in zip(radii, directions)]


def assert_same_result(a, b):
    """Two results with bitwise equal QFIs and terminals."""
    assert a.qfi_or_fi == b.qfi_or_fi
    assert np.array_equal(a.terminal.v, b.terminal.v)
    assert np.array_equal(a.terminal.dv, b.terminal.dv)


class TestComposedProductMemo:
    """A per-step sequence keeps its last product, keyed by the channel kernel and n; the same
    maps in a fresh :class:`ControlSequence`, composed anew, are the oracle."""

    def test_many_starts_match_fresh_sequences_bitwise(self, rng):
        fam = random_dephasing_family(rng)
        maps = random_controls(rng, 37)
        seq = ControlSequence(maps, constant=False)
        for v0 in random_starts(rng, 25):
            fresh = simulate_sequence(fam, ControlSequence(maps, constant=False), v0, 37)
            assert_same_result(simulate_sequence(fam, seq, v0, 37), fresh)

    def test_alternating_families_and_lengths_get_their_own_products(self, rng):
        fams = [random_dephasing_family(rng), random_dephasing_family(rng)]
        maps = random_controls(rng, 30)
        seq = ControlSequence(maps, constant=False)
        starts = random_starts(rng, 3)
        calls = [(fams[0], 30), (fams[1], 30), (fams[0], 30), (fams[0], 11), (fams[0], 30), (fams[1], 1)]
        for fam, n in calls:
            for v0 in starts:
                fresh = simulate_sequence(fam, ControlSequence(maps, constant=False), v0, n)
                assert_same_result(simulate_sequence(fam, seq, v0, n), fresh)
                assert_close_to_loop(fresh.terminal, *step_loop(fam, seq, v0, n))

    def test_equal_families_built_apart_share_the_product(self, rng):
        fam = random_dephasing_family(rng)
        twin = DephasingFamily(fam.p, fam.pdot, fam.g0, fam.g1)
        maps = random_controls(rng, 9)
        seq = ControlSequence(maps, constant=False)
        v0 = near_pure_start(rng, 1e-6)
        first = simulate_sequence(fam, seq, v0, 9)
        assert_same_result(simulate_sequence(twin, seq, v0, 9), first)
        assert_same_result(simulate_sequence(twin, ControlSequence(maps, constant=False), v0, 9), first)

    def test_one_param_channel(self, rng):
        ch = random_one_param_channel(rng)
        maps = random_controls(rng, 12)
        seq = ControlSequence(maps, constant=False)
        for v0 in random_starts(rng, 5):
            fresh = simulate_sequence(ch, ControlSequence(maps, constant=False), v0, 12)
            assert_same_result(simulate_sequence(ch, seq, v0, 12), fresh)
        shorter = simulate_sequence(ch, ControlSequence(maps[:7], constant=False), v0, 7)
        assert_same_result(simulate_sequence(ch, seq, v0, 7), shorter)

    def test_one_composition_for_many_starts(self, rng, monkeypatch):
        import qmetro.protocols as protocols

        calls = []
        sweep = protocols._up_sweep
        monkeypatch.setattr(protocols, "_up_sweep", lambda e: calls.append(len(e)) or sweep(e))
        fam = random_dephasing_family(rng)
        seq = ControlSequence(random_controls(rng, 20), constant=False)
        for v0 in random_starts(rng, 25):
            simulate_sequence(fam, seq, v0, 20)
        assert calls == [20]
        simulate_sequence(fam, seq, POLE, 19)
        simulate_sequence(random_dephasing_family(rng), seq, POLE, 19)
        assert calls == [20, 19, 19]

    def test_one_channel_kernel_per_call(self, rng, monkeypatch):
        import qmetro.protocols as protocols

        calls = []
        build = protocols.ptm_from_kraus
        ch = random_one_param_channel(rng)
        seq = ControlSequence(random_controls(rng, 8), constant=False)
        monkeypatch.setattr(protocols, "ptm_from_kraus", lambda ks: calls.append(ks) or build(ks))
        simulate_sequence(ch, seq, POLE, 8)  # a miss: the key and the steps share one kernel
        assert len(calls) == 1
        simulate_sequence(ch, seq, POLE, 8)  # a hit builds the kernel for its key only
        assert len(calls) == 2

    def test_trajectory_after_a_memo_hit_keeps_the_terminal(self, rng):
        fam = random_dephasing_family(rng)
        seq = ControlSequence(random_controls(rng, 50), constant=False)
        starts = random_starts(rng, 3)
        plain = [simulate_sequence(fam, seq, v0, 50) for v0 in starts]
        for v0, result in zip(starts, plain):
            traced = simulate_sequence(fam, seq, v0, 50, record_trajectory=True)
            assert_same_result(traced, result)
            assert np.array_equal(traced.trajectory[-1].v, result.terminal.v)

    def test_checks_run_on_a_memo_hit(self, rng):
        fam = random_dephasing_family(rng)
        seq = ControlSequence(random_controls(rng, 4), constant=False)
        simulate_sequence(fam, seq, POLE, 4)
        with pytest.raises(DomainError, match="nonnegative"):
            simulate_sequence(fam, seq, POLE, -4)
        with pytest.raises(ValidationError, match="need 5 controls"):
            simulate_sequence(fam, seq, POLE, 5)
        with pytest.raises(ValidationError, match="unsupported channel description"):
            simulate_sequence(PauliTransferMap.identity(), seq, POLE, 4)


class TestAdvance:
    # unsorted, with duplicates, zeros and exponents of up to 21 bits
    NS = np.array([7, 0, 3, 3, 1, 1025, 0, 100_000, 64, 2_000_000])

    def check_rows(self, e, z):
        rows = _advance(e, self.NS, z)
        assert rows.shape == (len(self.NS), z.shape[-1])
        for i, n in enumerate(self.NS):
            one = _advance(e if e.ndim == 2 else e[i], int(n), z if z.ndim == 1 else z[i])
            assert np.array_equal(rows[i], one), (i, n)

    def test_per_row_offsets_match_one_row_calls_bitwise(self, rng):
        rots = [ptm_from_kraus(random_cptp_kraus(rng)) for _ in self.NS]
        e = _step_offsets(TestTransferMatrix.FAM, [m.t for m in rots], [m.T for m in rots])
        self.check_rows(e, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]))
        self.check_rows(e, np.column_stack([rng.normal(size=(len(self.NS), 6)), np.ones(len(self.NS))]))

    def test_shared_offset_matches_one_row_calls_bitwise(self):
        control = sql_control_ptm("g1y", 0.03)
        e = _step_offsets(TestTransferMatrix.FAM, control.t, control.T)
        self.check_rows(e, np.array([0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 1.0]))

    def test_shared_complex_offset_matches_one_row_calls_bitwise(self):
        self.check_rows(_qec_transfer(0.13) - np.eye(32), _QEC_START)

    def test_zero_steps_return_the_start(self):
        z = np.arange(7.0)
        assert np.array_equal(_advance(np.ones((7, 7)), 0, z), z)
        assert np.array_equal(_advance(np.ones((7, 7)), np.zeros(3, dtype=int), z), np.tile(z, (3, 1)))

    def test_matches_matrix_power(self, rng):
        e = 0.1 * rng.normal(size=(7, 7))
        for n in (1, 2, 5, 33):
            want = np.linalg.matrix_power(np.eye(7) + e, n) @ np.arange(7.0)
            assert rel_dist(_advance(e, n, np.arange(7.0)), want) <= 1e-13


class TestRowsForms:
    FAM = TestTransferMatrix.FAM
    NS = (40, 1, 7, 7, 0, 300)

    def test_values_equal_per_n_calls_bitwise(self):
        ns = [n for n in self.NS if n >= 1]
        for variant in SQL_VARIANTS:
            assert list(sql_protocol_rows(self.FAM, ns, 0.02, variant, 0.9)) == [
                sql_protocol(self.FAM, n, 0.02, variant, 0.9).qfi_or_fi for n in ns
            ]
            assert list(spam_fi_rows(self.FAM, ns, 0.02, 0.03, variant)) == [
                spam_fi(self.FAM, n, 0.02, 0.03, variant) for n in ns
            ]
        assert list(repeated_measurement_rows(self.FAM, self.NS, 4)) == [
            repeated_measurement(self.FAM, n, 4).qfi_or_fi for n in self.NS
        ]
        assert list(qec_repetition_rows(0.2, self.NS)) == [qec_repetition_sim(0.2, n).qfi_or_fi for n in self.NS]
        start = BlochState([0.0, 0.0, 0.7], np.zeros(3))
        assert list(no_control_rows(self.FAM, self.NS, 0.7)) == [
            simulate_sequence(self.FAM, ControlSequence.identity(), start, n).qfi_or_fi for n in self.NS
        ]

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda ns: sql_protocol_rows(TestTransferMatrix.FAM, ns, 0.01), 0),
            (lambda ns: spam_fi_rows(TestTransferMatrix.FAM, ns, 0.01, 0.1), 0),
            (lambda ns: repeated_measurement_rows(TestTransferMatrix.FAM, ns, 6), -1),
            (lambda ns: qec_repetition_rows(0.1, ns), -1),
            (lambda ns: no_control_rows(TestTransferMatrix.FAM, ns), -1),
        ],
        ids=["sql", "spam", "repeated", "qec", "no_control"],
    )
    def test_bad_row_raises_what_the_per_n_call_raises(self, call, bad):
        assert call([bad + 1, 3]).shape == (2,)
        with pytest.raises(DomainError, match="n must be"):
            call([3, 2, bad])
        assert call([]).shape == (0,)

    def test_bad_arguments_raise_on_every_row(self):
        with pytest.raises(DomainError, match="q must lie"):
            spam_fi_rows(self.FAM, [1], 0.01, 0.7)
        with pytest.raises(DomainError, match="interval"):
            repeated_measurement_rows(self.FAM, [1], 0)
        with pytest.raises(DomainError, match="p must lie"):
            qec_repetition_rows(0.0, [1])
        with pytest.raises(DomainError, match="w must be positive"):
            sql_protocol_rows(self.FAM, [1], 0.0)
        assert list(spam_fi_rows(self.FAM, [1, 5], 0.01, 0.5)) == [0.0, 0.0]


class TestControlSequence:
    def test_rejects_non_cptp_map(self):
        from qmetro.qubit_core import ValidationError

        inflation = PauliTransferMap(np.zeros(3), 1.5 * np.eye(3))
        with pytest.raises(ValidationError):
            ControlSequence(inflation)

    def test_per_step_length_enforced(self):
        fam = x_rotation_dephasing(0.1)
        seq = ControlSequence([PauliTransferMap.identity()] * 3, constant=False)
        with pytest.raises(Exception):
            simulate_sequence(fam, seq, POLE, 5)

    def test_constant_sequence_holds_one_map(self):
        # simulate_sequence runs a constant sequence on its first map only: [I, R] marked
        # constant would give the identity-only QFI, not that of the per-step [I, R, I, R]
        from qmetro.qubit_core import ValidationError

        fam = x_rotation_dephasing(0.1)
        quarter_z = PauliTransferMap(np.zeros(3), [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pair = [PauliTransferMap.identity(), quarter_z]
        with pytest.raises(ValidationError, match="constant ControlSequence holds one map"):
            ControlSequence(pair, constant=True)
        identity_only = simulate_sequence(fam, ControlSequence.identity(), POLE, 4).qfi_or_fi
        per_step = simulate_sequence(fam, ControlSequence(pair * 2, constant=False), POLE, 4).qfi_or_fi
        assert np.isclose(identity_only, 34.857216, rtol=1e-12)
        assert np.isclose(per_step, 18.268416, rtol=1e-12)


def kernel_blocks(k):
    """``(t, T, dt, dT)`` of a 7x7 kernel ``[[T, 0, t], [dT, T, dt], [0, 0, 1]]``."""
    return k[:3, 6], k[:3, :3], k[3:6, 6], k[3:6, :3]


class TestBlochKernel:
    """The 7x7 kernel of a channel's Bloch data, as :func:`_lifted_kernel` builds it."""

    def test_channel_kernel_matches_analytic(self):
        # X-rotation composed with depolarizing: T = lam I, dT = [2 e_x]_x lam I
        from oracles import depolarizing_kraus
        from qmetro.channel_model import rotated_family

        lam = 0.5
        k = _lifted_kernel(rotated_family(depolarizing_kraus(lam), X))
        t, T, dt, dT = kernel_blocks(k)
        cross_x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 2.0, 0.0]])
        assert np.allclose(T, lam * np.eye(3), atol=1e-12)
        assert np.allclose(t, 0, atol=1e-12)
        assert np.allclose(dT, cross_x * lam, atol=1e-12)
        assert np.allclose(dt, 0, atol=1e-12)
        assert np.array_equal(k[:3, 3:6], np.zeros((3, 3))) and np.array_equal(k[6], np.eye(7)[6])
        assert np.array_equal(k[3:6, 3:6], T)

    def test_family_kernel_is_exact(self, rng):
        # the Kraus-built kernel has T[2,2] = 1 - 1.1e-16 on TestTransferMatrix.FAM,
        # which moves the g1x SQL QFI by 2e-8 relative at n = 1e5: keep the exact one
        for fam in [TestTransferMatrix.FAM] + [random_dephasing_family(rng) for _ in range(20)]:
            k = _lifted_kernel(fam)
            assert k is fam.transfer_matrix
            t, T, dt, _ = kernel_blocks(k)
            assert T[2, 2] == 1.0
            assert np.array_equal(T - np.diag(np.diag(T)), np.zeros((3, 3)))
            assert not t.any() and not dt.any()

    def test_family_and_channel_kernels_agree(self, rng):
        from qmetro.channel_model import dephasing_channel

        for _ in range(50):
            fam = random_dephasing_family(rng)
            a = _lifted_kernel(fam)
            b = _lifted_kernel(dephasing_channel(fam))
            assert np.allclose(a, b, rtol=0, atol=1e-10)

    def test_rejects_other_descriptions(self):
        from qmetro.qubit_core import ValidationError

        with pytest.raises(ValidationError, match="unsupported channel description"):
            _lifted_kernel(PauliTransferMap.identity())


def control_offsets(shifts, rotations):
    """Oracle: the offsets ``C_k - I = [[T_k - I, 0, t_k], [0, T_k - I, 0], [0, 0, 0]]`` of the
    lifted controls, written out block by block."""
    rotations = np.reshape(rotations, (-1, 3, 3)) - np.eye(3)
    c = np.zeros((len(rotations), 7, 7))
    c[:, :3, :3] = c[:, 3:6, 3:6] = rotations
    c[:, :3, 6] = np.reshape(shifts, (-1, 3))
    return c


def family_kernel(fam):
    """Oracle: a family's 7x7 kernel written out entry by entry."""
    _, tx, ty, tz = pauli_decompose(fam.g_minus)
    _, px, py, _ = pauli_decompose(fam.g_plus)
    k = np.zeros((7, 7))
    k[:3, :3] = k[3:6, 3:6] = np.diag([1.0 - 2.0 * fam.p, 1.0 - 2.0 * fam.p, 1.0])
    k[3:6, :3] = [[-2.0 * fam.pdot, -tz, ty], [tz, -2.0 * fam.pdot, -tx], [-py, px, 0.0]]
    k[6, 6] = 1.0
    return k


class TestLift:
    """:func:`_lift` writes every 7x7 map on ``(v, dv, 1)``, one or stacked."""

    def test_control_offsets_match_the_oracle_bitwise(self, rng):
        maps = random_controls(rng, 40)
        t, T = np.array([m.t for m in maps]), np.array([m.T for m in maps])
        assert np.array_equal(_lift(t, T, 0.0, 0.0) - np.eye(7), control_offsets(t, T))
        assert np.array_equal(ControlSequence(maps, constant=False)._offsets, control_offsets(t, T))

    def test_family_kernel_matches_the_oracle_bitwise(self, rng):
        for fam in [TestTransferMatrix.FAM] + [random_dephasing_family(rng) for _ in range(20)]:
            assert np.array_equal(fam.transfer_matrix, family_kernel(fam))

    def test_stacked_lift_matches_its_one_row_calls(self, rng):
        t, dt = rng.normal(size=(2, 25, 3))
        T, dT = rng.normal(size=(2, 25, 3, 3))
        stacked = _lift(t, T, dt, dT)
        shared = _lift(t[0], T, 0.0, dT[0])  # a shared shift and derivative
        assert stacked.shape == shared.shape == (25, 7, 7)
        for k in range(25):
            assert np.array_equal(stacked[k], _lift(t[k], T[k], dt[k], dT[k]))
            assert np.array_equal(shared[k], _lift(t[0], T[k], 0.0, dT[0]))
        for got, want in zip(kernel_blocks(stacked[3]), (t[3], T[3], dt[3], dT[3])):
            assert np.array_equal(got, want)
        assert not stacked[:, :3, 3:6].any()
        assert (stacked[:, 6] == np.eye(7)[6]).all()


class TestSqlProtocol:
    def test_slope_near_asymptote(self):
        fam = x_rotation_dephasing(0.1)
        n = 20_000
        res = sql_protocol(fam, n, 0.01)
        assert np.isclose(res.qfi_or_fi / n, sql_asymptotic(fam, 0.01), rtol=0.01)

    def test_variant_without_signal_rejected(self):
        fam = DephasingFamily(0.1, 0.0, X, ZERO)
        with pytest.raises(NotApplicableError):
            sql_protocol(fam, 100, 0.01, variant="g1x")
        with pytest.raises(NotApplicableError):
            sql_asymptotic(fam, 0.01, variant="g0y")

    def test_g1_variant_slope(self):
        fam = DephasingFamily(0.1, 0.0, ZERO, X)
        n = 50_000
        res = sql_protocol(fam, n, 0.01, variant="g1x")
        asym = sql_asymptotic(fam, 0.01, variant="g1x")
        assert np.isclose(res.qfi_or_fi / n, asym, rtol=0.02)
        # w -> 0 approaches p/(1-p) Tr(G1 X)^2
        assert np.isclose(
            sql_asymptotic(fam, 1e-6, variant="g1x"), 0.1 / 0.9 * 4.0, rtol=1e-4
        )

    def test_asymptotic_values(self):
        fam = x_rotation_dephasing(0.1)
        assert np.isclose(sql_asymptotic(fam, 0.01), 34.40429672013252)
        assert np.isclose(sql_asymptotic(fam, 1e-7), 36.0, rtol=1e-5)
        assert sql_asymptotic(fam, 0.01, z0=1e-4) < 1e-6

    def test_convergence_rate_envelope(self):
        # gap |F/n - asymptote| decays like 1/sqrt(n) for a generic family
        # (the X-rotation example family has extra symmetry and decays like 1/n)
        fam = DephasingFamily(0.1, 1.0, X + 2.0 * Z, 0.5 * Y + Z)
        asym = sql_asymptotic(fam, 0.01)
        ns = [1000, 10_000, 100_000]
        gaps = [abs(sql_protocol(fam, n, 0.01).qfi_or_fi / n - asym) for n in ns]
        assert gaps[0] > gaps[1] > gaps[2]
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_example_family_fast_convergence(self):
        fam = x_rotation_dephasing(0.1)
        asym = sql_asymptotic(fam, 0.01)
        ns = [1000, 10_000, 100_000]
        gaps = [abs(sql_protocol(fam, n, 0.01).qfi_or_fi / n - asym) for n in ns]
        assert gaps[0] > gaps[1] > gaps[2]
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert slope <= -0.4  # at least the square-root envelope; here ~ -1


class TestRepeatedMeasurement:
    def test_optimal_interval_is_six(self):
        fam = x_rotation_dephasing(0.1)
        per_step = {
            k: repeated_measurement(fam, k, k).qfi_or_fi / k for k in range(1, 21)
        }
        assert max(per_step, key=per_step.get) == 6

    def test_single_step_fi(self):
        fam = x_rotation_dephasing(0.1)
        res = repeated_measurement(fam, 1, 1)
        assert np.isclose(res.qfi_or_fi, 4.0)

    def test_parameter_independent(self):
        fam = DephasingFamily(0.2, 0.0, ZERO, ZERO)
        assert repeated_measurement(fam, 60, 6).qfi_or_fi == 0.0

    def test_remainder_recorded(self):
        fam = x_rotation_dephasing(0.1)
        res = repeated_measurement(fam, 20, 6)
        assert res.meta["blocks"] == 3 and res.meta["remainder"] == 2

    def test_overflow_raises_domain_error(self):
        # without cli.main's error state numpy only warns, so the result must refuse inf
        with np.errstate(over="ignore"):
            assert repeated_measurement(DephasingFamily(0.5, 0.0, ZERO, 1.34e154 * Y), 1, 1).qfi_or_fi < np.inf
            with pytest.raises(DomainError, match="not finite"):
                repeated_measurement(DephasingFamily(0.5, 0.0, ZERO, 1.35e154 * Y), 1, 1)


class TestSpamFi:
    def test_maximal_noise(self):
        fam = x_rotation_dephasing(0.1)
        assert spam_fi(fam, 100, 0.01, 0.5) == 0.0

    def test_ideal_readout_below_qfi(self):
        fam = x_rotation_dephasing(0.1)
        n = 2000
        fi = spam_fi(fam, n, 0.01, 0.0)
        qfi = sql_protocol(fam, n, 0.01).qfi_or_fi
        assert fi <= qfi + 1e-9
        assert fi > 0.8 * qfi  # the Z readout captures most of the signal here

    def test_noisy_beats_noiseless_repeated_at_large_n(self):
        fam = x_rotation_dephasing(0.1)
        n = 3000
        assert spam_fi(fam, n, 0.01, 0.02) > repeated_measurement(fam, n, 6).qfi_or_fi

    def test_q_outside_range(self):
        with pytest.raises(DomainError):
            spam_fi(x_rotation_dephasing(0.1), 10, 0.01, 0.7)

    def test_matches_povm_oracle(self, rng):
        for _ in range(300):
            fam = random_dephasing_family(rng)
            n, w, q = int(rng.integers(1, 200)), rng.uniform(0.0, 0.05), rng.uniform(0.01, 0.45)
            variant = SQL_VARIANTS[rng.integers(len(SQL_VARIANTS))]
            terminal = sql_protocol(fam, n, w, variant=variant, z0=1.0 - 2.0 * q).terminal
            want = povm_fi(bloch_to_density(terminal), spam_povm(q))
            assert np.isclose(spam_fi(fam, n, w, q, variant), want, rtol=1e-12, atol=0.0)

    def test_noiseless_readout_at_the_pole(self):
        # p = 1/2 leaves the Z axis fixed, so the pure terminal state sits at the pole
        fam = DephasingFamily(0.5, 0.0, X, 1.8019858144938336e128 * X)
        assert spam_fi(fam, 1, 1.2318483770848971e-280, 0.0) == pytest.approx(4e-24, rel=1e-9)

    @pytest.mark.parametrize("form", ["per_n", "rows"])
    @pytest.mark.parametrize(
        "fam, n, w, variant, error, message",
        [
            (x_rotation_dephasing(0.1), 0, 0.01, "g0x", DomainError, "n must be at least 1"),
            (x_rotation_dephasing(0.1), 10, -1.0, "g0x", DomainError, "w must be positive"),
            (x_rotation_dephasing(0.1), 10, 0.01, "bad", DomainError, "variant must be one of"),
            (DephasingFamily(0.1, 0.0, Z, Z.copy()), 10, 0.01, "g0x", NotApplicableError, "no signal"),
        ],
        ids=["n_zero", "w_negative", "bad_variant", "no_signal"],
    )
    def test_half_rate_runs_every_check(self, form, fam, n, w, variant, error, message):
        # at q = 1/2 the FI is 0, but the arguments are checked as at q < 1/2
        def call(q):
            if form == "per_n":
                return spam_fi(fam, n, w, q, variant)
            return spam_fi_rows(fam, [n, n + 1], w, q, variant)

        for q in (0.1, 0.5):
            with pytest.raises(error, match=message):
                call(q)


class TestQec:
    def test_heisenberg_values(self):
        assert np.isclose(qec_repetition_sim(0.1, 10).qfi_or_fi, 256.0, rtol=1e-6)
        assert np.isclose(qec_repetition_sim(0.1, 1).qfi_or_fi, 2.56, rtol=1e-6)

    def test_half_probability_kills_signal(self):
        for n in (1, 5, 20):
            assert qec_repetition_sim(0.5, n).qfi_or_fi < 1e-10

    def test_analytic_formula(self):
        assert np.isclose(qec_analytic(0.1, 100), 25600.0, rtol=1e-14)
        assert qec_analytic(0.5, 7) == 0.0
        assert qec_analytic(0.3, 0) == 0.0

    @pytest.mark.parametrize("n", [10**200, 10**400], ids=["float_overflow", "int_too_big"])
    def test_analytic_overflow_is_domain_error(self, n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="overflow"):
                qec_analytic(0.1, n)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert qec_analytic(0.1, 10**100) == 4.0 * (1.0 - 2.0 * 0.1) ** 2 * 10**100 * 10**100

    def test_sim_matches_analytic_grid(self):
        for p in (0.05, 0.25, 0.4):
            for n in (3, 17, 60):
                sim = qec_repetition_sim(p, n).qfi_or_fi
                assert np.isclose(sim, qec_analytic(p, n), rtol=1e-6)


QEC_PS = (0.01, 0.05, 0.1, 0.13, 0.137, 0.23, 0.3, 1 / 3, 0.4, 0.5)


class TestQecLogicalStep:
    """The 32x32 step on ``(vec rho, vec drho)``, compressed through the code basis, certifies
    the 7x7 logical step that :func:`qec_repetition_sim` runs."""

    @pytest.mark.parametrize("p", QEC_PS)
    def test_code_space_is_invariant_and_compresses_to_the_step(self, p):
        emb, read = qec_code_maps()
        assert np.array_equal(read @ emb, np.eye(7))
        m = _qec_transfer(p)
        k = read @ m @ emb
        # the step maps the code space into itself exactly: no leakage
        assert np.array_equal(m @ emb, emb @ k)
        assert np.abs(k - (_qec_step(p) + np.eye(7))).max() <= 1e-15

    @pytest.mark.parametrize("p", QEC_PS)
    def test_rows_match_the_superoperator(self, p):
        ns = np.arange(1, 301)
        want = np.array(qec_superoperator_rows(p, ns))
        assert np.all(np.abs(qec_repetition_rows(p, ns) - want) <= 2e-15 * want)

    def test_result_carries_the_logical_terminal(self):
        res = qec_repetition_sim(0.1, 100)
        assert res.qfi_or_fi == 25600.0
        assert np.array_equal(res.terminal.v, [1.0, 0.0, 0.0])
        assert np.array_equal(res.terminal.dv, [0.0, 160.0, 0.0])  # 2 (1-2p) n about y
        assert res.meta == {}


class TestCeilings:
    def test_derivative_ceiling_rgnks_violated(self, rng):
        # G0, G1 prop Z: ||dv_n||^2 <= (Tr(G- Z)^2 + 4 pdot^2) / (4 p^2 (1-p)^2)
        for _ in range(1000):
            p = rng.uniform(0.05, 0.5)
            fam = DephasingFamily(p, rng.normal(), rng.normal() * Z, rng.normal() * Z)
            cap = rgnks_violated_bound(fam) / 4.0
            n = int(rng.integers(1, 60))
            controls = [ptm_from_kraus(random_cptp_kraus(rng)) for _ in range(n)]
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            v0 = BlochState(direction * rng.uniform() ** (1 / 3), np.zeros(3))
            res = simulate_sequence(fam, ControlSequence(controls, constant=False), v0, n)
            assert res.terminal.dv @ res.terminal.dv <= cap + 1e-9

    def test_qfi_ceiling_rgnks_violated_unital(self, rng):
        for _ in range(100):
            p = rng.uniform(0.05, 0.5)
            fam = DephasingFamily(p, rng.normal(), rng.normal() * Z, rng.normal() * Z)
            cap = rgnks_violated_bound(fam)
            n = int(rng.integers(1, 60))
            controls = [random_unital_ptm(rng) for _ in range(n)]
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            v0 = BlochState(direction * rng.uniform() ** (1 / 3), np.zeros(3))
            res = simulate_sequence(fam, ControlSequence(controls, constant=False), v0, n)
            assert res.qfi_or_fi <= cap + 1e-9

    def test_protocol_never_exceeds_extension_bound(self, rng):
        fam = x_rotation_dephasing(0.1)
        for n in (5, 20, 60):
            control = sql_control_ptm("g0x", np.sqrt(0.01 / n))
            steps = [ExtensionStep(control, unital_gauge(fam))] * n
            total = extension_bound(fam, steps).total
            assert sql_protocol(fam, n, 0.01).qfi_or_fi <= total + 1e-9


class TestClosedFormOverflow:
    @pytest.mark.parametrize(
        "call, fam",
        [
            (no_control_fixed_point, DephasingFamily(0.3, 0.0, 1e155 * X, ZERO)),
            (lambda fam: sql_asymptotic(fam, 0.01), DephasingFamily(0.3, 0.0, 1e155 * X, ZERO)),
            (no_control_fixed_point, DephasingFamily(1e-200, 0.0, X, ZERO)),
            (lambda fam: sql_asymptotic(fam, 0.01), DephasingFamily(1e-200, 0.0, X, ZERO)),
        ],
        ids=["fixed_point_huge", "sql_huge", "fixed_point_tiny_p", "sql_tiny_p"],
    )
    def test_raises_domain_error_without_warning(self, call, fam):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError):
                call(fam)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("w", [79.0, 1000.0])
    def test_large_w_is_finite(self, w):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = sql_asymptotic(x_rotation_dephasing(0.1), w)
        assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]
        assert np.isfinite(value) and value >= 0.0


class TestStepCountOverflow:
    @pytest.mark.parametrize(
        "call",
        [
            lambda fam, n: sql_protocol(fam, n, 0.01),
            lambda fam, n: sql_protocol_rows(fam, [1, n], 0.01),
            lambda fam, n: spam_fi(fam, n, 0.01, 0.1),
            lambda fam, n: spam_fi_rows(fam, [1, n], 0.01, 0.1),
            lambda fam, n: repeated_measurement(fam, n, 3),
            lambda fam, n: repeated_measurement_rows(fam, [1, n], 3),
        ],
        ids=["sql", "sql_rows", "spam", "spam_rows", "repeated", "repeated_rows"],
    )
    def test_step_count_without_a_float_is_domain_error(self, call):
        # 10**400 has no float: a domain error, not a bare OverflowError
        fam = x_rotation_dephasing(0.1)
        with pytest.raises(DomainError, match="int too large to convert to float"):
            call(fam, 10**400)
        value = call(fam, 10**6)
        assert np.isfinite(getattr(value, "qfi_or_fi", value)).all()


class TestStepCountType:
    """A step count that is not an integer is a :class:`ValidationError` naming ``n``."""

    PER_STEP = ControlSequence([PauliTransferMap.identity()] * 3, constant=False)

    @pytest.mark.parametrize(
        "call",
        [
            lambda fam, n: simulate_sequence(fam, TestStepCountType.PER_STEP, POLE, n),
            lambda fam, n: simulate_sequence(fam, ControlSequence.identity(), POLE, n),
            lambda fam, n: simulate_sequence(fam, ControlSequence.identity(), POLE, n, record_trajectory=True),
            lambda fam, n: sql_protocol(fam, n, 0.01),
            lambda fam, n: spam_fi(fam, n, 0.01, 0.1),
            lambda fam, n: spam_fi(fam, n, 0.01, 0.5),
            lambda fam, n: repeated_measurement(fam, n, 2),
            lambda fam, n: qec_repetition_sim(0.1, n),
            lambda fam, n: qec_analytic(0.1, n),
            lambda fam, n: sql_protocol_rows(fam, [1, n], 0.01),
            lambda fam, n: spam_fi_rows(fam, [1, n], 0.01, 0.1),
            lambda fam, n: repeated_measurement_rows(fam, [1, n], 2),
            lambda fam, n: qec_repetition_rows(0.1, [1, n]),
            lambda fam, n: no_control_rows(fam, [1, n]),
        ],
        ids=[
            "per_step",
            "constant",
            "trajectory",
            "sql",
            "spam",
            "spam_half_rate",
            "repeated",
            "qec",
            "qec_analytic",
            "sql_rows",
            "spam_rows",
            "repeated_rows",
            "qec_rows",
            "no_control_rows",
        ],
    )
    def test_float_step_count_is_validation_error(self, call):
        fam = x_rotation_dephasing(0.1)
        for bad in (3.0, 2.5):
            with pytest.raises(ValidationError, match="n must be an integer"):
                call(fam, bad)
        want, got = call(fam, 3), call(fam, np.int64(3))
        if isinstance(want, ProtocolResult) and want.terminal is not None:
            assert_same_result(got, want)
        else:
            assert np.array_equal(getattr(got, "qfi_or_fi", got), getattr(want, "qfi_or_fi", want))

    @pytest.mark.parametrize(
        "call",
        [
            lambda fam, n: sql_protocol(fam, n, 0.01),
            lambda fam, n: spam_fi(fam, n, 0.01, 0.1),
            lambda fam, n: repeated_measurement(fam, n, 2),
            lambda fam, n: qec_repetition_sim(0.1, n),
        ],
        ids=["sql", "spam", "repeated", "qec"],
    )
    def test_string_step_count_is_validation_error(self, call):
        with pytest.raises(ValidationError, match="n must be an integer, got '3'"):
            call(x_rotation_dephasing(0.1), "3")
