import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro.qubit_core import (
    I2,
    X,
    Y,
    Z,
    BlochState,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    bloch_to_density,
    choi_from_kraus,
    choi_from_ptm,
    density_to_bloch,
    kraus_from_choi,
    kraus_from_ptm,
    apply_kraus,
    pauli_compose,
    pauli_decompose,
    pauli_sandwich,
    ptm_derivative_from_kraus,
    ptm_from_kraus,
    random_cptp_kraus,
    random_unitary,
    require_cptp,
    require_hermitian,
    validate_cptp,
)

SIGMA = (X, Y, Z)


# ---------------------------------------------------------------------------
# Oracles: the apply_kraus + np.trace loops and the kron-built Choi matrix
# that the Pauli-sandwich conversions replaced
# ---------------------------------------------------------------------------


def loop_ptm(ops):
    e_id = apply_kraus(ops, I2)
    t = np.array([np.trace(s @ e_id).real / 2.0 for s in SIGMA])
    T = np.empty((3, 3))
    for j, sj in enumerate(SIGMA):
        out = apply_kraus(ops, sj)
        for i, si in enumerate(SIGMA):
            T[i, j] = np.trace(si @ out).real / 2.0
    return t, T


def loop_ptm_derivative(pairs):
    def d_e(a):
        return sum(dk @ a @ k.conj().T + k @ a @ dk.conj().T for k, dk in pairs)

    dt = np.array([np.trace(s @ d_e(I2)).real / 2.0 for s in SIGMA])
    dT = np.empty((3, 3))
    for j, sj in enumerate(SIGMA):
        out = d_e(sj)
        for i, si in enumerate(SIGMA):
            dT[i, j] = np.trace(si @ out).real / 2.0
    return dt, dT


def kron_choi(ptm):
    out = np.kron(I2 + ptm.t[0] * X + ptm.t[1] * Y + ptm.t[2] * Z, I2)
    for k, sk in enumerate(SIGMA):
        col = ptm.T[:, k]
        out += np.kron(col[0] * X + col[1] * Y + col[2] * Z, sk.T)
    return out / 2.0


def random_ops(rng, count):
    return [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(count)]


def dephasing_set(p):
    return KrausSet([np.sqrt(1 - p) * I2, np.sqrt(p) * Z])


def damping_set(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausSet([k0, k1])


class TestPauliDecompose:
    def test_identity(self):
        assert np.allclose(pauli_decompose(I2), [2, 0, 0, 0])

    def test_pauli_x(self):
        assert np.allclose(pauli_decompose(X), [0, 2, 0, 0])

    def test_superposition(self):
        op = (X + Z) / np.sqrt(2)
        assert np.allclose(pauli_decompose(op), [0, np.sqrt(2), 0, np.sqrt(2)])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, coeffs):
        op = pauli_compose(coeffs)
        assert np.allclose(pauli_decompose(op), coeffs, atol=1e-14)


class TestPauliSandwich:
    def test_definition(self, rng):
        paulis = (I2, X, Y, Z)
        for env in (1, 2, 3, 4):
            left, right = random_ops(rng, env), random_ops(rng, env)
            want = [
                [sum(np.trace(si @ l @ sj @ r.conj().T) for l, r in zip(left, right)) for sj in paulis]
                for si in paulis
            ]
            assert np.abs(pauli_sandwich(left, right) - want).max() <= 1e-13

    def test_ptm_matches_loop(self, rng):
        for env in (1, 2, 3, 4):
            for _ in range(25):
                ks = random_cptp_kraus(rng, env=env)
                ptm = ptm_from_kraus(ks)
                t, T = loop_ptm(ks.ops)
                assert np.abs(ptm.t - t).max() <= 1e-14
                assert np.abs(ptm.T - T).max() <= 1e-14

    def test_ptm_derivative_matches_loop(self, rng):
        for env in (1, 2, 3, 4):
            for _ in range(25):
                ks = random_cptp_kraus(rng, env=env)
                pairs = list(zip(ks.ops, random_ops(rng, env)))
                dt, dT = ptm_derivative_from_kraus(pairs)
                dt_loop, dT_loop = loop_ptm_derivative(pairs)
                scale = max(np.abs(dT_loop).max(), np.abs(dt_loop).max(), 1.0)
                assert np.abs(dt - dt_loop).max() <= 1e-14 * scale
                assert np.abs(dT - dT_loop).max() <= 1e-14 * scale

    def test_choi_from_ptm_matches_kron(self, rng):
        for env in (1, 2, 3, 4):
            for _ in range(25):
                ptm = ptm_from_kraus(random_cptp_kraus(rng, env=env))
                assert np.abs(choi_from_ptm(ptm) - kron_choi(ptm)).max() <= 1e-14
        inflated = PauliTransferMap([0, 0, 0.5], np.diag([0.9, 0.9, 0.9]))
        assert np.abs(choi_from_ptm(inflated) - kron_choi(inflated)).max() <= 1e-14

    def test_choi_from_ptm_matches_kraus_choi(self, rng):
        for env in (1, 2, 3, 4):
            ks = random_cptp_kraus(rng, env=env)
            assert np.abs(choi_from_ptm(ptm_from_kraus(ks)) - choi_from_kraus(ks)).max() <= 1e-14


class TestRequireCptp:
    def test_cptp_maps_pass(self, rng):
        for env in (1, 2, 4):
            require_cptp(ptm_from_kraus(random_cptp_kraus(rng, env=env)))
        require_cptp(PauliTransferMap([0, 0, 0.36], np.diag([0.8, 0.8, 0.64])))

    def test_rejects_non_cp(self):
        with pytest.raises(ValidationError, match="min Choi eigenvalue"):
            require_cptp(PauliTransferMap([0, 0, 0.5], np.diag([0.9, 0.9, 0.9])))

    def test_checks_even_when_marked_validated(self):
        with pytest.raises(ValidationError):
            require_cptp(PauliTransferMap(np.zeros(3), 1.5 * np.eye(3), validated=True))


class TestBlochConversions:
    def test_north_pole(self):
        s = bloch_to_density(BlochState([0, 0, 1], [0, 0, 0]))
        assert np.allclose(s.rho, [[1, 0], [0, 0]])
        assert np.allclose(s.drho, 0)

    def test_maximally_mixed(self):
        s = bloch_to_density(BlochState([0, 0, 0], [0, 0, 0]))
        assert np.allclose(s.rho, I2 / 2)

    def test_plus_state_with_drive(self):
        s = bloch_to_density(BlochState([1, 0, 0], [0, 1, 0]))
        assert np.allclose(s.rho, (I2 + X) / 2)
        assert np.allclose(s.drho, Y / 2)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValidationError):
            BlochState([1.1, 0, 0], [0, 0, 0])

    def test_round_trip_many(self, rng):
        for _ in range(10_000):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            v = direction * rng.uniform() ** (1 / 3)
            dv = rng.normal(size=3)
            b = BlochState(v, dv)
            back = density_to_bloch(bloch_to_density(b))
            assert np.allclose(back.v, v, atol=1e-14)
            assert np.allclose(back.dv, dv, atol=1e-14)


class TestPtm:
    def test_identity_channel(self):
        ptm = ptm_from_kraus(KrausSet([I2]))
        assert np.allclose(ptm.t, 0)
        assert np.allclose(ptm.T, np.eye(3))

    def test_dephasing(self):
        ptm = ptm_from_kraus(dephasing_set(0.1))
        assert np.allclose(ptm.t, 0, atol=1e-12)
        assert np.allclose(ptm.T, np.diag([0.8, 0.8, 1.0]))

    def test_amplitude_damping(self):
        ptm = ptm_from_kraus(damping_set(0.36))
        assert np.allclose(ptm.t, [0, 0, 0.36])
        assert np.allclose(ptm.T, np.diag([0.8, 0.8, 0.64]))

    def test_gauge_invariance(self, rng):
        for _ in range(50):
            ks = random_cptp_kraus(rng)
            u = random_unitary(rng, len(ks.ops))
            remixed = KrausSet(
                [sum(u[i, j] * ks.ops[j] for j in range(len(ks.ops))) for i in range(len(ks.ops))]
            )
            a, b = ptm_from_kraus(ks), ptm_from_kraus(remixed)
            assert np.allclose(a.t, b.t, atol=1e-12)
            assert np.allclose(a.T, b.T, atol=1e-12)

    def test_composition_homomorphism(self, rng):
        for _ in range(50):
            p1 = ptm_from_kraus(random_cptp_kraus(rng))
            p2 = ptm_from_kraus(random_cptp_kraus(rng))
            ks1, ks2 = kraus_from_ptm(p1), kraus_from_ptm(p2)
            composed = KrausSet([k2 @ k1 for k2 in ks2.ops for k1 in ks1.ops])
            direct = ptm_from_kraus(composed)
            chained = p2.compose(p1)
            assert np.allclose(direct.t, chained.t, atol=1e-12)
            assert np.allclose(direct.T, chained.T, atol=1e-12)


class TestChoi:
    def test_identity_is_rank_one(self):
        choi = choi_from_kraus(KrausSet([I2]))
        eig = np.linalg.eigvalsh(choi)
        assert np.isclose(np.trace(choi).real, 2.0)
        assert np.isclose(eig[-1], 2.0) and np.allclose(eig[:-1], 0, atol=1e-12)

    def test_dephasing_spectrum(self):
        p = 0.3
        eig = np.sort(np.linalg.eigvalsh(choi_from_kraus(dephasing_set(p))))
        # hand oracle: the Choi of {sqrt(1-p) I, sqrt(p) Z} is block diagonal with
        # rank-one blocks of weights 2(1-p) and 2p
        assert np.allclose(eig[-2:], sorted([2 * p, 2 * (1 - p)]), atol=1e-12)
        assert np.allclose(eig[:2], 0, atol=1e-12)

    def test_full_depolarizing(self):
        from qmetro.channel_model import depolarizing_kraus

        eig = np.linalg.eigvalsh(choi_from_kraus(depolarizing_kraus(0.0)))
        assert np.allclose(eig, 0.5, atol=1e-12)

    def test_random_sets_are_cptp(self, rng):
        for _ in range(100):
            report = validate_cptp(choi_from_kraus(random_cptp_kraus(rng)))
            assert report.is_cp and report.is_tp


class TestRequireHermitian:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # nan > atol is False, so a nan entry must not pass as Hermitian
        op = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            require_hermitian(op)


class TestFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bloch_state(self, bad):
        # nan > 1 is False, so a nan entry must not pass the norm check
        with pytest.raises(ValidationError, match="non-finite"):
            BlochState(np.array([bad, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValidationError, match="non-finite"):
            BlochState(np.zeros(3), np.array([0.0, bad, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pauli_transfer_map(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            PauliTransferMap(np.array([0.0, 0.0, bad]), np.eye(3))
        with pytest.raises(ValidationError, match="non-finite"):
            PauliTransferMap(np.zeros(3), np.diag([1.0, bad, 1.0]))


class TestValidateCptp:
    def test_dephasing_passes(self):
        report = validate_cptp(choi_from_kraus(dephasing_set(0.1)))
        assert report.is_cp and report.is_tp

    def test_transpose_map_not_cp(self):
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        report = validate_cptp(swap)
        assert report.is_tp and not report.is_cp

    def test_inflated_shift_not_cp(self):
        ptm = PauliTransferMap([0, 0, 0.5], np.diag([0.9, 0.9, 0.9]))
        report = validate_cptp(choi_from_ptm(ptm))
        assert not report.is_cp

    def test_kraus_choi_round_trip(self, rng):
        for _ in range(20):
            ks = random_cptp_kraus(rng)
            choi = choi_from_kraus(ks)
            back = choi_from_kraus(kraus_from_choi(choi))
            assert np.allclose(choi, back, atol=1e-10)
