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
    pauli_compose,
    pauli_decompose,
    ptm_from_kraus,
    random_cptp_kraus,
    random_unitary,
    require_hermitian,
    validate_cptp,
)


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
