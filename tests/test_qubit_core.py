import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bloch_to_density,
    choi_from_kraus,
    density_to_bloch,
    kraus_from_choi,
    kraus_from_ptm,
    random_cptp_kraus,
    random_unitary,
)
from qmetro.qubit_core import (
    I2,
    X,
    Y,
    Z,
    BlochState,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    _down_sweep,
    _up_sweep,
    choi_from_ptm,
    apply_kraus,
    pauli_compose,
    pauli_decompose,
    pauli_sandwich,
    ptm_derivative_from_kraus,
    ptm_from_kraus,
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

        def definition(left, right):
            return [
                [sum(np.trace(si @ l @ sj @ r.conj().T) for l, r in zip(left, right)) for sj in paulis]
                for si in paulis
            ]

        for env in (1, 2, 3, 4):
            left, right = random_ops(rng, env), random_ops(rng, env)
            assert np.abs(pauli_sandwich(left, right) - definition(left, right)).max() <= 1e-13
            lefts, rights = (np.array([random_ops(rng, env) for _ in range(3)]) for _ in range(2))
            assert lefts.shape == (3, env, 2, 2)
            want = [definition(l, r) for l, r in zip(lefts, rights)]
            assert np.abs(pauli_sandwich(lefts, rights) - want).max() <= 1e-13

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
                dks = np.array(random_ops(rng, env))
                pairs = list(zip(ks.ops, dks))
                dt, dT = ptm_derivative_from_kraus(ks.ops, dks)
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

    def test_matrix_is_built_once_and_read_only(self, rng):
        ptm = ptm_from_kraus(random_cptp_kraus(rng))
        m = ptm.matrix
        assert m is ptm.matrix
        assert np.array_equal(m[0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(m[1:, 0], ptm.t) and np.array_equal(m[1:, 1:], ptm.T)
        with pytest.raises(ValueError):
            m[1, 1] = 2.0


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
        from oracles import depolarizing_kraus

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


def reference_cptp_report(choi):
    """The Choi check spelled out: the least eigenvalue and the Frobenius norm of the
    partial trace over the output factor minus the identity."""
    d = int(round(np.sqrt(choi.shape[0])))
    partial = np.trace(choi.reshape(d, d, d, d), axis1=0, axis2=2)
    return np.linalg.eigvalsh(choi).min(), np.linalg.norm(partial - np.eye(d))


class TestValidateCptp:
    def test_report_matches_reference(self, rng):
        maps = [
            PauliTransferMap(0.3 * rng.normal(size=3), rng.uniform(0, 1.2) * rng.normal(size=(3, 3)))
            for _ in range(200)
        ]
        chois = [choi_from_ptm(m) for m in maps]
        chois += [choi_from_kraus(random_cptp_kraus(rng, dim=dim, env=env)) for dim in (2, 4) for env in (1, 3)]
        chois += [0.9 * choi_from_kraus(random_cptp_kraus(rng, dim=dim)) for dim in (2, 4)]  # not TP
        for choi in chois:
            report = validate_cptp(choi)
            min_eig, residual = reference_cptp_report(choi)
            assert abs(report.min_eigenvalue - min_eig) <= 1e-15 * max(abs(min_eig), 1.0)
            assert abs(report.tp_residual - residual) <= 1e-15 * max(residual, 1.0)
            assert report.is_cp == (min_eig >= -1e-9) and report.is_tp == (residual <= 1e-10)

    def test_checks_keep_their_messages(self):
        with pytest.raises(ValidationError, match="Choi matrix has non-finite entries"):
            validate_cptp(np.diag([1.0, np.nan, 0.0, 1.0]))
        with pytest.raises(ValidationError, match="Choi matrix is not Hermitian within 1e-10"):
            validate_cptp(np.triu(np.ones((4, 4))))
        with pytest.raises(ValidationError, match="not a perfect square"):
            validate_cptp(np.eye(3))

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


def affine_offsets(rng, n, d):
    """Offsets ``S_k - I`` of ``n`` random affine contractions ``S_k = [[s Q, f], [0, 1]]`` of size d,
    with ``Q`` orthogonal, ``0.9 <= s <= 1`` and ``|f_i| <= 0.1``, so every product stays bounded."""
    q, _ = np.linalg.qr(rng.normal(size=(n, d - 1, d - 1)))
    steps = np.zeros((n, d, d))
    steps[:, :-1, :-1] = rng.uniform(0.9, 1.0, size=(n, 1, 1)) * q
    steps[:, :-1, -1] = rng.uniform(-0.1, 0.1, size=(n, d - 1))
    steps[:, -1, -1] = 1.0
    return steps - np.eye(d)


class TestPrefixSweeps:
    @pytest.mark.parametrize("d", [4, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 511, 513])
    def test_prefixes_match_step_loop(self, rng, d, n):
        e = affine_offsets(rng, n, d)
        prefixes = _down_sweep(_up_sweep(e))
        assert prefixes.shape == (n, d, d)
        product = np.eye(d)
        for step, got in zip(e, prefixes):
            product = (np.eye(d) + step) @ product
            assert np.abs(got - (product - np.eye(d))).max() <= 1e-13
        assert np.array_equal(prefixes[-1], _up_sweep(e)[-1][0])
