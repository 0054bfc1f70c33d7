from dataclasses import replace

import numpy as np
import pytest

from qmetro.channel_model import (
    AmbiguousClassificationError,
    ChannelKind,
    DephasingFamily,
    KrausPair,
    NotApplicableError,
    canonical_pauli_form,
    classify,
    dephasing_channel,
    depolarizing_kraus,
    hnks_check,
    kraus_span,
    random_dephasing_family,
    random_one_param_channel,
    rgnks_check,
    rotated_family,
    solve_h_annihilating,
    span_residual,
    x_rotation_dephasing,
)
from qmetro.cli import parse_config, serialize_config
from qmetro.qubit_core import (
    I2,
    X,
    Y,
    Z,
    DomainError,
    KrausSet,
    PauliTransferMap,
    ValidationError,
    choi_from_kraus,
    ptm_from_kraus,
    random_cptp_kraus,
    random_rotation,
)


def damping_set(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausSet([k0, k1])


class TestClassify:
    def test_dephasing_class(self):
        ptm = PauliTransferMap(np.zeros(3), np.diag([0.8, 0.8, 1.0]))
        assert classify(ptm).tag is ChannelKind.DEPHASING_CLASS

    def test_unitary(self):
        assert classify(PauliTransferMap.identity()).tag is ChannelKind.UNITARY

    def test_strictly_contractive(self):
        ptm = PauliTransferMap(np.zeros(3), 0.5 * np.eye(3))
        assert classify(ptm).tag is ChannelKind.STRICTLY_CONTRACTIVE

    def test_ambiguous_band(self):
        tol = 1e-7
        ptm = PauliTransferMap(np.zeros(3), np.diag([1.0 - tol, 0.5, 0.5]))
        with pytest.raises(AmbiguousClassificationError):
            classify(ptm, tol=tol)

    def test_basis_invariance(self, rng):
        base = ptm_from_kraus(damping_set(0.3))
        for _ in range(50):
            left, right = random_rotation(rng), random_rotation(rng)
            rotated = PauliTransferMap(left @ base.t, left @ base.T @ right)
            assert classify(rotated).tag is classify(base).tag


class TestDephasingChannel:
    def test_example_family_kraus(self):
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        k0, k1 = ch.kraus
        assert np.allclose(k0.k, np.sqrt(0.9) * I2)
        assert np.allclose(k1.k, np.sqrt(0.1) * Z)
        assert np.allclose(k0.dk, -1j * np.sqrt(0.9) * X)
        assert np.allclose(k1.dk, -1j * np.sqrt(0.1) * Z @ (-X))

    def test_parameter_independent(self):
        fam = DephasingFamily(0.25, 0.0, np.zeros((2, 2)), np.zeros((2, 2)))
        ch = dephasing_channel(fam)
        assert all(np.allclose(p.dk, 0) for p in ch.kraus)

    def test_pure_p_drive(self):
        fam = DephasingFamily(0.1, 1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        ch = dephasing_channel(fam)
        assert np.allclose(ch.kraus[0].dk, -I2 / (2 * np.sqrt(0.9)))
        assert np.allclose(ch.kraus[1].dk, Z / (2 * np.sqrt(0.1)))

    def test_p_out_of_range(self):
        with pytest.raises(DomainError):
            DephasingFamily(0.0, 0.0, X, X)
        with pytest.raises(DomainError):
            DephasingFamily(0.7, 0.0, X, X)

    def test_text_round_trip(self, rng):
        for _ in range(20):
            fam = random_dephasing_family(rng)
            cfg = replace(parse_config(""), family=fam)
            back = parse_config(serialize_config(cfg)).family
            assert np.isclose(back.p, fam.p)
            assert np.isclose(back.pdot, fam.pdot)
            assert np.allclose(back.g0, fam.g0)
            assert np.allclose(back.g1, fam.g1)


class TestKrausPair:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            KrausPair(np.array([[bad, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="non-finite"):
            KrausPair(I2, np.array([[0.0, 0.0], [bad, 0.0]]))


class TestKrausSpan:
    def test_dephasing_span_is_identity_and_z(self):
        basis = kraus_span(dephasing_channel(x_rotation_dephasing(0.1)).kraus_set())
        assert len(basis) == 2
        assert span_residual(basis, I2) < 1e-10
        assert span_residual(basis, Z) < 1e-10
        assert span_residual(basis, X) > 0.9

    def test_identity_channel(self):
        basis = kraus_span(KrausSet([I2]))
        assert len(basis) == 1

    def test_amplitude_damping_full(self, rng):
        ks = damping_set(0.3)
        basis = kraus_span(ks)
        assert len(basis) == 4
        # brute-force oracle: rank of the Gram matrix of Hermitian/anti-Hermitian
        # parts of the pairwise products
        parts = []
        for i in range(2):
            for j in range(2):
                prod = ks.ops[i].conj().T @ ks.ops[j]
                parts.append((prod + prod.conj().T) / 2)
                parts.append(1j * (prod - prod.conj().T) / 2)
        gram = np.array([[np.trace(a.conj().T @ b).real for b in parts] for a in parts])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 4

    def test_projection_idempotent(self, rng):
        basis = kraus_span(random_cptp_kraus(rng, env=2))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        once = span_residual(basis, h)
        # removing the span component again changes nothing
        proj = h.copy()
        for b in basis:
            proj = proj - np.trace(b.conj().T @ proj) * b
        assert np.isclose(span_residual(basis, proj), once, atol=1e-12)


class TestHnks:
    def test_example_channel_holds(self):
        res = hnks_check(dephasing_channel(x_rotation_dephasing(0.1)))
        assert res.holds
        assert np.allclose(res.hamiltonian, 0.8 * X, atol=1e-12)

    def test_z_rotation_violates(self):
        fam = DephasingFamily(0.1, 0.0, Z, Z.copy())
        assert not hnks_check(dephasing_channel(fam)).holds

    def test_contractive_channels_violate(self, rng):
        for _ in range(100):
            ch = random_one_param_channel(rng)
            assert not hnks_check(ch).holds

    def test_hnks_implies_rgnks(self, rng):
        hits = 0
        for _ in range(1000):
            fam = random_dephasing_family(rng)
            if hnks_check(dephasing_channel(fam)).holds:
                hits += 1
                assert rgnks_check(fam)
        assert hits > 100  # the random ensemble produces plenty of HNKS cases

    def test_rgnks_without_hnks(self):
        p = 0.3
        fam = DephasingFamily(p, 0.0, p * X, -(1 - p) * X)
        assert rgnks_check(fam)
        assert not hnks_check(dephasing_channel(fam)).holds


class TestRgnks:
    def test_h_zero_counterexample(self):
        p = 0.2
        assert rgnks_check(DephasingFamily(p, 0.0, p * X, -(1 - p) * X))

    def test_both_z_violates(self):
        assert not rgnks_check(DephasingFamily(0.1, 0.0, Z, 2 * Z))

    def test_single_x_holds(self):
        assert rgnks_check(DephasingFamily(0.1, 0.0, X, np.zeros((2, 2))))


class TestCanonicalForm:
    def test_dephasing(self):
        p = 0.3
        form = canonical_pauli_form(dephasing_channel(DephasingFamily(p, 0, X, X)).kraus_set())
        assert np.isclose(form.m00, np.sqrt(1 - p))
        assert np.allclose(form.m, 0, atol=1e-12)
        assert np.allclose(form.frak_m, np.diag([0, 0, np.sqrt(p)]), atol=1e-12)

    def test_unitary_rotation(self):
        u = np.cos(np.pi / 4) * I2 - 1j * np.sin(np.pi / 4) * Z
        form = canonical_pauli_form(KrausSet([u]))
        assert np.isclose(form.m00, np.cos(np.pi / 4))
        assert np.allclose(form.m, [0, 0, 1j * np.sin(np.pi / 4)])
        assert np.allclose(np.real(form.m), 0, atol=1e-12)  # unital witness
        assert np.allclose(form.frak_m, 0, atol=1e-12)

    def test_damping_is_non_unital(self):
        # m00 Re[m] = sqrt(1-gamma/... ) * gamma-dependent shift, nonzero for gamma > 0
        form = canonical_pauli_form(damping_set(0.3))
        assert form.unitality_witness > 0.05

    def test_round_trip_choi(self, rng):
        for _ in range(100):
            ks = random_cptp_kraus(rng)
            form = canonical_pauli_form(ks)
            diff = choi_from_kraus(ks) - choi_from_kraus(form.kraus_set())
            assert np.linalg.norm(diff) < 1e-9


class TestSolveH:
    def test_damping_z(self):
        sol = solve_h_annihilating(damping_set(0.3), Z)
        assert sol.residual <= 1e-9 * (np.linalg.norm(Z, 2) + 1)

    def test_zero_hamiltonian(self):
        sol = solve_h_annihilating(damping_set(0.3), np.zeros((2, 2)))
        assert np.allclose(sol.h, 0, atol=1e-12)
        assert sol.residual < 1e-12

    def test_dephasing_not_applicable(self):
        ks = dephasing_channel(x_rotation_dephasing(0.1)).kraus_set()
        with pytest.raises(NotApplicableError):
            solve_h_annihilating(ks, Z)

    def test_random_non_unital(self, rng):
        checked = 0
        while checked < 1000:
            ks = random_cptp_kraus(rng)
            form = canonical_pauli_form(ks)
            if form.unitality_witness < 1e-3:
                continue
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (h + h.conj().T) / 2
            sol = solve_h_annihilating(ks, h)
            assert sol.residual <= 1e-9 * (np.linalg.norm(h, 2) + 1)
            checked += 1


class TestTheoremDichotomy:
    def test_hnks_only_for_unitary_or_dephasing(self, rng):
        # mixed ensemble: generic (contractive), dephasing and unitary families
        for trial in range(200):
            kind = trial % 3
            if kind == 0:
                ch = random_one_param_channel(rng)
            elif kind == 1:
                ch = dephasing_channel(random_dephasing_family(rng))
            else:
                g = rng.normal(size=3)
                gen = g[0] * X + g[1] * Y + g[2] * Z
                ch = rotated_family(KrausSet([I2]), gen)
            if hnks_check(ch).holds:
                tag = classify(ptm_from_kraus(ch.kraus_set())).tag
                assert tag in (ChannelKind.UNITARY, ChannelKind.DEPHASING_CLASS)

    def test_depolarizing_is_contractive(self):
        tag = classify(ptm_from_kraus(depolarizing_kraus(0.5))).tag
        assert tag is ChannelKind.STRICTLY_CONTRACTIVE
