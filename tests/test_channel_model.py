from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    choi_from_kraus,
    depolarizing_kraus,
    random_cptp_kraus,
    random_dephasing_family,
    random_one_param_channel,
    random_rotation,
)
from qmetro.channel_model import (
    AmbiguousClassificationError,
    ChannelKind,
    DephasingFamily,
    NotApplicableError,
    OneParamChannel,
    canonical_pauli_form,
    classify,
    dephasing_channel,
    _span_lstsq,
    hnks_check,
    rgnks_check,
    rotated_family,
    solve_h_annihilating,
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
    _herm_basis,
    _herm_lstsq,
    ptm_from_kraus,
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
            classify(ptm)

    def test_basis_invariance(self, rng):
        base = ptm_from_kraus(damping_set(0.3))
        for _ in range(50):
            left, right = random_rotation(rng), random_rotation(rng)
            rotated = PauliTransferMap(left @ base.t, left @ base.T @ right)
            assert classify(rotated).tag is classify(base).tag


class TestDephasingChannel:
    def test_example_family_kraus(self):
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        k0, k1 = ch.k_ops
        dk0, dk1 = ch.dk_ops
        assert np.allclose(k0, np.sqrt(0.9) * I2)
        assert np.allclose(k1, np.sqrt(0.1) * Z)
        assert np.allclose(dk0, -1j * np.sqrt(0.9) * X)
        assert np.allclose(dk1, -1j * np.sqrt(0.1) * Z @ (-X))

    def test_parameter_independent(self):
        fam = DephasingFamily(0.25, 0.0, np.zeros((2, 2)), np.zeros((2, 2)))
        ch = dephasing_channel(fam)
        assert np.allclose(ch.dk_ops, 0)

    def test_pure_p_drive(self):
        fam = DephasingFamily(0.1, 1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        ch = dephasing_channel(fam)
        assert np.allclose(ch.dk_ops[0], -I2 / (2 * np.sqrt(0.9)))
        assert np.allclose(ch.dk_ops[1], Z / (2 * np.sqrt(0.1)))

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

    def test_built_once_per_family(self):
        fam = x_rotation_dephasing(0.1)
        assert dephasing_channel(fam) is dephasing_channel(fam)
        assert dephasing_channel(x_rotation_dephasing(0.1)) is not dephasing_channel(fam)


class TestStackedKraus:
    def test_arrays_equal_stacked_pairs(self, rng):
        for env in (1, 2, 4):
            # a rotated channel, dK_i = -i G K_i, is trace preserving at first order
            ks = random_cptp_kraus(rng, env=env)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            pairs = [(k, -1j * (g + g.conj().T) @ k) for k in ks.ops]
            ch = OneParamChannel(pairs)
            assert np.array_equal(ch.k_ops, np.array([k for k, _ in pairs]))
            assert np.array_equal(ch.dk_ops, np.array([dk for _, dk in pairs]))
            assert ch.k_ops.shape == (env, 2, 2) == ch.dk_ops.shape
            assert ch.k_ops is ch.kraus_set().ops

    def test_arrays_are_read_only(self):
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        for name in ("k_ops", "dk_ops"):
            with pytest.raises(ValueError):
                getattr(ch, name)[0, 0, 0] = 2.0
            with pytest.raises(AttributeError):
                setattr(ch, name, np.zeros((2, 2, 2)))
        assert np.allclose(ch.k_ops[0], np.sqrt(0.9) * I2)


def _with_entry(op, value):
    out = np.array(op, dtype=complex)
    out[1, 0] = value
    return out


NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
ZERO2 = np.zeros((2, 2))


class TestOneParamChannelRejects:
    CASES = {
        "empty": ([], "at least one operator"),
        "shape": ([(I2, np.zeros((4, 4)))], "must share a shape"),
        **{f"k_{name}": ([(_with_entry(I2, bad), ZERO2)], "non-finite") for name, bad in NON_FINITE.items()},
        **{f"dk_{name}": ([(I2, _with_entry(ZERO2, bad))], "non-finite") for name, bad in NON_FINITE.items()},
        "not_tp": ([(1.01 * I2, ZERO2)], "deviates from identity"),
        "first_order": ([(I2, 0.1 * Z)], "first order"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected_with_message(self, case):
        pairs, message = self.CASES[case]
        with pytest.raises(ValidationError, match=message):
            OneParamChannel(pairs)


class TestRotatedFamily:
    def test_reuses_the_checked_kraus_set(self, rng, monkeypatch):
        ks = random_cptp_kraus(rng, env=3)
        built = []
        monkeypatch.setattr(KrausSet, "__init__", lambda *args: built.append(args))
        ch = rotated_family(ks, X + 0.3 * Z)
        assert built == [] and ch.kraus_set() is ks and ch.k_ops is ks.ops
        assert np.array_equal(ch.dk_ops, -1j * (X + 0.3 * Z) @ ks.ops)
        with pytest.raises(ValueError):
            ch.dk_ops[0, 0, 0] = 1.0

    def test_matches_the_pair_constructor(self, rng):
        for env in (1, 2, 4):
            ks = random_cptp_kraus(rng, env=env)
            g = X - 0.7 * Y + 0.2 * Z
            ch, pairs = rotated_family(ks, g), OneParamChannel(zip(ks.ops, -1j * g @ ks.ops))
            assert np.array_equal(ch.k_ops, pairs.k_ops) and np.array_equal(ch.dk_ops, pairs.dk_ops)

    def test_derivative_checks_still_run(self):
        hadamard = KrausSet([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                rotated_family(hadamard, 1.7e308 * (X + Z))  # -i G K overflows
        with pytest.raises(ValidationError, match="first order"):
            OneParamChannel._of_kraus_set(KrausSet([I2]), np.array([0.1 * Z]))


# Oracle: the Kraus-span projection the shared least squares replaced.  The span
# is orthonormalized from the Hermitian and anti-Hermitian parts of all pairwise
# products in isometric real coordinates, and a residual is the norm left after
# subtracting each basis component.


def _herm_to_vec(op):
    d = op.shape[0]
    iu = np.triu_indices(d, 1)
    return np.concatenate(
        [np.real(np.diagonal(op)), np.sqrt(2.0) * np.real(op[iu]), np.sqrt(2.0) * np.imag(op[iu])]
    )


def kraus_span_oracle(ks):
    ops = ks.ops
    raw = []
    for i in range(len(ops)):
        for j in range(i, len(ops)):
            prod = ops[i].conj().T @ ops[j]
            raw.append((prod + prod.conj().T) / 2.0)
            raw.append(1j * (prod - prod.conj().T) / 2.0)
    vecs = np.array([_herm_to_vec(op) for op in raw])
    _, s, vt = np.linalg.svd(vecs, full_matrices=False)
    return vt[s > 1e-10 * max(s[0], 1e-300)]


def span_residual_oracle(basis, op):
    vec = _herm_to_vec(op)
    for bv in basis:
        vec = vec - (bv @ vec) * bv
    return float(np.linalg.norm(vec))


def span_fit(ks, op):
    """``(residual of op outside span{K_i^dag K_j}, h, rank)`` from the shared helper.

    The images are built by loops, independently of ``_span_lstsq``'s einsum.
    """
    ops = ks.ops
    images = np.array(
        [
            sum(b[i, j] * ops[i].conj().T @ ops[j] for i in range(len(ops)) for j in range(len(ops)))
            for b in _herm_basis(len(ops))
        ]
    )
    sq, h, rank = _herm_lstsq(images, -np.asarray(op, dtype=complex), 1e-10)
    return np.sqrt(sq), h, rank


class TestKrausSpan:
    def test_dephasing_span_is_identity_and_z(self):
        ks = dephasing_channel(x_rotation_dephasing(0.1)).kraus_set()
        assert span_fit(ks, I2)[2] == 2
        assert len(kraus_span_oracle(ks)) == 2
        assert span_fit(ks, I2)[0] < 1e-10
        assert span_fit(ks, Z)[0] < 1e-10
        assert span_fit(ks, X)[0] > 0.9

    def test_identity_channel(self):
        assert span_fit(KrausSet([I2]), I2)[2] == 1

    def test_amplitude_damping_full(self, rng):
        ks = damping_set(0.3)
        assert span_fit(ks, I2)[2] == 4
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
        ks = random_cptp_kraus(rng, env=2)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        once, coeffs, _ = span_fit(ks, h)
        # removing the span component again changes nothing
        proj = h - sum(coeffs[i, j] * ks.ops[i].conj().T @ ks.ops[j] for i in range(2) for j in range(2))
        assert np.isclose(span_fit(ks, proj)[0], once, atol=1e-12)

    def test_einsum_images_match_loops(self, rng):
        ks = random_cptp_kraus(rng, env=3)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        sq, coeffs, rank = _span_lstsq(np.array(ks.ops), -h, 1e-10)
        want, want_coeffs, want_rank = span_fit(ks, h)
        assert rank == want_rank == 4
        assert np.isclose(np.sqrt(sq), want, atol=1e-12)
        assert np.allclose(coeffs, want_coeffs, atol=1e-12)

    def test_hnks_matches_span_projection_oracle(self, rng):
        # mixed ensemble: Stinespring (contractive), dephasing and unitary families
        for trial in range(300):
            kind = trial % 3
            if kind == 0:
                ch = random_one_param_channel(rng)
            elif kind == 1:
                ch = dephasing_channel(random_dephasing_family(rng))
            else:
                g = rng.normal(size=3)
                ch = rotated_family(KrausSet([I2]), g[0] * X + g[1] * Y + g[2] * Z)
            res = hnks_check(ch)
            h_norm = np.linalg.norm(res.hamiltonian)
            want = span_residual_oracle(kraus_span_oracle(ch.kraus_set()), res.hamiltonian)
            assert res.holds == (h_norm > 1e-14 and want > 1e-7 * h_norm)
            assert abs(res.residual - want) <= 1e-12 * h_norm


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
