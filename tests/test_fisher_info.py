import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import (
    fd_bures_qfi,
    random_full_rank_state,
    random_traceless_hermitian,
)
from qmetro.channel_model import (
    DephasingFamily,
    OneParamChannel,
    dephasing_channel,
    depolarizing_kraus,
    random_dephasing_family,
    random_one_param_channel,
    rotated_family,
    x_rotation_dephasing,
)
from qmetro.fisher_info import (
    Povm,
    RankDeficiencyWarning,
    _alpha,
    _herm_basis,
    _inner_min,
    bures_distance,
    channel_qfi_ancilla,
    channel_qfi_no_ancilla,
    classical_fi,
    eta_bound,
    eta_estimate,
    povm_fi,
    qfi_bloch,
    qfi_state,
    sld,
)
from qmetro.qubit_core import (
    I2,
    X,
    Y,
    Z,
    BlochState,
    DensityState,
    DomainError,
    KrausSet,
    ValidationError,
    apply_kraus,
    bloch_to_density,
    ptm_from_kraus,
    random_cptp_kraus,
)


def damping_set(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausSet([k0, k1])


def compose(first, second):
    return OneParamChannel(
        [
            (k2 @ k1, dk2 @ k1 + k2 @ dk1)
            for k1, dk1 in zip(first.k_ops, first.dk_ops)
            for k2, dk2 in zip(second.k_ops, second.dk_ops)
        ]
    )


def random_input_factor(rng, dim, cols):
    s = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    return s / np.linalg.norm(s)


def sphere_grid_oracle(ch):
    """The former ancilla-free solver: the least-squares inner minimum at pure inputs.

    The outer supremum runs over a 400-point Fibonacci grid of (theta, phi)
    angles, followed by Nelder-Mead from the best 3 grid points.
    """
    k_ops, dk_ops = ch.k_ops, ch.dk_ops

    def neg_obj(angles):
        th, ph = angles
        psi = np.array([[np.cos(th / 2.0)], [np.exp(1j * ph) * np.sin(th / 2.0)]])
        return -_inner_min(k_ops, dk_ops, psi)[0]

    idx = np.arange(400) + 0.5
    pts = np.column_stack(
        [np.arccos(1.0 - 2.0 * idx / 400), (np.pi * (1.0 + np.sqrt(5.0)) * idx) % (2.0 * np.pi)]
    )
    vals = np.array([-neg_obj(p) for p in pts])
    best = vals.max()
    for start in np.argsort(vals)[::-1][:3]:
        res = minimize(
            neg_obj,
            pts[start],
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
        )
        best = max(best, -res.fun)
    return 4.0 * float(best)


def oracle_panel():
    """README family, Stinespring env 1/2/4/8, dephasing families, rotated damping, unitary."""
    rng = np.random.default_rng(20240811)
    panel = {"readme": dephasing_channel(x_rotation_dephasing(0.1))}
    panel.update({f"env{e}": random_one_param_channel(rng, env=e) for e in (1, 2, 4, 8)})
    panel.update({f"dephasing{i}": dephasing_channel(random_dephasing_family(rng)) for i in range(5)})
    generators = {"X": X, "Y": Y, "Z": Z, "XZ": (X + Z) / np.sqrt(2.0)}
    for gamma in (0.1, 0.5):
        for name, g in generators.items():
            panel[f"damping{gamma}_{name}"] = rotated_family(damping_set(gamma), g)
    panel["unitary_z"] = OneParamChannel([(I2, -1j * Z)])
    return panel


def random_state_family(rng, dim=2):
    rho = random_full_rank_state(rng, dim)
    drho = random_traceless_hermitian(rng, dim)
    return DensityState(rho, drho)


class TestQfiState:
    def test_parameter_independent(self):
        assert qfi_state(DensityState(I2 / 2, np.zeros((2, 2)))) == 0.0

    def test_pure_plus_under_z_rotation(self):
        rho = (I2 + X) / 2
        drho = -1j * (Z / 2 @ rho - rho @ Z / 2)
        assert np.isclose(qfi_state(DensityState(rho, drho)), 1.0)

    def test_matches_bloch_closed_form(self):
        b = BlochState([0, 0, 0.6], [0, 0, 0.3])
        assert np.isclose(qfi_state(bloch_to_density(b)), 0.140625)
        assert np.isclose(qfi_bloch(b), 0.09 + 0.0324 / 0.64)

    def test_kernel_weight_warns(self):
        from qmetro.fisher_info import RankDeficiencyWarning

        # drho places weight on the kernel-kernel eigenvalue pair of a pure rho
        s = DensityState(np.diag([1.0, 0.0]), np.diag([-0.2, 0.2]))
        with pytest.warns(RankDeficiencyWarning):
            qfi_state(s)
        with pytest.warns(RankDeficiencyWarning):
            sld(s)


class TestQfiBloch:
    def test_no_drive(self):
        assert qfi_bloch(BlochState([0, 0, 0.5], [0, 0, 0])) == 0.0

    def test_pure_tangent(self):
        assert np.isclose(qfi_bloch(BlochState([1, 0, 0], [0, 1, 0])), 1.0)

    def test_pure_radial_rejected(self):
        with pytest.raises(DomainError):
            qfi_bloch((np.array([1.0, 0, 0]), np.array([1.0, 0, 0])))

    def test_equals_qfi_state(self, rng):
        for _ in range(10_000):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            v = direction * 0.99 * rng.uniform() ** (1 / 3)
            dv = rng.normal(size=3)
            dv /= np.linalg.norm(dv)
            b = BlochState(v, dv)
            a, s = qfi_bloch(b), qfi_state(bloch_to_density(b))
            assert abs(a - s) <= 1e-9 * max(a, s)


class TestSld:
    def test_zero_derivative(self):
        assert np.allclose(sld(DensityState(I2 / 2, np.zeros((2, 2)))), 0)

    def test_maximally_mixed(self):
        assert np.allclose(sld(DensityState(I2 / 2, X / 4)), X / 2)

    def test_defining_equation_and_variance(self, rng):
        for _ in range(100):
            s = random_state_family(rng)
            l_op = sld(s)
            sylvester = (l_op @ s.rho + s.rho @ l_op) / 2
            assert np.linalg.norm(sylvester - s.drho) < 1e-9
            assert np.isclose(np.trace(s.rho @ l_op @ l_op).real, qfi_state(s), rtol=1e-9)


class TestClassicalFi:
    def test_binary(self):
        assert np.isclose(classical_fi([0.5, 0.5], [0.1, -0.1]), 0.04)

    def test_zero_derivative(self):
        assert classical_fi([0.3, 0.7], [0, 0]) == 0.0

    def test_zero_probability_excluded(self):
        from qmetro.fisher_info import RankDeficiencyWarning

        a = 0.3
        with pytest.warns(RankDeficiencyWarning):
            assert np.isclose(classical_fi([1.0, 0.0], [-a, a]), a * a)


class TestPovmFi:
    def test_sld_eigenbasis_is_optimal(self, rng):
        for _ in range(50):
            s = random_state_family(rng)
            _, vecs = np.linalg.eigh(sld(s))
            povm = Povm([np.outer(v, v.conj()) for v in vecs.T])
            assert np.isclose(povm_fi(s, povm), qfi_state(s), rtol=1e-9, atol=1e-12)

    def test_trivial_povm(self, rng):
        s = random_state_family(rng)
        assert np.isclose(povm_fi(s, Povm([I2 / 2, I2 / 2])), 0.0, atol=1e-20)

    def test_spam_povm_at_half(self, rng):
        from qmetro.protocols import spam_povm

        s = random_state_family(rng)
        assert np.isclose(povm_fi(s, spam_povm(0.5)), 0.0, atol=1e-20)

    def test_never_exceeds_qfi(self, rng):
        for _ in range(10_000):
            s = random_state_family(rng)
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(u)
            w = rng.uniform(0.2, 0.8)
            povm = Povm(
                [
                    w * np.outer(q[:, 0], q[:, 0].conj()),
                    I2 - w * np.outer(q[:, 0], q[:, 0].conj()),
                ]
            )
            assert povm_fi(s, povm) <= qfi_state(s) + 1e-9


class TestBures:
    def test_same_state(self, rng):
        # sqrt at the zero of the distance amplifies machine eps to ~1e-8
        rho = random_full_rank_state(rng)
        assert bures_distance(rho, rho) < 1e-7

    def test_orthogonal_pure(self):
        assert np.isclose(
            bures_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.sqrt(2)
        )

    def test_symmetry(self, rng):
        a, b = random_full_rank_state(rng), random_full_rank_state(rng)
        assert abs(bures_distance(a, b) - bures_distance(b, a)) < 1e-10

    def test_finite_difference_matches_qfi(self, rng):
        for _ in range(200):
            s = random_state_family(rng)
            fd = fd_bures_qfi(lambda th: s.rho + th * s.drho)
            assert np.isclose(fd, qfi_state(s), rtol=1e-5)

    def test_finite_difference_two_qubit(self, rng):
        for _ in range(1000):
            s = random_state_family(rng, dim=4)
            fd = fd_bures_qfi(lambda th: s.rho + th * s.drho)
            assert np.isclose(fd, qfi_state(s), rtol=1e-5)


class TestChannelQfiAncilla:
    def test_unitary_family(self):
        res = channel_qfi_ancilla(OneParamChannel([(I2, -1j * Z)]))
        assert np.isclose(res.value, 4.0, rtol=1e-9)
        assert np.allclose(res.h_opt.h, 0, atol=1e-4)

    def test_parameter_independent(self):
        ch = dephasing_channel(DephasingFamily(0.2, 0.0, np.zeros((2, 2)), np.zeros((2, 2))))
        assert channel_qfi_ancilla(ch).value < 1e-12

    def test_example_family(self):
        res = channel_qfi_ancilla(dephasing_channel(x_rotation_dephasing(0.1)))
        assert np.isclose(res.value, 4.0, rtol=1e-7)

    def test_dominates_no_ancilla(self, rng):
        for _ in range(5):
            ch = random_one_param_channel(rng, env=2)
            with_ancilla = channel_qfi_ancilla(ch).value
            without = channel_qfi_no_ancilla(ch)
            assert without <= with_ancilla + 1e-7

    def test_objective_convex_along_segments(self, rng):
        ch = random_one_param_channel(rng, env=2)
        k_ops, dk_ops = ch.k_ops, ch.dk_ops
        basis = _herm_basis(len(k_ops))

        def value(x):
            return np.linalg.eigvalsh(_alpha(k_ops, dk_ops, np.tensordot(x, basis, 1)))[-1]

        for _ in range(1000):
            x1 = rng.normal(size=len(basis))
            x2 = rng.normal(size=len(basis))
            mid = value((x1 + x2) / 2)
            chord = (value(x1) + value(x2)) / 2
            assert mid <= chord + 1e-9

    def test_inner_min_concave_along_segments(self, rng):
        ch = random_one_param_channel(rng, env=2)
        k_ops, dk_ops = ch.k_ops, ch.dk_ops

        def value(s):
            return _inner_min(k_ops, dk_ops, s)[0]

        for _ in range(1000):
            s1, s2 = (
                random_input_factor(rng, 2, rng.integers(1, 3)) for _ in range(2)
            )
            # the stacked factor's s s^dag is the sum of the two inputs
            mid = value(np.hstack([s1, s2]) / np.sqrt(2))
            chord = (value(s1) + value(s2)) / 2
            assert mid >= chord - 1e-9

    def test_lower_bound_is_purified_output_qfi(self, rng):
        # independent oracle: the output QFI of (E x id) on a purification of
        # rho_opt is the certified lower bound value - gap
        channels = [random_one_param_channel(rng, env=2) for _ in range(5)]
        channels += [random_one_param_channel(rng, env=4) for _ in range(3)]
        channels += [
            compose(random_one_param_channel(rng, env=2), random_one_param_channel(rng, env=2))
            for _ in range(3)
        ]
        for ch in channels:
            res = channel_qfi_ancilla(ch)
            lam, vecs = np.linalg.eigh(res.rho_opt)
            psi = (vecs * np.sqrt(np.clip(lam, 0.0, None))).reshape(-1)
            proj = np.outer(psi, psi.conj())
            ks = [np.kron(k, I2) for k in ch.k_ops]
            dks = [np.kron(dk, I2) for dk in ch.dk_ops]
            rho = apply_kraus(ks, proj)
            drho = sum(dk @ proj @ k.conj().T + k @ proj @ dk.conj().T for k, dk in zip(ks, dks))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RankDeficiencyWarning)
                f_out = qfi_state(DensityState(rho, drho))
            assert res.gap <= 1e-8 * res.value
            assert abs(f_out - (res.value - res.gap)) <= 1e-8 * res.value

    def test_idle_qubit_leaves_value(self, rng):
        for _ in range(3):
            ch = random_one_param_channel(rng, env=2)
            wide = OneParamChannel(zip(np.kron(ch.k_ops, I2), np.kron(ch.dk_ops, I2)))
            narrow, extended = channel_qfi_ancilla(ch), channel_qfi_ancilla(wide)
            # both certified intervals [value - gap, value] hold the same QFI;
            # 1e-12 relative covers roundoff when both gaps are near zero
            slack = max(narrow.gap, extended.gap) + 1e-12 * narrow.value
            assert abs(narrow.value - extended.value) <= slack


class TestChannelQfiNoAncilla:
    def test_unitary(self):
        assert np.isclose(channel_qfi_no_ancilla(OneParamChannel([(I2, -1j * Z)])), 4.0, rtol=1e-7)

    def test_parameter_independent(self):
        ch = dephasing_channel(DephasingFamily(0.2, 0.0, np.zeros((2, 2)), np.zeros((2, 2))))
        assert channel_qfi_no_ancilla(ch) < 1e-12

    def test_never_exceeds_certified_ancilla_value(self):
        # the optimal pure input of this family sits where the least-squares
        # design loses rank; the oracle's residual must stay accurate there
        ch = dephasing_channel(x_rotation_dephasing(0.1))
        assert channel_qfi_no_ancilla(ch) <= channel_qfi_ancilla(ch).value * (1 + 1e-12)

    @pytest.mark.parametrize("name", list(oracle_panel()))
    def test_matches_least_squares_oracle(self, name):
        ch = oracle_panel()[name]
        value, oracle = channel_qfi_no_ancilla(ch), sphere_grid_oracle(ch)
        assert isinstance(value, float)
        assert value >= oracle * (1 - 1e-9)
        assert value <= oracle * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["damping0.1_X", "damping0.5_X", "unitary_z"])
    def test_pure_output_maximum_is_exact(self, name):
        # the maximum sits at an input whose output is pure (every input, for
        # the unitary), where 1 - |w|^2 = 0: nothing may divide by it
        with np.errstate(all="raise"):
            assert abs(channel_qfi_no_ancilla(oracle_panel()[name]) - 4.0) <= 4e-12

    def test_rejects_non_qubit(self, rng):
        with pytest.raises(ValidationError):
            channel_qfi_no_ancilla(random_one_param_channel(rng, dim=4, env=2))

    def test_matches_sphere_grid_oracle(self, rng):
        fam = DephasingFamily(0.1, 0.0, Z, Z.copy())
        ch = dephasing_channel(fam)
        value = channel_qfi_no_ancilla(ch)
        # dense-grid oracle: maximize the output-state QFI directly
        k_ops, dk_ops = ch.k_ops, ch.dk_ops
        best = 0.0
        n_grid = 10_000
        idx = np.arange(n_grid) + 0.5
        thetas = np.arccos(1 - 2 * idx / n_grid)
        phis = (np.pi * (1 + np.sqrt(5)) * idx) % (2 * np.pi)
        for th, ph in zip(thetas, phis):
            psi = np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])
            proj = np.outer(psi, psi.conj())
            rho = apply_kraus(k_ops, proj)
            drho = sum(
                dk @ proj @ k.conj().T + k @ proj @ dk.conj().T
                for k, dk in zip(k_ops, dk_ops)
            )
            best = max(best, qfi_state(DensityState(rho, drho)))
        assert value >= best - 1e-9
        assert np.isclose(value, best, rtol=1e-4)


class TestChannelQfiOverflow:
    # Tr(G0 X) = 2e155: the QFI is of order 1e310 and does not fit in a double
    FAM = DephasingFamily(0.3, 0.0, 1e155 * X, np.zeros((2, 2)))

    @pytest.mark.parametrize("solver", [channel_qfi_no_ancilla, channel_qfi_ancilla])
    def test_overflow_is_domain_error(self, solver, capfd):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="overflow"):
                solver(dephasing_channel(self.FAM))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err  # no LAPACK complaint either


class TestQfiProperties:
    def test_data_processing(self, rng):
        for _ in range(200):
            s = random_state_family(rng)
            ks = random_cptp_kraus(rng)
            out = DensityState(
                apply_kraus(ks.ops, s.rho), apply_kraus(ks.ops, s.drho)
            )
            assert qfi_state(out) <= qfi_state(s) + 1e-9

    def test_additivity(self, rng):
        for _ in range(100):
            a, b = random_state_family(rng), random_state_family(rng)
            joint = DensityState(
                np.kron(a.rho, b.rho),
                np.kron(a.drho, b.rho) + np.kron(a.rho, b.drho),
            )
            assert np.isclose(qfi_state(joint), qfi_state(a) + qfi_state(b), rtol=1e-9)

    def test_convexity(self, rng):
        for _ in range(200):
            parts = [random_state_family(rng) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            mix = DensityState(
                sum(w * s.rho for w, s in zip(weights, parts)),
                sum(w * s.drho for w, s in zip(weights, parts)),
            )
            bound = sum(w * qfi_state(s) for w, s in zip(weights, parts))
            assert qfi_state(mix) <= bound + 1e-9

    def test_chain_rule_of_root_qfi(self, rng):
        for _ in range(10):
            first = random_one_param_channel(rng, env=2)
            second = random_one_param_channel(rng, env=2)
            composed = compose(first, second)
            f_comp = channel_qfi_ancilla(composed).value
            f_first = channel_qfi_ancilla(first).value
            f_second = channel_qfi_ancilla(second).value
            assert np.sqrt(f_comp) <= np.sqrt(f_first) + np.sqrt(f_second) + 1e-6


class TestEta:
    def test_depolarizing(self):
        lam = 0.37
        assert np.isclose(eta_bound(ptm_from_kraus(depolarizing_kraus(lam))), lam)

    def test_amplitude_damping(self):
        gamma = 0.4
        assert np.isclose(eta_bound(ptm_from_kraus(damping_set(gamma))), np.sqrt(1 - gamma))

    def test_unitary(self):
        assert np.isclose(eta_bound(ptm_from_kraus(KrausSet([I2]))), 1.0)

    def test_identity_estimate_reaches_one(self):
        ptm = ptm_from_kraus(KrausSet([I2]))
        assert np.isclose(eta_estimate(ptm, 50, seed=3), 1.0)

    def test_estimate_below_bound(self, rng):
        for _ in range(200):
            ptm = ptm_from_kraus(random_cptp_kraus(rng))
            assert eta_estimate(ptm, 20, seed=7) <= eta_bound(ptm) + 1e-9

    def test_damping_estimate_below_root(self):
        ptm = ptm_from_kraus(damping_set(0.5))
        assert eta_estimate(ptm, 2000, seed=11) <= np.sqrt(0.5) + 1e-9

    def test_depolarizing_estimate(self):
        # the QFI ratio of the depolarizing channel is exactly lam^2 for every
        # state family, strictly below the trace-norm coefficient lam
        lam = 0.5
        ptm = ptm_from_kraus(depolarizing_kraus(lam))
        est = eta_estimate(ptm, 2000, seed=13)
        assert est <= lam + 1e-9
        assert np.isclose(est, lam**2, atol=1e-9)
