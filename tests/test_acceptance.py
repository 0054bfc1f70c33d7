"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and match the package contracts.
"""

import numpy as np
from scipy.optimize import minimize

from conftest import fd_bures_qfi, random_traceless_hermitian
from qmetro.bounds import ExtensionStep, bloch_inequality_check, contractive_bound, extension_bound, rgnks_violated_bound, unital_gauge
from qmetro.channel_model import (
    ChannelKind,
    DephasingFamily,
    canonical_pauli_form,
    classify,
    dephasing_channel,
    hnks_check,
    random_dephasing_family,
    random_one_param_channel,
    rotated_family,
    solve_h_annihilating,
    x_rotation_dephasing,
    depolarizing_kraus,
)
from qmetro.cli import cmd_figure2
from qmetro.fisher_info import (
    Povm,
    channel_qfi_ancilla,
    eta_bound,
    eta_estimate,
    povm_fi,
    qfi_bloch,
    qfi_state,
)
from qmetro.protocols import (
    ControlSequence,
    no_control_fixed_point,
    qec_analytic,
    qec_repetition_sim,
    repeated_measurement,
    simulate_sequence,
    sql_asymptotic,
    sql_protocol,
)
from qmetro.qubit_core import (
    I2,
    X,
    Z,
    BlochState,
    KrausSet,
    PauliTransferMap,
    bloch_to_density,
    ptm_from_kraus,
    random_cptp_kraus,
    random_unital_ptm,
)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _random_ball_state(rng):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return BlochState(direction * rng.uniform() ** (1 / 3), np.zeros(3))


def test_criterion_1_qec_heisenberg_limit():
    p = 0.1
    worst = 0.0
    for n in (1, 10, 50, 100):
        sim = qec_repetition_sim(p, n).qfi_or_fi
        want = qec_analytic(p, n)
        worst = max(worst, abs(sim - want) / want)
    _line(1, "QEC Heisenberg limit", worst <= 1e-6, f"max relative error {worst:.2e}")


def test_criterion_2_sql_slope():
    fam = x_rotation_dephasing(0.1)
    n = 100_000
    target = sql_asymptotic(fam, 0.01)  # 34.4043 from the closed form
    slope = sql_protocol(fam, n, 0.01).qfi_or_fi / n
    gap_at_w = abs(slope - target) / target

    ws = np.array([1e-2, 1e-3, 1e-4])
    slopes = np.array([sql_protocol(fam, n, w).qfi_or_fi / n for w in ws])
    # quadratic extrapolation of the simulated slopes to w = 0
    coeff = np.linalg.solve(np.vander(ws, 3, increasing=True), slopes)
    limit_gap = abs(coeff[0] - 36.0) / 36.0
    ok = gap_at_w <= 0.02 and limit_gap <= 0.01
    _line(
        2,
        "SQL protocol slope",
        ok,
        f"slope {slope:.4f} vs {target:.4f} (rel {gap_at_w:.2e}); w->0 limit {coeff[0]:.4f} (rel {limit_gap:.2e})",
    )


def test_criterion_3_repeated_measurement_optimum():
    fam = x_rotation_dephasing(0.1)
    per_step = {k: repeated_measurement(fam, k, k).qfi_or_fi / k for k in range(1, 21)}
    best = max(per_step, key=per_step.get)
    _line(3, "repeated-measurement optimum", best == 6, f"argmax interval = {best}")


def test_criterion_4_figure2_ordering(tmp_path):
    out = tmp_path / "figure2.csv"
    cmd_figure2(n_max=200, out_path=str(out))
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header = rows[0].split(",")
    data = {int(r.split(",")[0]): [float(x) for x in r.split(",")[1:]] for r in rows[1:]}
    idx = {name: i for i, name in enumerate(header[1:])}
    at200 = data[200]
    ordered = (
        at200[idx["qec_analytic"]]
        > at200[idx["sql_q0"]]
        > at200[idx["sql_q0.001"]]
        > at200[idx["sql_q0.02"]]
        > at200[idx["repeated_measurement"]]
        > at200[idx["no_control"]]
    )
    fixed_point = no_control_fixed_point(x_rotation_dephasing(0.1))
    nc_gap = abs(at200[idx["no_control"]] - fixed_point) / fixed_point
    spam_beats_repeated = at200[idx["sql_q0.02"]] > at200[idx["repeated_measurement"]]
    ok = ordered and nc_gap <= 0.05 and spam_beats_repeated
    _line(
        4,
        "figure-2 ordering at n=200",
        ok,
        f"row200 = {[f'{v:.4g}' for v in at200]}, no-control gap {nc_gap:.2e}",
    )


def test_criterion_5_extension_bound_validity():
    rng = np.random.default_rng(500)
    families = [random_dephasing_family(rng, p_range=(0.05, 0.5)) for _ in range(20)]
    violations = 0
    margin = np.inf
    for fam in families:
        gauge = unital_gauge(fam)
        for _ in range(25):  # 20 x 25 = 500 sequences
            n = int(rng.integers(1, 101))
            controls = [random_unital_ptm(rng) for _ in range(n)]
            total = extension_bound(fam, [ExtensionStep(c, gauge) for c in controls]).total
            seq = ControlSequence(controls, constant=False)
            best = max(
                simulate_sequence(fam, seq, _random_ball_state(rng), n).qfi_or_fi
                for _ in range(50)
            )
            margin = min(margin, total - best)
            if best > total + 1e-9:
                violations += 1
    # linear-growth shadow: total/n stable between n = 500 and n = 5000
    fam = x_rotation_dephasing(0.1)
    gauge = unital_gauge(fam)
    control = random_unital_ptm(rng)
    slopes = [
        extension_bound(fam, [ExtensionStep(control, gauge)] * n).total / n
        for n in (500, 5000)
    ]
    drift = abs(slopes[1] - slopes[0]) / abs(slopes[0])
    ok = violations == 0 and drift < 0.05
    _line(
        5,
        "extension-bound validity",
        ok,
        f"violations {violations}/500, min margin {margin:.3e}, slope drift {drift:.2e}",
    )


def _random_unital_control(rng):
    """Identity, pure rotation or a rotation mixture: all unital channels."""
    kind = rng.integers(3)
    if kind == 0:
        return PauliTransferMap.identity()
    if kind == 1:
        from qmetro.qubit_core import random_rotation

        return PauliTransferMap(np.zeros(3), random_rotation(rng), validated=True)
    return random_unital_ptm(rng)


def test_criterion_6_rgnks_violated_ceiling():
    rng = np.random.default_rng(600)
    violations = 0
    runs = 0
    ratio = 0.0
    for p in (0.1, 0.25):
        for pdot in (0.0, 1.0):
            fam = DephasingFamily(p, pdot, Z, Z.copy())
            qfi_cap = rgnks_violated_bound(fam)
            dv_cap = qfi_cap / 4.0  # constant of the derivative proposition
            for _ in range(250):
                runs += 1
                n = int(rng.integers(1, 101))
                controls = [_random_unital_control(rng) for _ in range(n)]
                seq = ControlSequence(controls, constant=False)
                res = simulate_sequence(fam, seq, _random_ball_state(rng), n)
                dv2 = float(res.terminal.dv @ res.terminal.dv)
                ratio = max(ratio, res.qfi_or_fi / qfi_cap, dv2 / dv_cap)
                if res.qfi_or_fi > qfi_cap + 1e-9 or dv2 > dv_cap + 1e-9:
                    violations += 1
    _line(
        6,
        "RGNKS-violated ceiling",
        violations == 0,
        f"violations {violations}/{runs}, tightest ratio reached {ratio:.3f}",
    )


def test_criterion_7_contraction_ceiling():
    rng = np.random.default_rng(700)
    ch = rotated_family(depolarizing_kraus(0.5), X)
    ceiling = contractive_bound(ch)
    violations = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        # a mixture of identity, unitary and generic CPTP controls stresses the
        # ceiling far harder than generic (strongly decohering) controls alone
        controls = []
        for _ in range(n):
            kind = rng.integers(3)
            if kind == 0:
                controls.append(PauliTransferMap.identity())
            elif kind == 1:
                controls.append(_random_unital_control(rng))
            else:
                controls.append(ptm_from_kraus(random_cptp_kraus(rng)))
        seq = ControlSequence(controls, constant=False)
        res = simulate_sequence(ch, seq, _random_ball_state(rng), n)
        worst = max(worst, res.qfi_or_fi)
        if res.qfi_or_fi > ceiling + 1e-9:
            violations += 1
    eta_violations = 0
    for trial in range(10_000):
        ptm = ptm_from_kraus(random_cptp_kraus(rng))
        if eta_estimate(ptm, 10, seed=trial) > eta_bound(ptm) + 1e-9:
            eta_violations += 1
    ok = violations == 0 and eta_violations == 0
    _line(
        7,
        "contraction ceiling",
        ok,
        f"ceiling {ceiling:.4f}, best simulated {worst:.4f}, eta violations {eta_violations}/10000",
    )


def _grid_plus_fd_oracle(ch, rng):
    """Independent evaluation of the ancilla channel QFI.

    Dense grid over the 4 real gauge parameters of a rank-2 channel followed
    by Nelder-Mead polish of the raw largest-eigenvalue objective, plus a
    finite-difference Bures lower bound at the maximally entangled input.
    """
    k_ops, dk_ops = ch.k_ops, ch.dk_ops

    def value(x):
        h = np.array([[x[0], x[2] + 1j * x[3]], [x[2] - 1j * x[3], x[1]]])
        b = dk_ops - 1j * np.einsum("ji,iab->jab", h, k_ops)
        w = np.einsum("jab,jac->bc", b.conj(), b)
        return float(np.linalg.eigvalsh(w)[-1])

    scale = np.sqrt(value(np.zeros(4))) + 1e-12
    axis = np.linspace(-2 * scale, 2 * scale, 9)
    best_x, best_v = np.zeros(4), np.inf
    for a in axis:
        for b_ in axis:
            for c in axis:
                for d in axis:
                    x = np.array([a, b_, c, d])
                    v = value(x)
                    if v < best_v:
                        best_v, best_x = v, x
    polish = minimize(value, best_x, method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    grid_value = 4.0 * min(best_v, polish.fun)

    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0 / np.sqrt(2.0)
    rho_in = np.outer(omega, omega.conj())

    def state_at(theta):
        kt = k_ops + theta * dk_ops
        rho = sum(np.kron(k, I2) @ rho_in @ np.kron(k, I2).conj().T for k in kt)
        return rho / np.trace(rho).real

    fd_low = fd_bures_qfi(state_at, dtheta=1e-3)
    return grid_value, fd_low


def test_criterion_8_qfi_oracle_triangle():
    rng = np.random.default_rng(800)
    worst_pair = 0.0
    povm_ok = True
    for _ in range(10_000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = direction * 0.99 * rng.uniform() ** (1 / 3)
        dv = rng.normal(size=3)
        dv /= np.linalg.norm(dv)
        b = BlochState(v, dv)
        s = bloch_to_density(b)
        f_bloch = qfi_bloch(b)
        f_state = qfi_state(s)
        f_fd = fd_bures_qfi(lambda th: s.rho + th * s.drho)
        scale = max(f_state, 1e-12)
        worst_pair = max(
            worst_pair,
            abs(f_bloch - f_state) / scale,
            abs(f_fd - f_state) / scale,
        )
        u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(u)
        proj = np.outer(q[:, 0], q[:, 0].conj())
        if povm_fi(s, Povm([proj, I2 - proj])) > f_state + 1e-9:
            povm_ok = False

    worst_channel = 0.0
    fd_ok = True
    for trial in range(20):
        ch = random_one_param_channel(rng, env=2)
        value = channel_qfi_ancilla(ch).value
        grid_value, fd_low = _grid_plus_fd_oracle(ch, rng)
        worst_channel = max(worst_channel, abs(value - grid_value) / max(grid_value, 1e-12))
        if fd_low > value * (1 + 1e-3) + 1e-9:
            fd_ok = False
    ok = worst_pair <= 1e-5 and povm_ok and worst_channel <= 1e-4 and fd_ok
    _line(
        8,
        "QFI oracle triangle",
        ok,
        f"state-triangle worst {worst_pair:.2e}; channel-oracle worst {worst_channel:.2e}",
    )


def test_criterion_9_structural_theorems():
    rng = np.random.default_rng(900)
    dichotomy_ok = True
    solve_ok = True
    bloch_ok = True
    solved = 0
    for trial in range(1000):
        kind = trial % 3
        if kind == 0:
            ch = random_one_param_channel(rng)
        elif kind == 1:
            ch = dephasing_channel(random_dephasing_family(rng))
        else:
            g = rng.normal(size=3)
            ch = rotated_family(KrausSet([I2]), g[0] * X + g[1] * (1j * (X @ Z)) + g[2] * Z)
        ks = ch.kraus_set()
        if hnks_check(ch).holds:
            tag = classify(ptm_from_kraus(ks)).tag
            if tag not in (ChannelKind.UNITARY, ChannelKind.DEPHASING_CLASS):
                dichotomy_ok = False
        if not bloch_inequality_check(ptm_from_kraus(ks)).holds:
            bloch_ok = False
        form = canonical_pauli_form(ks)
        if form.unitality_witness > 1e-6:
            h = random_traceless_hermitian(rng) + rng.normal() * I2
            sol = solve_h_annihilating(ks, h)
            solved += 1
            if sol.residual > 1e-9 * (np.linalg.norm(h, 2) + 1):
                solve_ok = False
    ok = dichotomy_ok and solve_ok and bloch_ok
    _line(
        9,
        "structural theorems",
        ok,
        f"dichotomy {dichotomy_ok}, h-solver ok on {solved} non-unital, Bloch inequality {bloch_ok}",
    )
