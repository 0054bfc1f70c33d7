"""The four benchmark workloads: inputs, tasks and correctness gates.

Every input (rotation, Kraus set, family, start state, config text) is drawn
from the run seed with plain numpy, never with ``qmetro.random_*``, so the
parent commit and a change receive bit-identical inputs; :attr:`Workload.digest`
fingerprints them.  The program's own types (``OneParamChannel``,
``DephasingFamily``, ``PauliTransferMap``, ``ExtensionStep``,
``ControlSequence``, ``BlochState``) are constructed inside the timed task,
because their validation is program work.

Tasks reach library functions through module attributes at call time
(``qm.fisher_info.channel_qfi_ancilla``), never through names bound at
import, so the tracer's wrappers see every call.  A task's ``run`` is the
timed part; its ``check`` runs untimed and returns ``None`` or a message.
Reference values are the closed forms of the library and the paper,
computed during set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGMA = np.array([_X, _Y, _Z])


class Raised(Exception):
    """An operation of the program failed (raised or exited non-zero)."""


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    out_path: str | None = None  # CSV a CLI task writes; its data rows are counted


@dataclass
class Workload:
    tasks: list
    digest: str


class _Inputs:
    """Seeded plain-numpy generator that fingerprints everything it hands out."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._hash = hashlib.sha256()

    def record(self, obj):
        if isinstance(obj, str):
            self._hash.update(obj.encode())
        else:
            arr = np.ascontiguousarray(obj)
            self._hash.update(f"{arr.dtype}{arr.shape}".encode())
            self._hash.update(arr.tobytes())
        return obj

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def uniform(self, lo, hi):
        return float(self.record(np.float64(self.rng.uniform(lo, hi))))

    def normal(self, size):
        return self.record(self.rng.normal(size=size))

    def unitary(self):
        """Haar-random 2x2 unitary (QR of a complex Ginibre matrix, phases fixed)."""
        a = self.rng.normal(size=(2, 2)) + 1j * self.rng.normal(size=(2, 2))
        q, r = np.linalg.qr(a)
        return self.record(q * (np.diag(r) / np.abs(np.diag(r))))

    def rotation(self):
        """Haar-random SO(3) matrix from a uniform unit quaternion."""
        w, x, y, z = self.rng.normal(size=4)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        return self.record(rot)

    def ball_point(self):
        direction = self.rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        return self.record(direction * self.rng.uniform() ** (1.0 / 3.0))

    def traceless_hermitian(self):
        g = self.rng.normal(size=(2, 2)) + 1j * self.rng.normal(size=(2, 2))
        h = (g + g.conj().T) / 2.0
        h -= np.trace(h).real / 2.0 * _I2
        return self.record(h / np.linalg.norm(h))

    def stinespring_pairs(self, env: int):
        """Kraus pairs (K_e, dK_e) of a rotating Stinespring isometry on ``env`` levels."""
        a = self.rng.normal(size=(2 * env, 2)) + 1j * self.rng.normal(size=(2 * env, 2))
        iso, _ = np.linalg.qr(a)
        h = self.rng.normal(size=(2 * env,) * 2) + 1j * self.rng.normal(size=(2 * env,) * 2)
        h = (h + h.conj().T) / 2.0
        blocks = iso.reshape(2, env, 2)
        dblocks = (-1j * (h @ iso)).reshape(2, env, 2)
        return [(self.record(blocks[:, e, :]), self.record(dblocks[:, e, :])) for e in range(env)]

    def family(self, p_range):
        """Dephasing-family data ``(p, pdot, g0, g1)`` with Pauli coefficient triples."""
        p = self.uniform(*p_range)
        pdot = float(self.normal(()))
        coeffs = self.normal((2, 3))
        return p, pdot, coeffs[0], coeffs[1]


def _pauli(c) -> np.ndarray:
    return np.einsum("i,ijk->jk", np.asarray(c, dtype=complex), _SIGMA)


def _triple(c) -> str:
    return " ".join(format(float(x), ".17g") for x in c)


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_csv(path: str):
    """Header and numeric rows of a CLI CSV (comment lines dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def data_rows(path: str) -> int:
    """Number of CSV data rows (lines that are neither comments nor the header)."""
    return len(_read_csv(path)[1])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _cli_task(qm, label, argv, out_path, check) -> Task:
    def run():
        code = qm.cli.main(argv)
        if code != 0:
            raise Raised(f"exit code {code}")
        return code

    return Task(label, run, lambda _: check(), out_path)


# ---------------------------------------------------------------------------
# scan: figure2 plus one n-sweep per protocol kind (constant controls)
# ---------------------------------------------------------------------------

SCAN_N = 200  # sweep n = 1..SCAN_N and figure2 --n-max SCAN_N
SCAN_KINDS = ("sql", "spam", "repeated", "qec", "no_control")


def _scan(seed, workdir, qm) -> Workload:
    gen = _Inputs(seed)
    p = gen.uniform(0.05, 0.3)
    w = gen.uniform(0.005, 0.03)
    q = gen.uniform(0.0, 0.02)
    interval = int(gen.record(np.int64(gen.rng.integers(3, 10))))
    fam = qm.channel_model.x_rotation_dephasing(p)
    fig_fam = qm.channel_model.x_rotation_dephasing(0.1)
    ref = {
        "sql_slope": qm.protocols.sql_asymptotic(fam, w),
        "fixed_point": qm.protocols.no_control_fixed_point(fam),
        "fig_fixed_point": qm.protocols.no_control_fixed_point(fig_fam),
    }
    tasks = []

    fig_out = os.path.join(workdir, "figure2.csv")

    def check_figure2():
        header, rows = _read_csv(fig_out)
        if len(rows) != SCAN_N:
            return f"figure2: {len(rows)} rows, want {SCAN_N}"
        col = {name: i for i, name in enumerate(header)}
        vals = np.array([[float(x) for x in r] for r in rows])
        if not np.all(np.isfinite(vals)):
            return "figure2: non-finite value"
        ns = vals[:, 0]
        qec_want = 4.0 * (1.0 - 2.0 * 0.1) ** 2 * ns * ns
        if np.max(np.abs(vals[:, col["qec_analytic"]] - qec_want) / qec_want) > 1e-12:
            return "figure2: qec_analytic column differs from 4(1-2p)^2 n^2"
        last = vals[-1]
        chain = ["qec_analytic", "sql_q0", "sql_q0.001", "sql_q0.02", "repeated_measurement", "no_control"]
        if not all(last[col[a]] > last[col[b]] for a, b in zip(chain, chain[1:])):
            return f"figure2: criterion-4 ordering broken at n={SCAN_N}: {last.tolist()}"
        if _rel(last[col["no_control"]], ref["fig_fixed_point"]) > 0.05:
            return "figure2: no_control more than 5% from no_control_fixed_point"
        return None

    tasks.append(
        _cli_task(qm, "figure2", ["figure2", "--n-max", str(SCAN_N), "--out", fig_out], fig_out, check_figure2)
    )

    for kind in SCAN_KINDS:
        cfg = os.path.join(workdir, f"sweep_{kind}.conf")
        out = os.path.join(workdir, f"sweep_{kind}.csv")
        _write(
            cfg,
            gen.record(
                f"family.p = {p!r}\nfamily.pdot = 0\nfamily.g0 = 1 0 0\nfamily.g1 = -1 0 0\n"
                f"protocol.kind = {kind}\nprotocol.w = {w!r}\nprotocol.q = {q!r}\n"
                f"protocol.interval = {interval}\nn = 1..{SCAN_N}\n"
            ),
        )

        def check_sweep(kind=kind, out=out):
            _, rows = _read_csv(out)
            if [int(r[1]) for r in rows] != list(range(1, SCAN_N + 1)):
                return f"sweep {kind}: n column is not 1..{SCAN_N}"
            v = np.array([float(r[-1]) for r in rows])
            if not np.all(np.isfinite(v)) or v.min() < 0.0:
                return f"sweep {kind}: non-finite or negative value"
            ns = np.arange(1, SCAN_N + 1, dtype=float)
            half = SCAN_N // 2
            slope = (v[-1] - v[half - 1]) / (SCAN_N - half)
            if kind == "qec":
                want = 4.0 * (1.0 - 2.0 * p) ** 2 * ns * ns
                if np.max(np.abs(v - want) / want) > 1e-6:
                    return "sweep qec: differs from 4(1-2p)^2 n^2 beyond 1e-6"
            elif kind == "sql":
                if _rel(slope, ref["sql_slope"]) > 0.02:
                    return f"sweep sql: slope {slope:.6g} vs sql_asymptotic {ref['sql_slope']:.6g}"
            elif kind == "spam":
                if not 0.0 < slope <= ref["sql_slope"] * 1.02:
                    return f"sweep spam: slope {slope:.6g} above the noiseless {ref['sql_slope']:.6g}"
            elif kind == "repeated":
                want = np.floor(ns / interval) * v[interval - 1]
                if np.max(np.abs(v - want)) > 1e-9 * max(v.max(), 1.0):
                    return "sweep repeated: not (n // interval) times the per-interval QFI"
            elif kind == "no_control":
                if _rel(v[-1], ref["fixed_point"]) > 0.05:
                    return "sweep no_control: more than 5% from no_control_fixed_point"
            return None

        tasks.append(
            _cli_task(qm, f"sweep_{kind}", ["--config", cfg, "--out", out, "sweep"], out, check_sweep)
        )
    return Workload(tasks, gen.digest)


# ---------------------------------------------------------------------------
# channel_qfi: the `qmetro qfi` triple over a panel
# ---------------------------------------------------------------------------

# The random rank-2 and rank-4 channels are drawn once from these fixed seeds;
# the run seed draws a Haar input and output unitary for each (the exact QFI is
# invariant under both).  Solver time varies by about 27% between freshly drawn
# channels, so redrawing the panel per seed would make wall_s depend on the seed
# far beyond any usable bound with the three questions that fit in one run.
PANEL_SEEDS = {2: 0, 4: 0}
README_CONF = "family.p = 0.1\nfamily.pdot = 0\nfamily.g0 = 1 0 0\nfamily.g1 = -1 0 0\n"


def _qfi_triple_check(label, anc, no_anc, eta):
    if not all(np.isfinite([anc, no_anc, eta])):
        return f"{label}: non-finite value"
    # channel_qfi_ancilla accepts a 1e-7 relative spread between its restarts;
    # the README family's ancilla-free value exceeds its ancilla value by 6e-9
    if anc < no_anc * (1.0 - 1e-7) - 1e-12:
        return f"{label}: ancilla QFI {anc:.12g} below ancilla-free {no_anc:.12g}"
    if not 0.0 <= eta <= 1.0 + 1e-9:
        return f"{label}: eta_bound {eta:.12g} outside [0, 1]"
    return None


def _channel_qfi(seed, workdir, qm) -> Workload:
    gen = _Inputs(seed)
    tasks = []
    cfg = os.path.join(workdir, "readme.conf")
    out = os.path.join(workdir, "qfi.csv")
    _write(cfg, gen.record(README_CONF))

    def check_readme():
        _, rows = _read_csv(out)
        vals = {r[0]: float(r[1]) for r in rows}
        anc = vals["channel_qfi_ancilla"]
        if _rel(anc, 4.0) > 1e-6:
            return f"qfi readme: ancilla QFI {anc:.12g}, want 4"
        return _qfi_triple_check("qfi readme", anc, vals["channel_qfi_no_ancilla"], vals["eta_bound"])

    tasks.append(_cli_task(qm, "qfi_readme", ["--config", cfg, "--out", out, "qfi"], out, check_readme))

    for rank, panel_seed in PANEL_SEEDS.items():
        pairs = _Inputs(panel_seed).stinespring_pairs(rank)
        for pair in pairs:
            for op in pair:
                gen.record(op)
        u_in, u_out = gen.unitary(), gen.unitary()
        framed = [(u_out @ k @ u_in, u_out @ dk @ u_in) for k, dk in pairs]

        def run(framed=framed):
            ch = qm.channel_model.OneParamChannel(framed)
            anc = qm.fisher_info.channel_qfi_ancilla(ch).value
            no_anc = qm.fisher_info.channel_qfi_no_ancilla(ch)
            eta = qm.fisher_info.eta_bound(qm.qubit_core.ptm_from_kraus(ch.kraus_set()))
            return anc, no_anc, eta

        tasks.append(
            Task(f"qfi_rank{rank}", run, lambda r, rank=rank: _qfi_triple_check(f"qfi rank {rank}", *r))
        )
    return Workload(tasks, gen.digest)


# ---------------------------------------------------------------------------
# sequential_bound: extension_bound against simulate_sequence, per-step controls
# ---------------------------------------------------------------------------

# one task per length, in seeded order: n = 1..100 with n % 4 in (0, 1), so half
# the lengths are odd (unital controls) and half even (non-unital controls)
SEQ_LENGTHS = [n for n in range(1, 101) if n % 4 in (0, 1)]
SEQ_STARTS = 25  # random start states pushed through each sequence
SEQ_MAX_REPLACEMENT = 0.1  # weight of the replacement channel in non-unital controls
BOUND_N = 5000  # n of the `qmetro bound` task


def _sequential_bound(seed, workdir, qm) -> Workload:
    gen = _Inputs(seed)
    tasks = []
    lengths = gen.record(gen.rng.permutation(SEQ_LENGTHS))
    for n in lengths.tolist():
        p, pdot, c0, c1 = gen.family((0.05, 0.5))
        g0, g1 = _pauli(c0), _pauli(c1)
        unital = n % 2 == 1  # odd lengths unital, even ones mildly non-unital
        controls = []
        for _ in range(n):
            if unital:
                lam = gen.uniform(0.0, 1.0)
                controls.append((np.zeros(3), lam * gen.rotation() + (1.0 - lam) * gen.rotation()))
            else:
                lam = gen.uniform(0.0, SEQ_MAX_REPLACEMENT)
                controls.append((lam * gen.ball_point(), (1.0 - lam) * gen.rotation()))
        starts = [gen.ball_point() for _ in range(SEQ_STARTS)]

        def run(p=p, pdot=pdot, g0=g0, g1=g1, unital=unital, controls=controls, starts=starts, n=n):
            fam = qm.channel_model.DephasingFamily(p, pdot, g0, g1)
            gauge = qm.bounds.unital_gauge(fam) if unital else None
            maps = [qm.qubit_core.PauliTransferMap(t, T) for t, T in controls]
            steps = [qm.bounds.ExtensionStep(m, gauge) for m in maps]
            total = qm.bounds.extension_bound(fam, steps).total
            seq = qm.protocols.ControlSequence(maps, constant=False)
            best = max(
                qm.protocols.simulate_sequence(fam, seq, qm.qubit_core.BlochState(v, np.zeros(3)), n).qfi_or_fi
                for v in starts
            )
            return total, best

        def check(result, n=n, unital=unital):
            total, best = result
            if not (math.isfinite(total) and math.isfinite(best)):
                return f"sequence n={n}: non-finite bound or QFI"
            if best > total + 1e-9:
                kind = "unital" if unital else "non-unital"
                return f"sequence n={n} ({kind}): simulated QFI {best:.12g} exceeds bound {total:.12g}"
            return None

        tasks.append(Task(f"sequence#{n}", run, check))

    p, pdot, c0, c1 = gen.family((0.05, 0.5))
    fam_data = (p, pdot, _pauli(c0), _pauli(c1))
    cfg = os.path.join(workdir, "bound.conf")
    out = os.path.join(workdir, "bound.csv")
    _write(
        cfg,
        gen.record(
            f"family.p = {p!r}\nfamily.pdot = {pdot!r}\nfamily.g0 = {_triple(c0)}\n"
            f"family.g1 = {_triple(c1)}\nn = {BOUND_N}\n"
        ),
    )
    # identity controls from the pole settle at this QFI, which the bound must cover
    floor = qm.protocols.no_control_fixed_point(qm.channel_model.DephasingFamily(*fam_data))

    def check_bound():
        with open(out, encoding="utf-8") as fh:
            first = fh.readline()
        total = float(first.rsplit("=", 1)[1])
        _, rows = _read_csv(out)
        if len(rows) != BOUND_N:
            return f"bound: {len(rows)} rows, want {BOUND_N}"
        running = float(rows[-1][-1])
        if not math.isfinite(total) or _rel(running, total) > 1e-9:
            return f"bound: running total {running!r} disagrees with header total {total!r}"
        if total < floor - 1e-9:
            return f"bound: total {total:.12g} below the no-control QFI {floor:.12g}"
        return None

    tasks.append(_cli_task(qm, "bound", ["--config", cfg, "--out", out, "bound"], out, check_bound))
    return Workload(tasks, gen.digest)


# ---------------------------------------------------------------------------
# census: classification and structural checks on random channels
# ---------------------------------------------------------------------------

CENSUS_TASKS = 600  # per round, cycling Stinespring rank 4 / dephasing family / rotated unitary


def _census(seed, workdir, qm) -> Workload:
    gen = _Inputs(seed)
    tasks = []
    for i in range(CENSUS_TASKS):
        kind = i % 3
        rgnks_want = None
        if kind == 0:
            data = gen.stinespring_pairs(4)
        elif kind == 1:
            p, pdot, c0, c1 = gen.family((0.02, 0.5))
            data = (p, pdot, _pauli(c0), _pauli(c1))
            rgnks_want = bool(2.0 * max(abs(c0[0]), abs(c0[1]), abs(c1[0]), abs(c1[1])) > 1e-9)
        else:
            data = (gen.unitary(), _pauli(gen.normal(3)))
        h = gen.traceless_hermitian() + float(gen.normal(())) * _I2

        def run(kind=kind, data=data, h=h):
            cm = qm.channel_model
            fam = None
            if kind == 0:
                ch = cm.OneParamChannel(data)
            elif kind == 1:
                fam = cm.DephasingFamily(*data)
                ch = cm.dephasing_channel(fam)
            else:
                ch = cm.rotated_family(qm.qubit_core.KrausSet([data[0]]), data[1])
            ks = ch.kraus_set()
            ptm = qm.qubit_core.ptm_from_kraus(ks)
            tag = cm.classify(ptm).tag
            hnks = cm.hnks_check(ch).holds
            rgnks = cm.rgnks_check(fam) if fam is not None else None
            form = cm.canonical_pauli_form(ks)
            residual = None
            if form.unitality_witness > 1e-6:
                residual = cm.solve_h_annihilating(ks, h).residual
            bloch = qm.bounds.bloch_inequality_check(ptm).holds
            eta = qm.fisher_info.eta_bound(ptm)
            return tag.name, hnks, rgnks, residual, bloch, eta

        def check(result, i=i, kind=kind, h=h, rgnks_want=rgnks_want):
            tag, hnks, rgnks, residual, bloch, eta = result
            if hnks and tag not in ("UNITARY", "DEPHASING_CLASS"):
                return f"census {i}: HNKS holds on a {tag} channel"
            if kind == 1 and rgnks != rgnks_want:
                return f"census {i}: rgnks_check {rgnks}, want {rgnks_want}"
            if residual is not None and residual > 1e-9 * (np.linalg.norm(h, 2) + 1.0):
                return f"census {i}: annihilating-gauge residual {residual:.3e}"
            if not bloch:
                return f"census {i}: Bloch inequality fails"
            if not 0.0 <= eta <= 1.0 + 1e-9:
                return f"census {i}: eta_bound {eta:.12g} outside [0, 1]"
            return None

        tasks.append(Task(f"census#{i}", run, check))
    return Workload(tasks, gen.digest)


_FACTORIES = {
    "scan": _scan,
    "channel_qfi": _channel_qfi,
    "sequential_bound": _sequential_bound,
    "census": _census,
}


def build(name: str, seed: int, workdir: str, qm) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` and its task list."""
    return _FACTORIES[name](seed, workdir, qm)
