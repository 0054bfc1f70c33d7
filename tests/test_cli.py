import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import protocols
from qmetro.cli import (
    PROTOCOLS,
    ConfigError,
    _fmt,
    cmd_classify,
    cmd_figure2,
    cmd_sweep,
    main,
    parse_config,
    serialize_config,
)
from qmetro.channel_model import DephasingFamily
from qmetro.protocols import SQL_VARIANTS
from qmetro.qubit_core import BlochState, X

EQ2 = """
family.p = 0.1
family.pdot = 0
family.g0 = 1 0 0
family.g1 = -1 0 0
"""

CONFIG_CORPUS = [
    EQ2,
    EQ2 + "protocol.kind = sql\nprotocol.w = 0.02\nn = 1..5\n",
    EQ2 + "protocol.kind = repeated\nprotocol.interval = 4\nn = 2 4 8\nout = r.csv\n",
    "ptm.t = 0 0 0\nptm.row0 = 0.5 0 0\nptm.row1 = 0 0.5 0\nptm.row2 = 0 0 0.5\n",
    EQ2 + "protocol.kind = spam\nprotocol.q = 0.02\nprotocol.z0 = 1\nn = 10\n",
]


class TestConfig:
    def test_round_trip_corpus(self):
        # parse o serialize o parse == parse, compared through the canonical form
        for text in CONFIG_CORPUS:
            once = parse_config(text)
            again = parse_config(serialize_config(once))
            assert serialize_config(again) == serialize_config(once)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("family.p = 0.1\nbogus line\n")

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(EQ2 + "mystery = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("family.p = 0.1\nfamily.p = 0.2\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("family.p = abc\n")

    def test_n_range(self):
        cfg = parse_config(EQ2 + "n = 3..6\n")
        assert cfg.n_values == (3, 4, 5, 6)

    def test_n_list(self):
        cfg = parse_config(EQ2 + "n = 1 10 100\n")
        assert cfg.n_values == (1, 10, 100)


class TestClassifyCommand:
    def test_example_family(self):
        cfg = parse_config(EQ2)
        buf = io.StringIO()
        assert cmd_classify(cfg, out=buf) == 0
        text = buf.getvalue()
        assert "DephasingClass" in text
        assert "hnks = holds" in text
        assert "rgnks = holds" in text

    def test_half_probability(self):
        cfg = parse_config(EQ2.replace("0.1", "0.5"))
        buf = io.StringIO()
        cmd_classify(cfg, out=buf)
        text = buf.getvalue()
        assert "hnks = violated" in text
        assert "rgnks = holds" in text

    def test_depolarizing_ptm(self):
        cfg = parse_config(CONFIG_CORPUS[3])
        buf = io.StringIO()
        cmd_classify(cfg, out=buf)
        text = buf.getvalue()
        assert "StrictlyContractive" in text
        assert "hnks = violated" in text  # Kraus span is full for contractive maps


class TestSweepCommand:
    def test_sql_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = parse_config(EQ2 + f"protocol.kind = sql\nn = 1..100\nout = {out}\n")
        assert cmd_sweep(cfg) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "protocol,n,p,w,q,interval,value"
        assert len(lines) == 101
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_n_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cfg = parse_config(EQ2 + f"protocol.kind = sql\nout = {out}\n")
        assert cmd_sweep(cfg) == 0
        assert out.read_text() == "protocol,n,p,w,q,interval,value\n"

    def test_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            cfg = parse_config(
                EQ2 + f"protocol.kind = spam\nprotocol.q = 0.02\nn = 1..20\nout = {path}\n"
            )
            cmd_sweep(cfg)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("kind", PROTOCOLS)
    def test_rows_equal_per_n_calls_across_blocks(self, monkeypatch, kind):
        # four rows per block, so the six unsorted rows below span two blocks
        block = 4
        monkeypatch.setattr(protocols, "ROWS_PER_BLOCK", block)
        ns = (7, 3, 3, 1, block + 1, 100000)
        cfg = parse_config(
            "family.p = 0.17\nfamily.pdot = 0.3\nfamily.g0 = 1 0.5 1\nfamily.g1 = 0.7 -1 0.2\n"
            f"protocol.kind = {kind}\nprotocol.q = 0.01\nprotocol.z0 = 0.9\n"
            f"protocol.variant = g1x\nprotocol.interval = 4\nn = {' '.join(map(str, ns))}\n"
        )
        per_n = {
            "sql": lambda n: protocols.sql_protocol(cfg.family, n, cfg.w, "g1x", 0.9).qfi_or_fi,
            "spam": lambda n: protocols.spam_fi(cfg.family, n, cfg.w, 0.01, "g1x"),
            "repeated": lambda n: protocols.repeated_measurement(cfg.family, n, 4).qfi_or_fi,
            "qec": lambda n: protocols.qec_repetition_sim(cfg.family.p, n).qfi_or_fi,
            "no_control": lambda n: protocols.simulate_sequence(
                cfg.family, protocols.ControlSequence.identity(), BlochState([0.0, 0.0, 0.9], np.zeros(3)), n
            ).qfi_or_fi,
        }[kind]
        buf = io.StringIO()
        assert cmd_sweep(cfg, out=buf) == 0
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == list(ns)
        assert [r[-1] for r in rows] == [_fmt(per_n(n)) for n in ns]


class TestFigure2Command:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cmd_figure2(n_max=12, out_path=str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "n",
            "qec_analytic",
            "sql_q0",
            "sql_q0.001",
            "sql_q0.02",
            "repeated_measurement",
            "no_control",
        ]
        row = lines[10].split(",")
        assert int(row[0]) == 10
        assert np.isclose(float(row[1]), 256.0)  # 2.56 n^2 at n = 10
        # small-n crossover (inset behavior): the unitary protocol starts above
        # the QEC curve before the quadratic scaling takes over
        first = lines[1].split(",")
        assert float(first[2]) > float(first[1])

    def test_columns_equal_sweep_values(self, tmp_path):
        fig = tmp_path / "fig2.csv"
        argv = ["figure2", "--n-max", "40", "--p", "0.17", "--w", "0.02", "--q", "0.01", "--out", str(fig)]
        assert main(argv) == 0
        rows = [l.split(",") for l in fig.read_text().splitlines() if not l.startswith("#")]
        columns = dict(zip(rows[0], zip(*rows[1:])))
        assert columns["n"] == tuple(str(n) for n in range(1, 41))
        family = "family.p = 0.17\nfamily.g0 = 1 0 0\nfamily.g1 = -1 0 0\nprotocol.w = 0.02\n"
        for label, kind in [("sql_q0.01", "spam"), ("repeated_measurement", "repeated"), ("no_control", "no_control")]:
            out = tmp_path / f"{kind}.csv"
            cfg = family + f"protocol.kind = {kind}\nprotocol.q = 0.01\nprotocol.interval = 6\nn = 1..40\nout = {out}\n"
            assert cmd_sweep(parse_config(cfg)) == 0
            sweep = [l.split(",") for l in out.read_text().splitlines()[1:]]
            assert columns[label] == tuple(r[-1] for r in sweep), label

    @pytest.mark.parametrize("n_max", ["-3", str(10**6 + 1), "abc", "2.5"])
    def test_n_max_out_of_range_is_2(self, tmp_path, capsys, n_max):
        out = tmp_path / "fig2.csv"
        assert main(["figure2", "--n-max", n_max, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()

    def test_n_max_zero_writes_header_only(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure2", "--n-max", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[2].startswith("n,qec_analytic,")


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg_path = tmp_path / "ok.conf"
        cfg_path.write_text(EQ2)
        assert main(["--config", str(cfg_path), "classify"]) == 0

    def test_malformed_config_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.conf"
        cfg_path.write_text("family.p == 0.1\n")
        assert main(["--config", str(cfg_path), "classify"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_missing_config_file_is_3(self, capsys):
        assert main(["--config", "/nonexistent/path.conf", "classify"]) == 3
        assert capsys.readouterr().err.startswith("error:io:")

    def test_unwritable_output_is_3(self, tmp_path):
        cfg_path = tmp_path / "c.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1 2\n")
        target = tmp_path / "no_such_dir" / "x.csv"
        assert main(["--config", str(cfg_path), "--out", str(target), "sweep"]) == 3

    def test_domain_error_is_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "d.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = spam\nprotocol.q = 0.7\nn = 1 2\n")
        assert main(["--config", str(cfg_path), "sweep"]) == 4
        assert capsys.readouterr().err.startswith("error:domain:")

    @pytest.mark.parametrize("command", ["classify", "qfi"])
    def test_two_channels_are_2(self, tmp_path, capsys, command):
        # a family.* block and a ptm.* block would answer from two different channels
        identity = "ptm.row0 = 1 0 0\nptm.row1 = 0 1 0\nptm.row2 = 0 0 1\n"
        cfg_path = tmp_path / "both.conf"
        cfg_path.write_text(EQ2 + identity)
        assert main(["--config", str(cfg_path), command]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:") and "not both" in captured.err
        assert captured.out == ""
        with pytest.raises(ConfigError, match="one channel"):
            parse_config(identity + "family.p = 0.1\n")

    def test_non_finite_generator_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "nan.conf"
        cfg_path.write_text("family.p = 0.1\nfamily.g0 = inf 0 0\nfamily.g1 = nan 0 0\n")
        assert main(["--config", str(cfg_path), "classify"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:")
        assert captured.out == ""

    def test_non_finite_pdot_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "pdot.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(EQ2.replace("pdot = 0", "pdot = nan") + "protocol.kind = sql\nn = 1..3\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()

    def test_non_finite_generator_warns_nothing(self, tmp_path, capsys):
        # the coefficient tokens are checked before they multiply the Paulis
        cfg_path = tmp_path / "inf.conf"
        cfg_path.write_text("family.p = 0.1\nfamily.g0 = inf 0 0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(cfg_path), "classify"]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith("error:config:")

    def test_huge_n_range_is_2(self, tmp_path, capsys):
        # rejected before the range is built, so no memory is spent on it
        cfg_path = tmp_path / "range.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1..1000000000000\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()
        assert len(parse_config(EQ2 + "n = 1..1000000").n_values) == 1_000_000
        with pytest.raises(ConfigError):
            parse_config(EQ2 + "n = 0..1000000")

    def test_huge_bound_n_is_2(self, tmp_path, capsys):
        # one n value above MAX_N_VALUES is rejected before any step is built
        cfg_path = tmp_path / "bound.conf"
        out = tmp_path / "bound.csv"
        cfg_path.write_text(EQ2 + "n = 2000000\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "bound"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:")
        assert captured.out == ""
        assert not out.exists()

    def test_qec_sweep_at_large_n(self, tmp_path):
        cfg_path = tmp_path / "qec.conf"
        out = tmp_path / "qec.csv"
        cfg_path.write_text(EQ2.replace("0.1", "0.13") + "protocol.kind = qec\nn = 5000\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 0
        value = float(out.read_text().splitlines()[1].split(",")[-1])
        assert np.isclose(value, 4 * (1 - 2 * 0.13) ** 2 * 5000**2, rtol=1e-12)

    @pytest.mark.parametrize(
        "command, n", [("bound", "0"), ("sweep", "0"), ("sweep", "4 -2 7"), ("sweep", "0..3"), ("bound", "-5..2")]
    )
    def test_step_count_below_one_is_2(self, tmp_path, capsys, command, n):
        cfg_path = tmp_path / "zero.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(EQ2 + f"protocol.kind = sql\nn = {n}\n")
        assert main(["--config", str(cfg_path), "--out", str(out), command]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:field 'n': step counts must be at least 1")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sql", "spam", "repeated", "qec"])
    def test_huge_step_count_is_4(self, tmp_path, capsys, kind):
        # a 401-digit n has no float; it must fail as a domain error, not a traceback
        cfg_path = tmp_path / "huge.conf"
        cfg_path.write_text(EQ2 + f"protocol.kind = {kind}\nprotocol.w = 0.02\nn = 1 1{'0' * 400}\n")
        assert main(["--config", str(cfg_path), "sweep"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error:domain:")
        assert captured.out == ""

    @pytest.mark.parametrize("q", ["0.1", "0.5"])
    @pytest.mark.parametrize(
        "family, message",
        [
            (EQ2 + "protocol.w = -1\n", "w must be positive"),
            ("family.p = 0.1\nfamily.g0 = 0 0 1\nfamily.g1 = 0 0 1\n", "the driving trace vanishes"),
        ],
        ids=["w_negative", "no_signal"],
    )
    def test_spam_checks_hold_at_half_rate(self, tmp_path, capsys, q, family, message):
        # q = 1/2 gives zero rows, but only once the arguments pass the checks q < 1/2 runs
        cfg_path = tmp_path / "spam.conf"
        cfg_path.write_text(family + f"protocol.kind = spam\nprotocol.q = {q}\nn = 1..3\n")
        assert main(["--config", str(cfg_path), "sweep"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error:domain:") and message in captured.err
        assert captured.out == ""

    def test_seed_is_retired(self, tmp_path, capsys):
        cfg_path = tmp_path / "s.conf"
        cfg_path.write_text(EQ2 + "seed = 1\n")
        assert main(["--config", str(cfg_path), "classify"]) == 2
        assert capsys.readouterr().err.startswith("error:config:unknown fields: ['seed']")
        cfg_path.write_text(EQ2)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "classify", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestFlagPlacement:
    def test_shared_flags_accepted_after_subcommand(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure2", "--n-max", "3", "--out", str(out)]) == 0
        assert out.exists()
        cfg_path = tmp_path / "c.conf"
        cfg_path.write_text(EQ2)
        assert main(["classify", "--config", str(cfg_path)]) == 0


class TestThreadDefaults:
    def test_thread_flag_changes_no_byte(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"fig2_t{threads}.csv")
            argv = ["figure2", "--n-max", "50", "--threads", threads, "--out", str(outs[-1])]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestOtherCommands:
    def test_qfi_command(self):
        from qmetro.cli import cmd_qfi

        cfg = parse_config(EQ2)
        buf = io.StringIO()
        assert cmd_qfi(cfg, out=buf) == 0
        lines = buf.getvalue().strip().splitlines()
        values = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert np.isclose(values["channel_qfi_ancilla"], 4.0, rtol=1e-6)
        assert values["channel_qfi_no_ancilla"] <= values["channel_qfi_ancilla"] + 1e-7
        assert np.isclose(values["eta_bound"], 1.0)

    def test_qfi_through_main_on_readme_family(self, tmp_path, capsys):
        # the ancilla-free optimum of this family sits at the pure-output
        # pole v = +-z; cli.main raises on any division by 1 - |w|^2 = 0
        cfg_path = tmp_path / "readme.conf"
        cfg_path.write_text(EQ2)
        assert main(["--config", str(cfg_path), "qfi"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:])
        assert abs(float(rows["channel_qfi_no_ancilla"]) - 4.0) <= 4e-12

    def test_bound_command(self, tmp_path):
        from qmetro.cli import cmd_bound

        out = tmp_path / "bound.csv"
        cfg = parse_config(EQ2 + f"n = 1..20\nout = {out}\n")
        buf = io.StringIO()
        assert cmd_bound(cfg, out=buf) == 0
        text = out.read_text()
        assert text.startswith("# extension bound, n = 20")
        assert "k,alpha_term,cross_term,gamma_norm,running_total" in text

    def test_csv_shape(self):
        from qmetro.cli import cmd_bound

        buf = io.StringIO()
        assert cmd_bound(parse_config(EQ2 + "n = 3\n"), out=buf) == 0
        lines = [l for l in buf.getvalue().strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "k,alpha_term,cross_term,gamma_norm,running_total"
        assert len(lines) == 4
        assert float(lines[-1].split(",")[-1]) > 0

    def test_bound_reports_ceiling_when_rgnks_fails(self):
        from qmetro.cli import cmd_bound

        cfg = parse_config(
            "family.p = 0.1\nfamily.g0 = 0 0 1\nfamily.g1 = 0 0 1\nn = 1..5\n"
        )
        buf = io.StringIO()
        cmd_bound(cfg, out=buf)
        assert "rgnks_violated_bound" in buf.getvalue()

    def test_small_generators_keep_rgnks(self, tmp_path):
        # G0 = 1e-10 X, G1 = -1e-10 X is the README family in other units: RGNKS holds, and
        # bound reports no constant ceiling, which the SQL protocol's growing QFI would break
        cfg_path = tmp_path / "small.conf"
        cfg_path.write_text("family.p = 0.1\nfamily.g0 = 1e-10 0 0\nfamily.g1 = -1e-10 0 0\nn = 3\n")
        for command, want in (("classify", "rgnks = holds"), ("bound", "# extension bound, n = 3")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["--config", str(cfg_path), command]) == 0
            assert want in buf.getvalue()
            assert "violated" not in buf.getvalue()


class TestStdoutAtCallTime:
    def test_bound_output_reaches_capsys(self, tmp_path, capsys):
        cfg_path = tmp_path / "b.conf"
        cfg_path.write_text(EQ2 + "n = 3\n")
        assert main(["--config", str(cfg_path), "bound"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# extension bound, n = 3")
        assert len(out.strip().splitlines()) == 5

    def test_redirect_stdout_sees_every_command(self, tmp_path):
        import contextlib

        cfg_path = tmp_path / "s.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1 2\n")
        for argv in (["classify"], ["bound"], ["sweep"], ["figure2", "--n-max", "2"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["--config", str(cfg_path)] + argv) == 0
            assert buf.getvalue(), argv


def _run_python(*args):
    import qmetro

    src = os.path.dirname(os.path.dirname(os.path.abspath(qmetro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestModuleEntryPoint:
    def test_python_m_qmetro_help(self):
        proc = _run_python("-m", "qmetro", "--help")
        assert proc.returncode == 0
        assert "usage: qmetro" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr


# prints whether scipy is loaded after `import qmetro` and, given a config,
# after cli.main ran each of the commands named on the command line
_SCIPY_PROBE = """
import contextlib, io, sys
import qmetro
from qmetro.cli import main
print("import", "scipy" in sys.modules)
for command in sys.argv[2:]:
    argv = command.split()
    if argv[0] != "figure2":
        argv = ["--config", sys.argv[1]] + argv
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(command, code, "scipy" in sys.modules)
"""


class TestImportPath:
    def test_no_command_loads_scipy(self, tmp_path):
        cfg_path = tmp_path / "c.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1..3\n")
        commands = ["classify", "sweep", "bound", "figure2 --n-max 5", "qfi"]
        proc = _run_python("-c", _SCIPY_PROBE, str(cfg_path), *commands)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:6] == [
            "import False",
            "classify 0 False",
            "sweep 0 False",
            "bound 0 False",
            "figure2 --n-max 5 0 False",
            "qfi 0 False",
        ]


FAMILY_SWEEP = EQ2 + "protocol.kind = spam\nn = 1..3\n"
PTM_ROWS = "ptm.row1 = 0 0.5 0\nptm.row2 = 0 0 0.5\n"


class TestGrammar:
    @pytest.mark.parametrize(
        "text, command",
        [
            (FAMILY_SWEEP + "protocol.w = nan\n", "sweep"),
            (FAMILY_SWEEP + "protocol.w = inf\n", "sweep"),
            (FAMILY_SWEEP + "protocol.z0 = nan\n", "sweep"),
            (FAMILY_SWEEP + "protocol.q = nan\n", "sweep"),
            ("ptm.row0 = nan 0 0\n" + PTM_ROWS, "classify"),
            ("ptm.t = inf 0 0\nptm.row0 = 0.5 0 0\n" + PTM_ROWS, "classify"),
            (FAMILY_SWEEP + "protocol.variant = bogus\n", "sweep"),
            (FAMILY_SWEEP.replace("1..3", "5..2"), "sweep"),
            (FAMILY_SWEEP.replace("g0 = 1 0 0", "g0 = 0 0 1e308"), "sweep"),
        ],
        ids=["w_nan", "w_inf", "z0_nan", "q_nan", "row0_nan", "t_inf", "variant", "reversed_n", "g0_huge"],
    )
    def test_bad_value_is_2(self, tmp_path, capsys, text, command):
        cfg_path = tmp_path / "bad.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(cfg_path), "--out", str(out), command]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--p", "--w", "--q"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_figure2_flag_non_finite_is_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "fig2.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["figure2", "--n-max", "3", flag, value, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()

    def test_serialize_non_finite_raises(self):
        # Tr(G sigma_x) = 2e308 overflows: the text would read 'inf'
        fam = DephasingFamily(0.1, 0.0, 1e308 * X, -X)
        cfg = replace(parse_config(EQ2), family=fam)
        with pytest.raises(ConfigError, match="family.g0"):
            serialize_config(cfg)

    def test_overflow_is_4(self, tmp_path, capsys):
        # finite inputs whose QFI overflows: a domain error, never an 'inf' row
        cfg_path = tmp_path / "big.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(
            "family.p = 0.5\nfamily.g1 = 0 1.3407807929942597e154 0\n"
            "protocol.kind = repeated\nprotocol.interval = 1\nn = 1\n"
        )
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 4
        assert capsys.readouterr().err.startswith("error:domain:overflow")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qfi", "bound"])
    def test_overflowing_channel_is_4(self, tmp_path, capsys, command):
        # G0 = 1e155 X: the channel QFI and the bound do not fit in a double
        cfg_path = tmp_path / "big.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text("family.p = 0.3\nfamily.g0 = 1e155 0 0\n")
        assert main(["--config", str(cfg_path), "--out", str(out), command]) == 4
        assert capsys.readouterr().err.startswith("error:domain:overflow")
        assert not out.exists()

    def test_reversed_range(self):
        with pytest.raises(ConfigError, match="reversed"):
            parse_config(EQ2 + "n = 5..2\n")
        assert parse_config(EQ2 + "n = 2..2\n").n_values == (2,)

    @pytest.mark.parametrize("command", ["classify", "qfi", "bound", "sweep"])
    def test_out_file_only(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "c.conf"
        out = tmp_path / "out.csv"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1..3\n")
        assert main(["--config", str(cfg_path), "--out", str(out), command]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text()

    def test_readme_example(self, tmp_path, capsys):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("cat > example.conf <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
        cfg_path = tmp_path / "example.conf"
        cfg_path.write_text(block + "\n")
        for command in ("classify", "qfi", "bound", "sweep"):
            assert main(["--config", str(cfg_path), command]) == 0, command
        assert capsys.readouterr().out


def _config_key(cfg):
    """The parsed values of ``cfg`` as plain comparable tuples (arrays flattened)."""
    fam = cfg.family and (cfg.family.p, cfg.family.pdot, *cfg.family.g0.ravel(), *cfg.family.g1.ravel())
    ptm = cfg.ptm and (*cfg.ptm.t, *cfg.ptm.T.ravel())
    return (fam, ptm, cfg.protocol, cfg.w, cfg.z0, cfg.q, cfg.interval, cfg.variant, cfg.n_values, cfg.out)


_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]))


def _numeric(typical, anything=_ANY_FLOAT):
    """Mostly ``typical``; one draw in five from every float, nan and +-inf included."""
    return st.integers(0, 4).flatmap(lambda i: anything if i == 0 else typical)


_TRIPLE = _numeric(st.tuples(*[st.floats(-2, 2)] * 3), st.tuples(*[_ANY_FLOAT] * 3))


class TestGrammarProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        p=_numeric(st.floats(0.01, 0.5)),
        pdot=_numeric(st.floats(-2, 2)),
        g0=_TRIPLE,
        g1=_TRIPLE,
        kind=st.sampled_from(PROTOCOLS),
        w=_numeric(st.floats(0.0, 0.1)),
        z0=_numeric(st.floats(-1, 1)),
        q=_numeric(st.floats(0.0, 0.1)),
        interval=st.integers(1, 8),
        variant=st.sampled_from(SQL_VARIANTS),
        ns=st.lists(st.integers(1, 40), max_size=4),
    )
    def test_round_trip_and_no_silent_non_finite(
        self, p, pdot, g0, g1, kind, w, z0, q, interval, variant, ns
    ):
        triple = lambda c: " ".join(map(repr, c))
        text = (
            f"family.p = {p!r}\nfamily.pdot = {pdot!r}\n"
            f"family.g0 = {triple(g0)}\nfamily.g1 = {triple(g1)}\n"
            f"protocol.kind = {kind}\nprotocol.w = {w!r}\nprotocol.z0 = {z0!r}\n"
            f"protocol.q = {q!r}\nprotocol.interval = {interval}\nprotocol.variant = {variant}\n"
            f"n = {' '.join(map(str, ns))}\n"
        )
        try:
            cfg = parse_config(text)
        except ConfigError:
            cfg = None
        if cfg is not None:
            assert _config_key(parse_config(serialize_config(cfg))) == _config_key(cfg)

        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "c.conf")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
                code = main(["--config", cfg_path, "sweep"])
        if cfg is None:
            assert code == 2
        if code != 0:
            assert code in (2, 4) and err.getvalue().startswith("error:")
            return
        rows = out.getvalue().splitlines()[1:]
        assert len(rows) == len(ns)
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[2:])

    def test_spam_pure_terminal_state(self, tmp_path, capsys):
        # a falsifying example of the property above: the spam readout of a pure
        # terminal state at the pole has a zero-probability outcome
        cfg_path = tmp_path / "pole.conf"
        cfg_path.write_text(
            "family.p = 0.5\nfamily.g0 = 1 0 0\nfamily.g1 = 1.8019858144938336e+128 0 0\n"
            "protocol.kind = spam\nprotocol.w = 1.2318483770848971e-280\nprotocol.z0 = 0\n"
            "protocol.q = 0\nn = 1\n"
        )
        assert main(["--config", str(cfg_path), "sweep"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1
        assert all(math.isfinite(float(x)) for x in rows[0].split(",")[2:])
