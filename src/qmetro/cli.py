"""Configuration-driven command line front end.

Subcommands: ``classify``, ``qfi``, ``bound``, ``sweep``, ``figure2``.
Configurations are flat key-value text files with dotted section prefixes
(``family.p = 0.1``); CSV output uses '.' decimals with 17 significant
digits so downstream plots and regression baselines are bit-stable.

Exit codes: 0 ok, 2 malformed configuration, 3 I/O failure, 4 domain error
raised by the numerical modules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, channel_model, fisher_info, protocols
from .channel_model import (
    DephasingFamily,
    classify,
    dephasing_channel,
    hnks_check,
    rgnks_check,
)
from .qubit_core import BlochState, PauliTransferMap, X, Y, Z, ptm_from_kraus

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "cmd_classify",
    "cmd_qfi",
    "cmd_bound",
    "cmd_sweep",
    "cmd_figure2",
    "main",
]

THREADS_ENV = "QMETRO_THREADS"
MAX_N_VALUES = 10**6  # longest 'n = lo..hi' range, and largest n 'bound' runs
PROTOCOLS = ("sql", "spam", "repeated", "qec", "no_control")
_EXIT_CONFIG = 2
_EXIT_IO = 3
_EXIT_DOMAIN = 4


class ConfigError(ValueError):
    """Malformed configuration text (carries a line/field diagnostic)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; every field maps to a dotted config key."""

    family: DephasingFamily | None = None
    ptm: PauliTransferMap | None = None
    protocol: str | None = None
    w: float = 0.01
    z0: float = 1.0
    q: float = 0.0
    interval: int = 6
    variant: str = "g0x"
    n_values: tuple = ()
    seed: int = 0
    out: str | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format; raises :class:`ConfigError` with a line diagnostic."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = val

    def take_float(key, default=None):
        if key not in fields:
            if default is None:
                raise ConfigError(f"missing required field {key!r}")
            return default
        raw = fields.pop(key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"field {key!r}: not a number: {raw!r}") from None

    def take_int(key, default):
        if key not in fields:
            return default
        raw = fields.pop(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"field {key!r}: not an integer: {raw!r}") from None

    family = None
    if "family.p" in fields:
        try:
            p = take_float("family.p")
            pdot = take_float("family.pdot", 0.0)
            triples = {}
            for name in ("family.g0", "family.g1"):
                toks = fields.pop(name, "0 0 0").split()
                if len(toks) != 3:
                    raise ConfigError(f"field {name!r}: expected 3 Pauli coefficients")
                c = [float(t) for t in toks]
                if not all(math.isfinite(x) for x in c):
                    raise ConfigError(f"field {name!r}: Pauli coefficients must be finite")
                triples[name] = c[0] * X + c[1] * Y + c[2] * Z
            family = DephasingFamily(p, pdot, triples["family.g0"], triples["family.g1"])
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"family: {exc}") from exc

    ptm = None
    if "ptm.t" in fields or "ptm.row0" in fields:
        try:
            t = [float(x) for x in fields.pop("ptm.t", "0 0 0").split()]
            rows = [[float(x) for x in fields.pop(f"ptm.row{i}").split()] for i in range(3)]
            ptm = PauliTransferMap(np.array(t), np.array(rows))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"ptm: malformed block ({exc})") from exc

    protocol = fields.pop("protocol.kind", None)
    if protocol is not None and protocol not in PROTOCOLS:
        raise ConfigError(f"protocol.kind must be one of {PROTOCOLS}, got {protocol!r}")

    n_values: tuple = ()
    if "n" in fields:
        spec = fields.pop("n").strip()
        if spec:
            ends = spec.split("..", 1) if ".." in spec else None
            try:
                ints = [int(tok) for tok in (ends or spec.split())]
            except ValueError:
                raise ConfigError(f"field 'n': expected integers or 'lo..hi', got {spec!r}") from None
            if ends is None:
                n_values = tuple(ints)
            elif ints[1] - ints[0] >= MAX_N_VALUES:
                raise ConfigError(f"field 'n': range {spec!r} holds more than {MAX_N_VALUES} values")
            else:
                n_values = tuple(range(ints[0], ints[1] + 1))

    cfg = ExperimentConfig(
        family=family,
        ptm=ptm,
        protocol=protocol,
        w=take_float("protocol.w", 0.01),
        z0=take_float("protocol.z0", 1.0),
        q=take_float("protocol.q", 0.0),
        interval=take_int("protocol.interval", 6),
        variant=fields.pop("protocol.variant", "g0x"),
        n_values=n_values,
        seed=take_int("seed", 0),
        out=fields.pop("out", None),
    )
    if fields:
        raise ConfigError(f"unknown fields: {sorted(fields)}")
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; ``parse(serialize(parse(x))) == parse(x)``."""
    lines = []
    if cfg.family is not None:
        fam = cfg.family
        lines.append(f"family.p = {_fmt(fam.p)}")
        lines.append(f"family.pdot = {_fmt(fam.pdot)}")
        for name, g in (("family.g0", fam.g0), ("family.g1", fam.g1)):
            coeffs = [np.trace(g @ s).real / 2.0 for s in (X, Y, Z)]
            lines.append(f"{name} = " + " ".join(_fmt(c) for c in coeffs))
    if cfg.ptm is not None:
        lines.append("ptm.t = " + " ".join(_fmt(c) for c in cfg.ptm.t))
        for i in range(3):
            lines.append(f"ptm.row{i} = " + " ".join(_fmt(c) for c in cfg.ptm.T[i]))
    if cfg.protocol is not None:
        lines.append(f"protocol.kind = {cfg.protocol}")
    lines.append(f"protocol.w = {_fmt(cfg.w)}")
    lines.append(f"protocol.z0 = {_fmt(cfg.z0)}")
    lines.append(f"protocol.q = {_fmt(cfg.q)}")
    lines.append(f"protocol.interval = {cfg.interval}")
    lines.append(f"protocol.variant = {cfg.variant}")
    if cfg.n_values:
        lines.append("n = " + " ".join(str(n) for n in cfg.n_values))
    lines.append(f"seed = {cfg.seed}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _family_ptm(cfg: ExperimentConfig) -> PauliTransferMap:
    if cfg.ptm is not None:
        return cfg.ptm
    if cfg.family is not None:
        return ptm_from_kraus(dephasing_channel(cfg.family).kraus_set())
    raise ConfigError("config must define a family.* block or a ptm.* block")


def cmd_classify(cfg: ExperimentConfig, out=None) -> int:
    """Print class tag, singular values and HNKS/RGNKS verdicts."""
    ptm = _family_ptm(cfg)
    result = classify(ptm)
    svals = " ".join(_fmt(s) for s in result.singular_values)
    lines = [f"class = {result.tag.value}", f"singular_values = {svals}"]
    if cfg.family is not None:
        hnks = hnks_check(dephasing_channel(cfg.family))
        lines.append(
            f"hnks = {'holds' if hnks.holds else 'violated'} residual = {_fmt(hnks.residual)}"
        )
        lines.append(f"rgnks = {'holds' if rgnks_check(cfg.family) else 'violated'}")
    elif result.tag is channel_model.ChannelKind.STRICTLY_CONTRACTIVE:
        # strictly contractive channels violate HNKS for every parametrization
        lines.append("hnks = violated (strictly contractive)")
    text = "\n".join(lines) + "\n"
    (sys.stdout if out is None else out).write(text)
    if cfg.out:
        _write_file(cfg.out, text)
    return 0


def cmd_qfi(cfg: ExperimentConfig, out=None) -> int:
    """Channel QFI with and without ancilla, plus the contraction bound eta."""
    if cfg.family is None:
        raise ConfigError("qfi needs a family.* block")
    ch = dephasing_channel(cfg.family)
    ancilla = fisher_info.channel_qfi_ancilla(ch)
    no_ancilla = fisher_info.channel_qfi_no_ancilla(ch)
    eta = fisher_info.eta_bound(_family_ptm(cfg))
    rows = [
        ("channel_qfi_ancilla", ancilla.value),
        ("channel_qfi_no_ancilla", no_ancilla),
        ("eta_bound", eta),
    ]
    text = "quantity,value\n" + "\n".join(f"{k},{_fmt(v)}" for k, v in rows) + "\n"
    (sys.stdout if out is None else out).write(text)
    if cfg.out:
        _write_file(cfg.out, text)
    return 0


def cmd_bound(cfg: ExperimentConfig, out=None) -> int:
    """Channel-extension bound with identity controls; CSV per-step rows."""
    if cfg.family is None:
        raise ConfigError("bound needs a family.* block")
    n = max(cfg.n_values) if cfg.n_values else 100
    if n > MAX_N_VALUES:
        raise ConfigError(f"bound: n = {n} is more than {MAX_N_VALUES} steps")
    steps = [bounds.ExtensionStep(PauliTransferMap.identity())] * n
    report = bounds.extension_bound(cfg.family, steps)
    header = f"# extension bound, n = {n}, total = {_fmt(report.total)}\n"
    extra = ""
    if not rgnks_check(cfg.family):
        extra = f"# rgnks_violated_bound = {_fmt(bounds.rgnks_violated_bound(cfg.family))}\n"
    text = header + extra + report.to_csv()
    (sys.stdout if out is None else out).write(text)
    if cfg.out:
        _write_file(cfg.out, text)
    return 0


def _sweep_value(cfg: ExperimentConfig, protocol: str, n: int) -> float:
    fam = cfg.family
    if protocol == "sql":
        return protocols.sql_protocol(fam, n, cfg.w, variant=cfg.variant, z0=cfg.z0).qfi_or_fi
    if protocol == "spam":
        return protocols.spam_fi(fam, n, cfg.w, cfg.q, variant=cfg.variant)
    if protocol == "repeated":
        return protocols.repeated_measurement(fam, n, cfg.interval).qfi_or_fi
    if protocol == "qec":
        return protocols.qec_repetition_sim(fam.p, n).qfi_or_fi
    if protocol == "no_control":
        start = BlochState(np.array([0.0, 0.0, cfg.z0]), np.zeros(3))
        return protocols.simulate_sequence(
            fam, protocols.ControlSequence.identity(), start, n
        ).qfi_or_fi
    raise ConfigError(f"unknown protocol {protocol!r}")


def cmd_sweep(cfg: ExperimentConfig, out=None, threads: int = 1) -> int:
    """One CSV row per (protocol, n), computed in order.

    ``threads`` is accepted for compatibility and ignored: each row costs
    O(log n) in-line.
    """
    if cfg.family is None:
        raise ConfigError("sweep needs a family.* block")
    if cfg.protocol is None:
        raise ConfigError("sweep needs protocol.kind")
    header = "protocol,n,p,w,q,interval,value\n"
    rows = []
    for n in cfg.n_values:
        rows.append(
            ",".join(
                [
                    cfg.protocol,
                    str(n),
                    _fmt(cfg.family.p),
                    _fmt(cfg.w),
                    _fmt(cfg.q),
                    str(cfg.interval),
                    _fmt(_sweep_value(cfg, cfg.protocol, n)),
                ]
            )
        )
    text = header + "".join(row + "\n" for row in rows)
    if cfg.out:
        _write_file(cfg.out, text)
    else:
        (sys.stdout if out is None else out).write(text)
    return 0


def cmd_figure2(
    p: float = 0.1,
    w: float = 0.01,
    q_list: tuple = (0.0, 0.001, 0.02),
    n_max: int = 200,
    out_path: str | None = None,
    out=None,
    threads: int = 1,
) -> int:
    """Desk-scale reproduction of the strategy-comparison figure.

    Emits one row per n with one column per curve: the analytic QEC
    Heisenberg scaling, the unitary-control protocol at each SPAM rate, the
    repeated-measurement protocol (interval 6), and the control-free
    constant-QFI baseline.  ``threads`` is accepted and ignored.
    """
    fam = channel_model.x_rotation_dephasing(p)
    labels = ["qec_analytic"] + [f"sql_q{q:g}" for q in q_list] + ["repeated_measurement", "no_control"]

    pole = BlochState(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def row_for(n: int):
        vals = [protocols.qec_analytic(p, n)]
        for q in q_list:
            vals.append(protocols.spam_fi(fam, n, w, q))
        vals.append(protocols.repeated_measurement(fam, n, 6).qfi_or_fi)
        vals.append(
            protocols.simulate_sequence(
                fam, protocols.ControlSequence.identity(), pole, n
            ).qfi_or_fi
        )
        return vals

    lines = [
        "# strategy comparison at p = %s, w = %s; one column per curve\n" % (_fmt(p), _fmt(w)),
        "# gnuplot: plot for [c=2:%d] 'figure2.csv' using 1:c with lines\n" % (len(labels) + 1),
        "n," + ",".join(labels) + "\n",
    ]
    for n in range(1, n_max + 1):
        lines.append(str(n) + "," + ",".join(_fmt(v) for v in row_for(n)) + "\n")
    text = "".join(lines)
    if out_path:
        _write_file(out_path, text)
    else:
        (sys.stdout if out is None else out).write(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _write_file(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(Exception):
    pass


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc
    return parse_config(text)


def _add_shared_flags(parser: argparse.ArgumentParser, subcommand: bool = False):
    # subparsers get SUPPRESS defaults so they never clobber values the main
    # parser already read from flags placed before the subcommand
    default = argparse.SUPPRESS if subcommand else None
    parser.add_argument("--config", default=default, help="path to a key-value config file")
    parser.add_argument("--out", default=default, help="output path (overrides the config's 'out')")
    parser.add_argument(
        "--seed", type=int, default=default, help="seed (overrides the config's 'seed')"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=default,
        help="accepted for compatibility and ignored: rows are computed in-line "
        f"(default: ${THREADS_ENV} or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Qubit channel estimation under restricted controls",
    )
    _add_shared_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared flags are accepted both before and after the subcommand
    for name in ("classify", "qfi", "bound", "sweep"):
        _add_shared_flags(sub.add_parser(name), subcommand=True)
    fig = sub.add_parser("figure2")
    _add_shared_flags(fig, subcommand=True)
    fig.add_argument("--p", type=float, default=0.1)
    fig.add_argument("--w", type=float, default=0.01)
    fig.add_argument("--q", type=float, action="append", default=None)
    fig.add_argument("--n-max", type=int, default=200)
    return parser


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(args.threads, 1)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = _thread_count(args)
    try:
        if args.command == "figure2":
            q_list = tuple(args.q) if args.q else (0.0, 0.001, 0.02)
            return cmd_figure2(
                p=args.p, w=args.w, q_list=q_list, n_max=args.n_max,
                out_path=args.out, threads=threads,
            )
        cfg = _load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "qfi":
            return cmd_qfi(cfg)
        if args.command == "bound":
            return cmd_bound(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, threads=threads)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"error:config:{exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _IoFailure as exc:
        print(f"error:io:{exc}", file=sys.stderr)
        return _EXIT_IO
    except (ValueError, fisher_info.ConvergenceError) as exc:
        print(f"error:domain:{exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
