"""Configuration-driven command line front end.

Subcommands: ``classify``, ``qfi``, ``bound``, ``sweep``, ``figure2``.
Configurations are flat key-value text files with dotted section prefixes
(``family.p = 0.1``).  Every key is declared once in ``_KEYS`` with its
reader, default and writer; :func:`parse_config` and :func:`serialize_config`
both walk that table.  Numbers must be finite.  CSV output uses '.' decimals
with 17 significant digits so downstream plots and regression baselines are
bit-stable, and goes to the ``--out`` file when one is set, else to stdout.

Exit codes: 0 ok, 2 malformed configuration, 3 I/O failure, 4 domain error
raised by the numerical modules.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, channel_model, fisher_info, protocols
from .channel_model import (
    DephasingFamily,
    classify,
    dephasing_channel,
    hnks_check,
    rgnks_check,
)
from .qubit_core import BlochState, PauliTransferMap, pauli_compose, pauli_decompose, ptm_from_kraus

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

MAX_N_VALUES = 10**6  # longest 'n = lo..hi' range, and largest n 'bound' runs
PROTOCOLS = ("sql", "spam", "repeated", "qec", "no_control")
_EXIT_CONFIG = 2
_EXIT_IO = 3
_EXIT_DOMAIN = 4


class ConfigError(ValueError):
    """Malformed configuration text (carries a line/field diagnostic)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; every field is set by the dotted config keys in ``_KEYS``."""

    family: DephasingFamily | None
    ptm: PauliTransferMap | None
    protocol: str | None
    w: float
    z0: float
    q: float
    interval: int
    variant: str
    n_values: tuple
    out: str | None


def _fmt(x) -> str:
    """A number, or the entries of a sequence separated by spaces, to 17 significant digits."""
    return format(float(x), ".17g") if np.isscalar(x) else " ".join(map(_fmt, x))


# ---------------------------------------------------------------------------
# The grammar: one declaration per key
# ---------------------------------------------------------------------------


def _numbers(count: int):
    """Reader of ``count`` finite numbers (a float for one, an array otherwise)."""

    def read(key: str, text: str):
        try:
            vals = [float(tok) for tok in text.split()]
        except ValueError:
            raise ConfigError(f"field {key!r}: not a number: {text!r}") from None
        # checked before any arithmetic, so no nan or inf reaches a result
        if len(vals) != count or not all(map(math.isfinite, vals)):
            raise ConfigError(f"field {key!r}: expected {count} finite number(s), got {text!r}")
        return vals[0] if count == 1 else np.array(vals)

    return read


def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"field {key!r}: not an integer: {text!r}") from None


def _choice(options: tuple):
    def read(key: str, text: str) -> str:
        if text not in options:
            raise ConfigError(f"{key} must be one of {options}, got {text!r}")
        return text

    return read


def _n_values(key: str, text: str) -> tuple:
    """``n = 1 10 100`` or the inclusive range ``n = lo..hi``; empty means no rows."""
    ends = text.split("..", 1) if ".." in text else None
    try:
        ints = [int(tok) for tok in (ends or text.split())]
    except ValueError:
        raise ConfigError(f"field {key!r}: expected integers or 'lo..hi', got {text!r}") from None
    if ends is None:
        return tuple(ints)
    if ints[1] < ints[0]:
        raise ConfigError(f"field {key!r}: range {text!r} is reversed")
    if ints[1] - ints[0] >= MAX_N_VALUES:
        raise ConfigError(f"field {key!r}: range {text!r} holds more than {MAX_N_VALUES} values")
    return tuple(range(ints[0], ints[1] + 1))


def _generator(c) -> np.ndarray:
    """``G = c_x X + c_y Y + c_z Z`` from the coefficient triple of a ``family.g*`` key.

    The Pauli coordinates ``Tr(G sigma_j) = 2 c_j`` that the numerical modules
    read must be finite as well; doubling and halving are then exact.
    """
    coords = [0.0] + [2.0 * x for x in np.ravel(c).tolist()]
    if not all(map(math.isfinite, coords)):
        raise ConfigError(f"Pauli coefficients {list(c)} exceed half the largest double")
    return pauli_compose(coords)


_REQUIRED = object()  # default of a key that must be present whenever its block is


class _Key(NamedTuple):
    """One config key: the :class:`ExperimentConfig` field it sets, its reader, writer and default."""

    name: str
    field: str
    read: Callable[[str, str], object]
    write: Callable[[object], str] = _fmt
    default: object = _REQUIRED


_ZERO3 = (0.0, 0.0, 0.0)
_KEYS = (
    _Key("family.p", "family", _numbers(1)),
    _Key("family.pdot", "family", _numbers(1), default=0.0),
    _Key("family.g0", "family", _numbers(3), default=_ZERO3),
    _Key("family.g1", "family", _numbers(3), default=_ZERO3),
    _Key("ptm.t", "ptm", _numbers(3), default=_ZERO3),
    *(_Key(f"ptm.row{i}", "ptm", _numbers(3)) for i in range(3)),
    _Key("protocol.kind", "protocol", _choice(PROTOCOLS), str, None),
    _Key("protocol.w", "w", _numbers(1), default=0.01),
    _Key("protocol.z0", "z0", _numbers(1), default=1.0),
    _Key("protocol.q", "q", _numbers(1), default=0.0),
    _Key("protocol.interval", "interval", _integer, str, 6),
    _Key("protocol.variant", "variant", _choice(protocols.SQL_VARIANTS), str, "g0x"),
    _Key("n", "n_values", _n_values, lambda ns: " ".join(map(str, ns)), ()),
    _Key("out", "out", lambda key, text: text, str, None),
)
# The keys of a field sit together.  A field spelled by several keys is a block,
# None unless one of them is present: (join the key values, split the field).
_BLOCKS = {
    "family": (
        lambda p, pdot, c0, c1: DephasingFamily(p, pdot, _generator(c0), _generator(c1)),
        lambda f: (f.p, f.pdot, *(pauli_decompose(g)[1:] / 2.0 for g in (f.g0, f.g1))),
    ),
    "ptm": (lambda t, *rows: PauliTransferMap(t, np.array(rows)), lambda m: (m.t, *m.T)),
}
_FIELDS = {name: tuple(keys) for name, keys in groupby(_KEYS, attrgetter("field"))}


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

    values = {}
    for name, keys in _FIELDS.items():
        if name in _BLOCKS and not any(k.name in fields for k in keys):
            values[name] = None
            continue
        parts = []
        for k in keys:
            if k.name not in fields and k.default is _REQUIRED:
                raise ConfigError(f"missing required field {k.name!r}")
            parts.append(k.read(k.name, fields.pop(k.name)) if k.name in fields else k.default)
        try:
            values[name] = _BLOCKS[name][0](*parts) if name in _BLOCKS else parts[0]
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if fields:
        raise ConfigError(f"unknown fields: {sorted(fields)}")
    return ExperimentConfig(**values)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; ``parse(serialize(parse(x))) == parse(x)``."""
    lines = []
    for name, keys in _FIELDS.items():
        value = getattr(cfg, name)
        if value is None or value == ():  # an absent block or key, or no n values
            continue
        parts = _BLOCKS[name][1](value) if name in _BLOCKS else (value,)
        lines += [f"{k.name} = {k.write(v)}" for k, v in zip(keys, parts)]
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
    lines = [f"class = {result.tag.value}", f"singular_values = {_fmt(result.singular_values)}"]
    if cfg.family is not None:
        hnks = hnks_check(dephasing_channel(cfg.family))
        lines.append(
            f"hnks = {'holds' if hnks.holds else 'violated'} residual = {_fmt(hnks.residual)}"
        )
        lines.append(f"rgnks = {'holds' if rgnks_check(cfg.family) else 'violated'}")
    elif result.tag is channel_model.ChannelKind.STRICTLY_CONTRACTIVE:
        # strictly contractive channels violate HNKS for every parametrization
        lines.append("hnks = violated (strictly contractive)")
    _emit("\n".join(lines) + "\n", cfg.out, out)
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
    _emit("quantity,value\n" + "\n".join(f"{k},{_fmt(v)}" for k, v in rows) + "\n", cfg.out, out)
    return 0


def _bound_csv(report: bounds.BoundReport) -> str:
    """Rows ``k, alpha_term, cross_term, gamma_norm, running_total``.

    The cross term of step ``n`` does not exist and is written as 0.
    """
    rows = ["k,alpha_term,cross_term,gamma_norm,running_total\n"]
    running = 0.0
    for k in range(report.n):
        cross = report.cross_terms[k] if k < len(report.cross_terms) else 0.0
        running += report.alpha_terms[k] + cross
        rows.append(
            "%d,%.17g,%.17g,%.17g,%.17g\n"
            % (k + 1, report.alpha_terms[k], cross, report.gamma_norms[k], running)
        )
    return "".join(rows)


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
    _emit(header + extra + _bound_csv(report), cfg.out, out)
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


def cmd_sweep(cfg: ExperimentConfig, out=None) -> int:
    """One CSV row per (protocol, n), computed in order."""
    if cfg.family is None:
        raise ConfigError("sweep needs a family.* block")
    if cfg.protocol is None:
        raise ConfigError("sweep needs protocol.kind")
    fixed = ",".join([_fmt(cfg.family.p), _fmt(cfg.w), _fmt(cfg.q), str(cfg.interval)])
    rows = [
        f"{cfg.protocol},{n},{fixed},{_fmt(_sweep_value(cfg, cfg.protocol, n))}\n"
        for n in cfg.n_values
    ]
    _emit("protocol,n,p,w,q,interval,value\n" + "".join(rows), cfg.out, out)
    return 0


def cmd_figure2(
    p: float = 0.1,
    w: float = 0.01,
    q_list: tuple = (0.0, 0.001, 0.02),
    n_max: int = 200,
    out_path: str | None = None,
    out=None,
) -> int:
    """Desk-scale reproduction of the strategy-comparison figure.

    Emits one row per n with one column per curve: the analytic QEC
    Heisenberg scaling, the unitary-control protocol at each SPAM rate, the
    repeated-measurement protocol (interval 6), and the control-free
    constant-QFI baseline.
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
    _emit("".join(lines), out_path, out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _IoFailure(Exception):
    pass


def _emit(text: str, path: str | None, out=None):
    """Write ``text`` to the file ``path`` when one is set, else to ``out`` (stdout by default)."""
    if not path:
        (sys.stdout if out is None else out).write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc
    return parse_config(text)


_COMMANDS = {"classify": cmd_classify, "qfi": cmd_qfi, "bound": cmd_bound, "sweep": cmd_sweep}


def _add_shared_flags(parser: argparse.ArgumentParser, subcommand: bool = False):
    # subparsers get SUPPRESS defaults so they never clobber values the main
    # parser already read from flags placed before the subcommand
    default = argparse.SUPPRESS if subcommand else None
    parser.add_argument("--config", default=default, help="path to a key-value config file")
    parser.add_argument(
        "--out", default=default, help="output file (overrides the config's 'out'); else stdout"
    )
    parser.add_argument(
        "--threads", type=int, default=default, help="ignored: rows are computed in-line, in order"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Qubit channel estimation under restricted controls",
    )
    _add_shared_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared flags are accepted both before and after the subcommand
    for name in _COMMANDS:
        _add_shared_flags(sub.add_parser(name), subcommand=True)
    fig = sub.add_parser("figure2")
    _add_shared_flags(fig, subcommand=True)
    fig.add_argument("--p", type=float, default=0.1)
    fig.add_argument("--w", type=float, default=0.01)
    fig.add_argument("--q", type=float, action="append", default=None)
    fig.add_argument("--n-max", type=int, default=200)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow or invalid operation would carry inf or nan into a row: fail instead
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if args.command == "figure2":
                q_list = tuple(args.q) if args.q else (0.0, 0.001, 0.02)
                return cmd_figure2(p=args.p, w=args.w, q_list=q_list, n_max=args.n_max, out_path=args.out)
            cfg = _load_config(args.config)
            if args.out is not None:
                cfg = replace(cfg, out=args.out)
            return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error:config:{exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _IoFailure as exc:
        print(f"error:io:{exc}", file=sys.stderr)
        return _EXIT_IO
    except (ValueError, FloatingPointError, fisher_info.ConvergenceError) as exc:
        print(f"error:domain:{exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
