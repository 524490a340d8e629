"""Seeded batch experiment runner.

Each subcommand reproduces one family of numbers: the projector-strategy
attack values, the random-basis measure-and-share bound, the two-party
oracle-guessing counterexample, the Erlang max-over-sum constant, seesaw
lower bounds, the monogamy-game reduction check, and an exploratory scan
over rank splits.  Runs are reproducible: identical configuration and
seed produce byte-identical reports.

Report rows always carry ``value``, ``reference``, ``tolerance`` and
``pass`` columns (CSV by default, RFC 4180, floats with 12 significant
digits; ``--json`` switches to JSON).  A row's ``pass`` is computed from
the ``reference`` and ``tolerance`` it prints, by one of three gates: at
least (``value >= reference - tolerance``), within (``|value -
reference| <= tolerance``) or below (``value < tolerance``, reference
0); the conjecture scan's rows have no reference and no verdict.  Exit
codes: 0 all rows pass, 1 usage or configuration error, 2 invariant or
acceptance failure.  An ``--out`` path in a missing directory, or a
directory, is a configuration error found before the run starts; the
report is written only once the run has succeeded.  ``python -m
uncloneq`` runs :func:`main`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Any, Callable, Sequence

import numpy as np

from . import attacks, meg, o2h, optimize, stats
from .config import check_entries
from .errors import UncloneqError
from .linalg import KrausChannel, make_rng
from .schemes import (
    QecmScheme,
    RankDistribution,
    bb84_scheme,
    check_correctness,
    haar_scheme,
    mu_statistic,
    scheme_from_descriptor,
    uniform_haar_scheme,
)
from .version import __version__

_EXACT_SLACK = 1e-9
_SEESAW_SLACK = 1e-6
_MEG_GAP_TOL = 1e-8
# the max-over-sum constant floored to the four decimals the paper quotes
_ERLANG_C = math.floor(stats.ERLANG_MAX_CONSTANT * 1e4) / 1e4


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for invariant failures; usage errors exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    if x is None:
        return ""
    return str(x)


def _write_report(rows: list[dict], out: str | None, as_json: bool) -> None:
    if as_json:
        text = json.dumps(rows, indent=2, default=_fmt) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[k]) for k in header])
        text = buf.getvalue()
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    # refused before the run: a path in a directory that does not exist, or a directory
    if os.path.isdir(out):
        raise ValueError(f"cannot write --out {out}: it is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write --out {out}: no directory {parent}")


def _parse_scheme(text: str) -> QecmScheme:
    """Scheme from a JSON descriptor or a shorthand like ``bb84:1``.

    A descriptor that cannot be read (a missing key, a value of the wrong
    type) or a scheme that cannot be built (``bb84:0``, ``haar:0-2``) is
    bad input, not an invariant failure, so its error becomes a
    ``ValueError`` that names ``--scheme``.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    args = [a for a in rest.split(",") if a]
    try:
        if text.startswith("{"):
            return scheme_from_descriptor(json.loads(text))
        if kind == "bb84" and len(args) == 1:
            return scheme_from_descriptor({"type": "bb84", "n": int(args[0])})
        if kind == "uniform_haar" and len(args) == 2:
            return scheme_from_descriptor(
                {"type": "uniform_haar", "M": int(args[0]), "L": int(args[1])}
            )
        if kind == "haar" and len(args) == 1:
            ranks = [int(x) for x in args[0].split("-")]
            return scheme_from_descriptor(
                {
                    "type": "haar",
                    "M": len(ranks),
                    "d": sum(ranks),
                    "tdist": [[ranks, 1.0]],
                }
            )
    except KeyError as exc:
        raise ValueError(f"--scheme {text!r}: missing descriptor key {exc}") from exc
    except (TypeError, ValueError, OverflowError, UncloneqError) as exc:
        raise ValueError(f"--scheme {text!r}: {exc}") from exc
    raise ValueError(
        f"--scheme {text!r} is not recognized; use bb84:N, uniform_haar:M,L, "
        "haar:T0-T1-..., or a JSON descriptor"
    )


def _check_message_count(big_m: int, d: int, source: str) -> None:
    # M messages need at least M ciphertext dimensions
    if not 1 <= big_m <= d:
        raise ValueError(f"{source}: need 1 <= M <= d, got M={big_m}, d={d}")


def _stderr_trials(opts: dict) -> int:
    # a reported stderr, and a gate on it (_stderr_tolerance), need two samples
    trials = opts["trials"]
    if trials < 2:
        raise ValueError(f"--trials must be at least 2 for a standard-error gate, got {trials}")
    return trials


def _stderr_tolerance(stderr: float) -> float:
    # a Monte Carlo row passes within three standard errors of its reference
    return 3.0 * stderr


# ---------------------------------------------------------------------------
# report gates: each returns a row's reference, tolerance and pass columns
# ---------------------------------------------------------------------------


def _at_least(value: float, reference: float, tolerance: float) -> dict:
    """A lower bound: pass when ``value >= reference - tolerance``."""
    return {"reference": reference, "tolerance": tolerance, "pass": value >= reference - tolerance}


def _within(value: float, reference: float, tolerance: float) -> dict:
    """An equality: pass when ``abs(value - reference) <= tolerance``."""
    passed = abs(value - reference) <= tolerance
    return {"reference": reference, "tolerance": tolerance, "pass": passed}


def _below(value: float, tolerance: float) -> dict:
    """A quantity that should vanish: pass when ``value < tolerance``, reference 0."""
    return {"reference": 0.0, "tolerance": tolerance, "pass": value < tolerance}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_lemma1(opts: dict) -> list[dict]:
    scheme = _parse_scheme(opts["scheme"])
    rng = make_rng(opts["seed"])
    m0, alpha, trials = opts["m0"], opts["alpha"], opts["trials"]
    big_m = scheme.message_count
    if big_m < 2 or not 0 <= m0 < big_m:
        raise ValueError(
            f"lemma1 needs a --scheme with M >= 2 messages and 0 <= --m0 < M, "
            f"got --scheme {opts['scheme']!r} (M={big_m}) and --m0 {m0}"
        )
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if not 0 <= alpha <= 1:
        raise ValueError(f"--alpha must lie in [0, 1], got {alpha}")
    _check_channel(scheme.cipher_dim, big_m, "cloner")
    if scheme.enumerate_keys is not None:
        keys = scheme.enumerate_keys()
    else:
        keys = scheme.sample_keys(rng, trials)
    atk, m1, mu = attacks.ind_attack_build(scheme, m0, alpha, keys)
    value = attacks.pwin_ind_eval(scheme, m0, m1, atk, keys)
    bound = 0.5 + mu / 16.0
    reference = attacks.projector_strategy_closed_form(alpha, mu)
    return [
        {
            "scheme": opts["scheme"],
            "m0": m0,
            "alpha": alpha,
            "mu": mu,
            "value": value,
            "bound": bound,
            **_at_least(value, reference, _EXACT_SLACK),
        }
    ]


def run_theorem2(opts: dict) -> list[dict]:
    trials = _stderr_trials(opts)
    cases = []
    for case in opts["cases"].split(";"):
        m_str, _, d_str = case.partition("x")
        try:
            big_m, d = int(m_str), int(d_str)
        except ValueError:
            raise ValueError(f"--cases item {case!r} is not of the form MxD") from None
        _check_message_count(big_m, d, f"--cases item {case!r}")
        if d % big_m:
            raise ValueError(f"--cases item {case!r}: d must be a multiple of M")
        check_entries(d * d, f"--cases item {case!r}: one {d} x {d} key")
        cases.append((big_m, d))
    rows = []
    for i, (big_m, d) in enumerate(cases):
        scheme = uniform_haar_scheme(big_m, d // big_m)
        mean, stderr = attacks.random_basis_attack_estimate(
            scheme, trials, make_rng(opts["seed"], stream=i)
        )
        reference = _ERLANG_C / 2 * (math.log2(big_m) - 1.0) / d
        floor = 1.0 / big_m
        tolerance = _stderr_tolerance(stderr)
        row = {
            "M": big_m,
            "d": d,
            "trials": trials,
            "value": mean,
            "stderr": stderr,
            "floor": floor,
            **_at_least(mean, reference, tolerance),
        }
        # the constant guess 1/M is a second lower bound, gated with the same tolerance
        row["pass"] = row["pass"] and _at_least(mean, floor, tolerance)["pass"]
        rows.append(row)
    return rows


def run_o2h(opts: dict) -> list[dict]:
    success = o2h.simo2h_success()
    extraction = o2h.extraction_probability()
    rhs = o2h.simo2h_rhs(1, 1, 1, extraction)
    return [
        {"quantity": "success", "value": success, **_within(success, 9.0 / 16.0, 1e-9)},
        {"quantity": "extraction", "value": extraction, **_within(extraction, 0.0, 1e-12)},
        {"quantity": "rhs", "value": rhs, **_within(rhs, 4.5, 0.0)},
    ]


def run_erlang(opts: dict) -> list[dict]:
    trials = _stderr_trials(opts)
    ns = []
    for n_str in opts["ns"].split(","):
        try:
            n = int(n_str)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"--ns {opts['ns']!r}: item {n_str!r} is not a positive integer")
        check_entries(n, f"--ns item {n_str!r}: one sample row")
        ns.append(n)
    rows = []
    for i, n in enumerate(ns):
        rng = make_rng(opts["seed"], stream=i)
        mean, stderr = stats.max_over_sum_estimate([1] * n, trials, rng)
        reference = _ERLANG_C * math.log2(n) / n if n > 1 else 1.0
        rows.append(
            {
                "n": n,
                "trials": trials,
                "value": mean,
                "stderr": stderr,
                **_at_least(mean, reference, _stderr_tolerance(stderr)),
            }
        )
    return rows


# the channel names seesaw --channel takes, and those meg --attack takes
_CHANNELS = ("cloner", "measure_share", "measure_share:breidbart")
_MEG_ATTACKS = ("cloner", "measure_share")


def _has_attack(name: str, big_m: int) -> bool:
    # every channel but the cloner beyond two messages has an attack to warm-start from
    return name != "cloner" or big_m == 2


def _check_channel(d: int, big_m: int, name: str, restarts: int | None = None) -> None:
    """Refuse a channel name, or a size that cannot fit in memory, before anything is built.

    An unknown name, the qubit Breidbart basis at ``d != 2``, Kraus factors
    above ``config.ENTRIES_CAP`` and, given a seesaw's ``restarts``, a
    key's support blocks or lockstep rows above the cap or a restart count
    below 1 (:func:`optimize.seesaw_key_entries`) raise ``ValueError``,
    naming the channel and ``d``.
    """
    if name not in _CHANNELS:
        raise ValueError(f"--channel {name!r} is not a known channel")
    if name.endswith(":breidbart") and d != 2:
        raise ValueError(
            f"--channel {name!r} measures in the breidbart basis, a qubit "
            f"basis, but the scheme has d = {d}"
        )
    cloner = name == "cloner"
    # each receiver's dimension, the output rows the channel reaches, and the shape of its
    # left Kraus factors (attacks.superposition_cloner, attacks.measure_share_attack)
    side, support = (d + 1, 2 * d) if cloner else (d, d)
    n, rank = (1, d) if cloner else (d, 1)
    where = f"the {name} channel at d = {d}"
    try:
        check_entries(n * side * side * rank, f"its Kraus factors ({n} x {side}^2 x {rank})")
        if restarts is not None:
            where += f" with --restarts {restarts}"
            optimize.seesaw_key_entries(big_m, side, support, restarts, _has_attack(name, big_m))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _channel(scheme: QecmScheme, name: str) -> tuple[KrausChannel, attacks.CloningAttack | None]:
    """The channel of a name :func:`_check_channel` passed, and the attack built on it.

    The projector cloning attack for the two-message cloner, and the
    maximum-likelihood measure-and-share attack in the standard or the
    Breidbart basis; the bare cloner beyond two messages has no attack.
    """
    d = scheme.cipher_dim
    if not _has_attack(name, scheme.message_count):
        return attacks.superposition_cloner(d), None
    if name == "cloner":
        atk = attacks.projector_cloning_attack(scheme)
    else:
        breidbart = name.endswith(":breidbart")
        basis = attacks.breidbart_basis() if breidbart else np.eye(d, dtype=complex)
        atk = attacks.measure_share_ml_attack(scheme, basis)
    return atk.channel, atk


def run_seesaw(opts: dict) -> list[dict]:
    trials, restarts = _stderr_trials(opts), opts["restarts"]
    scheme = _parse_scheme(opts["scheme"])
    name = opts["channel"]
    _check_channel(scheme.cipher_dim, scheme.message_count, name, restarts)
    ch, atk = _channel(scheme, name)
    keys = scheme.sample_keys(make_rng(opts["seed"]), trials)
    warm = None if atk is None else atk.bob_effects
    mean, stderr = optimize.pwin_unif_seesaw(
        scheme, ch, keys, make_rng(opts["seed"], stream=1), restarts, warm_start=warm
    )
    # what the warm start is known to reach: the constant guess without one, the projector
    # strategy's 1/2 + mu/16, and the decoding's own value
    if atk is None:
        reference = 1.0 / scheme.message_count
    elif name == "cloner":
        reference = 0.5 + mu_statistic(scheme, keys) / 16.0
    else:
        reference = attacks.pwin_unif_eval(scheme, atk, keys)
    return [
        {
            "scheme": opts["scheme"],
            "channel": name,
            "key_samples": len(keys),
            "value": mean,
            "stderr": stderr,
            **_at_least(mean, reference, _SEESAW_SLACK + _stderr_tolerance(stderr)),
        }
    ]


def run_meg(opts: dict) -> list[dict]:
    scheme = _parse_scheme(opts["scheme"])
    name, trials = opts["attack"], opts["trials"]
    big_m, d = scheme.message_count, scheme.cipher_dim
    if name not in _MEG_ATTACKS:
        raise ValueError(f"--attack {name!r} is not a known attack")
    if not _has_attack(name, big_m):
        raise ValueError(
            f"--attack cloner guesses a binary message; --scheme {opts['scheme']!r} has {big_m}"
        )
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    # the Choi factor and each message's kernel terms are no larger than the Kraus factors
    _check_channel(d, big_m, name)
    # the game holds every key's ciphertexts, and Alice's effects, as one stack
    check_entries(
        trials * big_m * d * d,
        f"--trials {trials} at d = {d}: the ciphertext stack ({big_m} x {d}^2 per key)",
    )
    keys = scheme.sample_keys(make_rng(opts["seed"]), trials)
    _, atk = _channel(scheme, name)
    lhs, rhs, gap = meg.verify_reduction(scheme, atk, keys)
    return [
        {
            "scheme": opts["scheme"],
            "attack": name,
            "key_samples": len(keys),
            "lhs": lhs,
            "rhs": rhs,
            "value": gap,
            **_below(gap, _MEG_GAP_TOL),
        }
    ]


def _partitions(total: int, parts: int, cap: int | None = None) -> list[tuple[int, ...]]:
    # nonincreasing positive compositions; order is irrelevant by symmetry
    if parts == 1:
        return [(total,)] if (cap is None or total <= cap) else []
    out = []
    hi = total - parts + 1 if cap is None else min(cap, total - parts + 1)
    for first in range(hi, 0, -1):
        for rest in _partitions(total - first, parts - 1, cap=first):
            out.append((first,) + rest)
    return out


def _partition_count(total: int, parts: int) -> int:
    # len(_partitions(total, parts)) from p(n, k) = p(n - 1, k - 1) + p(n - k, k), in O(n k)
    counts = [[0] * (parts + 1) for _ in range(total + 1)]
    counts[0][0] = 1
    for n in range(1, total + 1):
        for k in range(1, min(n, parts) + 1):
            counts[n][k] = counts[n - 1][k - 1] + counts[n - k][k]
    return counts[total][parts]


def run_conjecture_scan(opts: dict) -> list[dict]:
    trials, restarts = _stderr_trials(opts), opts["restarts"]
    big_m, d = opts["M"], opts["d"]
    _check_message_count(big_m, d, f"--M {big_m} and --d {d}")
    # refuses d >= 256 before the splits are counted in O(d M)
    _check_channel(d, big_m, "cloner", restarts)
    count = _partition_count(d, big_m)
    check_entries(count * big_m, f"--M {big_m} and --d {d}: a list of {count} rank splits")
    # the cloner and its warm start depend on M and d only, so one split's scheme
    # sets up every split
    first = RankDistribution.deterministic((d - big_m + 1,) + (1,) * (big_m - 1))
    ch, atk = _channel(haar_scheme(big_m, d, first), "cloner")
    warm = None if atk is None else atk.bob_effects
    rng = make_rng(opts["seed"])
    rows = []
    for i, t in enumerate(_partitions(d, big_m)):
        scheme = haar_scheme(big_m, d, RankDistribution.deterministic(t))
        keys = scheme.sample_keys(rng, trials)
        mean, stderr = optimize.pwin_unif_seesaw(
            scheme, ch, keys, make_rng(opts["seed"], stream=i + 1), restarts, warm_start=warm
        )
        rows.append(
            {
                "M": big_m,
                "d": d,
                "t": "-".join(str(x) for x in t),
                "value": mean,
                "stderr": stderr,
                "reference": None,
                "tolerance": None,
                "pass": None,
            }
        )
    return rows


def run_selftest(opts: dict) -> list[dict]:
    rows = []
    # the paper's correctness condition: the worst decryption failure over the keys
    scheme = bb84_scheme(1)
    keys = scheme.enumerate_keys()
    haar = _parse_scheme("haar:2-1-1")
    for name, e, e_keys, tolerance in (
        ("bb84:1", scheme, keys, 1e-12),
        ("haar:2-1-1", haar, haar.sample_keys(make_rng(161803), 8), 1e-9),
    ):
        failure = check_correctness(e, e_keys)
        rows.append(
            {"check": f"correctness_{name}", "value": failure, **_within(failure, 0.0, tolerance)}
        )

    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    val = attacks.projector_strategy_value(zero, one, 0.25)
    rows.append(
        {"check": "projector_strategy_pure_pair", "value": val, **_within(val, 9.0 / 16.0, 1e-9)}
    )

    atk = attacks.measure_share_ml_attack(scheme, attacks.breidbart_basis())
    val = attacks.pwin_unif_eval(scheme, atk, keys)
    ref = 0.5 + 0.5 / math.sqrt(2.0)
    rows.append({"check": "bb84_breidbart_attack", "value": val, **_within(val, ref, 1e-9)})

    for row in run_o2h(opts):
        renamed = {"check": f"o2h_{row['quantity']}"}
        renamed.update((k, v) for k, v in row.items() if k != "quantity")
        rows.append(renamed)

    mean, stderr = stats.max_over_sum_estimate([1, 1], 20000, make_rng(271828))
    rows.append({"check": "erlang_pair_ratio", "value": mean, **_within(mean, 0.75, 0.01)})

    _, _, gap = meg.verify_reduction(scheme, atk, keys)
    rows.append({"check": "meg_reduction_gap", "value": gap, **_below(gap, _MEG_GAP_TOL)})

    return rows


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

# Each subcommand's runner and its options with their defaults; an option's
# type is the type of its default.  A subcommand with ``trials`` samples at
# random, so it also takes ``--seed`` and requires it.
_SUBCOMMANDS: dict[str, tuple[Callable[[dict], list[dict]], dict[str, Any]]] = {
    "lemma1": (run_lemma1, {"scheme": "bb84:1", "m0": 0, "alpha": 0.25, "trials": 50}),
    "theorem2": (run_theorem2, {"cases": "4x4;8x8;16x16", "trials": 20000}),
    "o2h": (run_o2h, {}),
    "erlang": (run_erlang, {"ns": "2,4,64,1024", "trials": 100000}),
    "seesaw": (
        run_seesaw,
        {"scheme": "bb84:1", "channel": "cloner", "trials": 4, "restarts": 2},
    ),
    "meg": (run_meg, {"scheme": "bb84:1", "attack": "measure_share", "trials": 16}),
    "conjecture-scan": (run_conjecture_scan, {"M": 2, "d": 4, "trials": 3, "restarts": 2}),
    "selftest": (run_selftest, {}),
}

_HELP = {
    "seed": "RNG seed (required)",
    "trials": "trial / key-sample count",
    "scheme": "scheme, e.g. bb84:1 or uniform_haar:2,2",
    "m0": "fixed message for indistinguishability runs",
    "alpha": "projector mixing weight",
    "cases": "semicolon-separated MxD cases, e.g. 4x4;16x16",
    "ns": "comma-separated block counts for the Erlang scan",
    "channel": " | ".join(_CHANNELS),
    "attack": " | ".join(_MEG_ATTACKS),
    "restarts": "seesaw restarts",
    "M": "message count for the conjecture scan",
    "d": "ciphertext dimension for the conjecture scan",
}


def _option_types(command: str) -> dict[str, type]:
    defaults = _SUBCOMMANDS[command][1]
    types = {name: type(default) for name, default in defaults.items()}
    if "trials" in types:
        types["seed"] = int
    return types


@functools.cache
def _build_parser() -> _Parser:
    # built once per process and shared, unmodified, by every main() call in it
    parser = _Parser(prog="uncloneq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, description=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        for option, kind in _option_types(name).items():
            p.add_argument(f"--{option}", type=kind, help=_HELP[option])
    return parser


def _config_value(key: str, val: Any, kind: type) -> Any:
    # a value is read as its flag's text would be, so 2.7 is no int; JSON null
    # and booleans are no option's value (str(None) would pass)
    if val is not None and not isinstance(val, bool):
        try:
            return kind(str(val))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"config key {key!r} takes a {kind.__name__} value, got {val!r}")


def _merge_options(args: argparse.Namespace) -> dict:
    """Defaults, then ``--config`` entries, then flags, each of its option's type."""
    types = _option_types(args.command)
    opts = dict(_SUBCOMMANDS[args.command][1])
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r} for the {args.command} subcommand")
            opts[key] = _config_value(key, val, types[key])
    for key in types:
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    if "seed" in types and opts.get("seed") is None:
        raise ValueError(f"--seed is required for the {args.command} subcommand")
    if opts.get("seed", 0) < 0:
        raise ValueError(f"--seed must be non-negative, got {opts['seed']}")
    return opts


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
        if args.out:
            _check_out(args.out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"uncloneq: config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = _SUBCOMMANDS[args.command][0](opts)
    except (ValueError, KeyError) as exc:
        print(f"uncloneq: config error: {exc}", file=sys.stderr)
        return 1
    except UncloneqError as exc:
        print(f"uncloneq: invariant violation: {exc}", file=sys.stderr)
        return 2
    try:
        _write_report(rows, args.out, args.json)
    except OSError as exc:
        print(f"uncloneq: config error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 1
    failed = any(row.get("pass") is False for row in rows)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
