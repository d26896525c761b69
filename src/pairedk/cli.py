"""Command-line interface: kernels, factorizations, operator application,
norms, commutator ranks, and the verification suite, all through JSON.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

from . import tolerances as tol
from .errors import MalformedConfig, PairedKError, UnknownProperty
from .factorization import inner_outer, wiener_hopf, winding_index
from .kernels import (
    NontrivialityResult,
    SymbolPair,
    kernel_oracle,
    member_S,
    member_Sigma,
    oracle_min_window,
    paired_kernel,
    toeplitz_kernel,
    transposed_kernel,
)
from .operators import (
    Commutator,
    Mult,
    Paired,
    Toeplitz,
    Transposed,
    Hankel,
    apply_exact,
    bandwidth,
    numerical_rank,
    operator_norm,
    truncate,
)
from .properties import RunConfig, registered_ids, run_suite
from .rational import RationalSymbol

CONFIG_ENV = "PAIREDK_CONFIG"
CONFIG_KEYS = {
    **dict.fromkeys(tol.SETTABLE, float),
    "oracle_N": int,
    "trials": int,
    "parallelism": int,
}


def load_config(path):
    """JSON config with exactly the documented keys; unknown keys rejected."""
    if not os.path.exists(path):
        raise MalformedConfig(f"config file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedConfig(f"unreadable config: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedConfig("config must be a JSON object")
    out = {}
    for key, value in data.items():
        if key not in CONFIG_KEYS:
            raise MalformedConfig(f"unknown config key: {key}")
        caster = CONFIG_KEYS[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedConfig(f"config key {key} must be a number")
        if value <= 0:
            raise MalformedConfig(f"config key {key} must be positive")
        out[key] = caster(value)
    return out


def _symbol_arg(text):
    """Parse a symbol argument: inline JSON or a path to a JSON file.
    An unreadable file, and JSON that does not describe a symbol, are usage
    errors."""
    if text is None:
        return None
    text = text.strip()
    try:
        if not text.startswith("{") and os.path.exists(text):
            with open(text) as fh:
                data = json.load(fh)
        else:
            data = json.loads(text)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise MalformedConfig(f"bad symbol JSON: {exc}") from exc
    try:
        return RationalSymbol.from_json(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise MalformedConfig(f"bad symbol JSON: {type(exc).__name__}: {exc}") from exc


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True, indent=2 if args.human else None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        print(text)


def _human_summary(payload):
    if "status" in payload:
        dim = payload.get("dimension")
        print(f"# kernel status={payload['status']} dimension={dim}", file=sys.stderr)
    for rep in payload.get("reports", []):
        ok = rep.get("passes") == rep.get("trials") and not rep.get("failures")
        print(
            f"# {rep.get('property')}: {rep.get('passes')}/{rep.get('trials')} "
            f"{'pass' if ok else 'FAIL'}",
            file=sys.stderr,
        )
    if "all_pass" in payload:
        verdict = "all properties passed" if payload["all_pass"] else "FAILURES present"
        print(f"# {verdict}", file=sys.stderr)


def _window(n: int, least: int) -> int:
    """The --N window, refused as a usage error below ``least``."""
    if n < least:
        raise MalformedConfig(f"--N {n} is below the smallest window {least} for this operator")
    return n


_OPERATORS = {
    "paired": (Paired, ("a", "b")),
    "transposed": (Transposed, ("a", "b")),
    "toeplitz": (Toeplitz, ("g",)),
    "hankel": (Hankel, ("g",)),
}


def _symbols(args, *names, usage=None):
    """The named symbol options, parsed; a missing one is a usage error,
    reported as ``usage`` where the command and its --type do not say it."""
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise MalformedConfig(usage or f"{args.command} --type {args.type} needs {' and '.join(missing)}")
    return [_symbol_arg(getattr(args, n)) for n in names]


def _build_operator(args):
    cls, names = _OPERATORS[args.type]
    return cls(*_symbols(args, *names))


def _cmd_kernel(args, cfg):
    kind = args.type
    if kind == "hankel":
        raise MalformedConfig("kernel needs --type paired, transposed or toeplitz")
    cls, names = _OPERATORS[kind]
    symbols = _symbols(args, *names)
    if kind == "toeplitz":
        payload = toeplitz_kernel(*symbols).to_json()
    else:
        pair = SymbolPair(*symbols)
        kb = paired_kernel(pair) if kind == "paired" else transposed_kernel(pair)
        res = NontrivialityResult.from_kernel(kb)
        payload = kb.to_json()
        checks = []
        if res.status is True:
            member = member_S if kind == "paired" else member_Sigma
            checks.append({"witness_verified": bool(member(res.witness, pair))})
            payload["witness"] = res.witness.to_json()
        payload["nontrivial"] = res.status
        payload["witness_checks"] = checks
    if args.N:
        node = cls(*symbols)
        payload["oracle"] = kernel_oracle(node, _window(args.N, oracle_min_window(node))).to_json()
    _emit(args, payload)
    if args.human:
        _human_summary(payload)
    return 0


def _cmd_apply(args, cfg):
    node = _build_operator(args)
    (f,) = _symbols(args, "f")
    image = apply_exact(node, f)
    _emit(args, {"image": image.to_json(), "is_zero": image.is_zero})
    return 0


def _cmd_factor(args, cfg):
    if args.wh:
        (g,) = _symbols(args, "g", usage="factor --wh needs --g")
        fac = wiener_hopf(g)
        payload = fac.to_json()
        payload["winding_index"] = winding_index(g)
    else:
        (f,) = _symbols(args, "f" if args.f else "g", usage="factor needs --f or --g")
        pair = inner_outer(f, args.side)
        payload = {
            "inner": pair.inner.to_json(),
            "outer": pair.outer.to_json(),
            "side": pair.side,
        }
    _emit(args, payload)
    return 0


def _cmd_norm(args, cfg):
    node = _build_operator(args)
    n = _window(args.N or cfg.get("oracle_N", RunConfig.oracle_N), max(bandwidth(node), 1))
    value = operator_norm(node, n)
    _emit(args, {"norm_lower_bound": value, "N": n})
    return 0


def _cmd_commutator(args, cfg):
    if args.type not in ("paired", "transposed"):
        raise MalformedConfig(
            f"commutator needs --type paired|transposed, not {args.type}: --g is the multiplier symbol"
        )
    base = _build_operator(args)
    (eta,) = _symbols(args, "g")
    node = Commutator(base, Mult(eta))
    n = _window(args.N or max(16, 2 * bandwidth(node)), max(bandwidth(node), 1))
    res = numerical_rank(truncate(node, n))
    payload = {
        "rank": res.rank,
        "gap": res.gap if res.gap != float("inf") else "inf",
        "indeterminate": res.indeterminate,
        "N": n,
    }
    if args.f:
        payload["image"] = apply_exact(node, _symbol_arg(args.f)).to_json()
    _emit(args, payload)
    return 0


def _cmd_verify(args, cfg):
    trials = args.trials or cfg.get("trials")
    if args.all:
        ids = registered_ids()
    elif args.property:
        ids = [args.property]
    else:
        raise MalformedConfig("verify needs --all or --property <id>")
    run_cfg = RunConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(RunConfig) if f.name in cfg})
    suite = run_suite(ids, trials, args.seed, run_cfg)
    payload = suite.to_json()
    _emit(args, payload)
    if args.human:
        _human_summary(payload)
    return 0 if suite.all_pass() else 1


def _cmd_report(args, cfg):
    if not args.f or not os.path.exists(args.f):
        raise MalformedConfig("report needs --f <stored report file>")
    with open(args.f) as fh:
        payload = json.load(fh)
    _emit(args, payload)
    if args.human and isinstance(payload, dict):
        _human_summary(payload)
    if isinstance(payload, dict) and payload.get("all_pass") is False:
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pairedk",
        description="Kernels and structure of multiplication-projection operators "
        "on the circle, with exact rational computation and a numerical oracle.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    for name in ("--a", "--b", "--g"):
        shared.add_argument(name, help="symbol JSON (inline or file path)")
    shared.add_argument("--f", help="function JSON (inline or file path)")
    shared.add_argument("--N", type=int, default=0)
    shared.add_argument("--tol", type=float, help="rank threshold (rank_tol), a positive number")
    shared.add_argument("--trials", type=int, default=0)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--config")
    shared.add_argument("--out")
    shared.add_argument("--human", action="store_true")
    shared.add_argument("--quiet", action="store_true")
    typed = argparse.ArgumentParser(add_help=False, parents=[shared])
    typed.add_argument("--type", choices=["paired", "transposed", "toeplitz", "hankel"], default="paired")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("kernel", parents=[typed], help="exact kernel basis with certificates")
    sub.add_parser("apply", parents=[typed], help="apply an operator exactly to a function")
    p_factor = sub.add_parser("factor", parents=[typed], help="Wiener-Hopf or inner-outer factorization")
    p_factor.add_argument("--wh", action="store_true")
    p_factor.add_argument("--side", choices=["plus", "minus"], default="plus")
    sub.add_parser(
        "norm",
        parents=[typed],
        help="lower bound for the norm: a singular value of the truncation at --N, normally the largest, to 4 eps",
    )
    sub.add_parser("commutator", parents=[typed], help="commutator with a multiplier: rank and action")
    p_verify = sub.add_parser("verify", parents=[shared], help="run the property suite")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--property", choices=registered_ids())
    sub.add_parser("report", parents=[shared], help="re-render a stored report")
    return parser


_COMMANDS = {
    "kernel": _cmd_kernel,
    "apply": _cmd_apply,
    "factor": _cmd_factor,
    "norm": _cmd_norm,
    "commutator": _cmd_commutator,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = {}
        cfg_path = args.config or os.environ.get(CONFIG_ENV)
        if args.config is not None or (cfg_path and os.path.exists(cfg_path)):
            cfg = load_config(cfg_path)
        knobs = {k: v for k, v in cfg.items() if k in tol.SETTABLE}
        if args.tol is not None:
            knobs["rank_tol"] = args.tol  # the flag wins over the file
        with contextlib.ExitStack() as stack:
            try:
                stack.enter_context(tol.configured(**knobs))
            except ValueError as exc:
                raise MalformedConfig(str(exc)) from exc  # from --tol or the config file
            return _COMMANDS[args.command](args, cfg)
    except MalformedConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownProperty as exc:
        print(f"error: unknown property {exc}", file=sys.stderr)
        return 2
    except PairedKError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
