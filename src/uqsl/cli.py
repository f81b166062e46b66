"""Command-line front end.

Three subcommands: check-finite runs the q-difference relation suites,
check-affine runs the loop-algebra suites, apply evaluates one generator
word on one flag monomial.  Reports are UTF-8 JSON with stable ordering;
exit status is 0 when everything passed, 1 on any relation failure, 2 on
configuration or parse errors and on a check-finite --sabotage that changes
no generator on the checked basis (the negative control could not fail).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction

from . import affine, finite
from .affine import AffineContext, affine_config
from .finite import (
    BRACKET_NMAX,
    SABOTAGE_IDS,
    FiniteRealization,
    sabotage_changes_nothing,
)
from .grassmann import SuperPoly
from .oscillators import enumerate_basis
from .report import SuiteReport, run_family
from .ring import LinForm, RingError, affine_symbols

F_NAMES = ("f11", "f12", "f13", "f21", "f22", "f23", "f24")


def parse_scalar(table, text: str):
    """Monomial override expressions: '*'-joined factors, each an integer,
    a rational, a symbol, or symbol^int."""
    out = table.one()
    for raw in text.split("*"):
        factor = raw.strip()
        if not factor:
            raise ValueError(f"empty factor in {text!r}")
        base, caret, pow_s = factor.partition("^")
        base = base.strip()
        try:
            exp = int(pow_s) if caret else 1
        except ValueError:
            raise ValueError(f"exponent of {factor!r} is not an integer in {text!r}") from None
        try:
            coeff = Fraction(base) ** exp
        except ValueError:
            coeff = None
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {text!r}") from None
        if coeff is not None:
            out = out * table.rational(coeff)
        elif base == "q":
            out = out * table.qpow(LinForm(exp))
        elif base in table.symbols:
            out = out * table.monomial({base: exp})
        else:
            raise ValueError(f"unknown symbol {base!r} in {text!r}")
    return out


def _parse_overrides(pairs) -> dict:
    spec = {}
    for item in pairs or ():
        name, eq, text = item.partition("=")
        if not eq or name not in F_NAMES:
            raise ValueError(f"override must be fXY=<expr>, got {item!r}")
        spec[name] = text
    return spec


def _override_elems(table, spec: dict) -> dict:
    return {name: parse_scalar(table, text) for name, text in spec.items()}


@functools.lru_cache(maxsize=1)
def _affine_setup(k, seed, spec_items, E_cut, radius, norm) -> dict:
    """One context and basis per process, shared by the families it runs."""
    overrides = _override_elems(affine_symbols(k), dict(spec_items)) or None
    return {"ctx": AffineContext(k=k, f_overrides=overrides, seed=seed),
            "basis": enumerate_basis(E_cut, radius, norm)}


# Per suite: its families by name, and the function that turns a run's setup
# tuple into the options each process builds once (none for the finite suite:
# dict() is {}).
SUITES = {
    "affine": (affine.FAMILIES, _affine_setup),
    "finite": (finite.FAMILIES, dict),
}


def _task(args):
    """One family of one suite, looked up by name, and its wall time."""
    suite, name, setup, opts = args
    families, build = SUITES[suite]
    t0 = time.monotonic()
    out = run_family(families[name], {**build(*setup), **opts})
    return out, time.monotonic() - t0


def _run_suite(suite: str, setup: tuple, opts: dict, jobs: int, want_timings: bool):
    """Every family of a suite in a fixed order, in this process or in a pool
    of at most `jobs` workers, never more than there are families; results
    and timings merge deterministically."""
    names = tuple(SUITES[suite][0])
    jobs = min(jobs, len(names))
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()) as pool:
        outs = list((pool.map if pool else map)(
            _task, [(suite, name, setup, opts) for name in names]))
    results = [r for chunk, _ in outs for r in chunk]
    if not want_timings:
        return results, None
    timings = {name: round(dt, 3) for name, (_, dt) in zip(names, outs)}
    timings["total_seconds"] = round(sum(timings.values()), 3)
    return results, timings


def _emit(report: SuiteReport, path) -> int:
    if path:
        report.write(path)
        s = report.summary()
        print(f"{report.suite}: {s['pass']} pass, {s['fail']} fail, "
              f"{s['not-applicable']} not-applicable -> {path}")
    else:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True,
                         ensure_ascii=False))
    return 1 if report.failed else 0


def _cmd_check_finite(args) -> int:
    cfg = {
        "M": args.M, "N": args.N, "variant": args.variant,
        "max_degree": args.max_degree, "sabotage": args.sabotage,
        "bracket_nmax": BRACKET_NMAX,
    }
    if args.M + args.N < 2:
        raise ValueError("need M + N >= 2")
    if args.max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    if args.sabotage is not None and args.sabotage not in SABOTAGE_IDS:
        raise ValueError(f"unknown sabotage id {args.sabotage!r}")
    opts = {"M": args.M, "N": args.N, "variant": args.variant,
            "D": args.max_degree, "seed": args.seed, "sabotage": args.sabotage}
    results, timings = _run_suite("finite", (), opts, args.jobs, args.timings)
    report = SuiteReport("finite", cfg, args.seed, results, timings)
    # a failed relation already shows the sabotage changed something
    if (args.sabotage is not None and not report.failed
            and sabotage_changes_nothing(args.M, args.N, args.variant,
                                         args.max_degree, args.sabotage)):
        raise ValueError(
            f"sabotage {args.sabotage!r} changes nothing on shape "
            f"({args.M}|{args.N}): every generator acts on the flag monomials "
            f"of degree <= {args.max_degree} as without it, so the negative "
            "control has nothing to detect")
    return _emit(report, args.report)


def _cmd_check_affine(args) -> int:
    for opt in ("energy_cut", "mode_window", "psi_nmax", "momentum_radius"):
        if getattr(args, opt) < 0:
            raise ValueError(f"--{opt.replace('_', '-')} must be >= 0")
    spec = _parse_overrides(args.override)
    _override_elems(affine_symbols(args.k), spec)  # validates the grammar
    cfg = affine_config(args.energy_cut, args.mode_window, args.k,
                        args.momentum_radius, args.momentum_norm,
                        args.psi_nmax, spec)
    setup = (args.k, args.seed, tuple(spec.items()), args.energy_cut,
             args.momentum_radius, args.momentum_norm)
    opts = {"window": args.mode_window, "psi_nmax": args.psi_nmax}
    try:
        results, timings = _run_suite("affine", setup, opts, args.jobs, args.timings)
    finally:
        _affine_setup.cache_clear()  # the context and its caches end with the run
    report = SuiteReport("affine", cfg, args.seed, results, timings)
    return _emit(report, args.report)


_TOKEN = re.compile(r"^([etf])(\d+)(\^-1)?$")


def _word_map(real: FiniteRealization, variant: str, tok: str):
    m = _TOKEN.match(tok)
    if m is None or (m.group(3) and m.group(1) != "t"):
        raise ValueError(f"bad generator token {tok!r}")
    kind, idx = m.group(1), int(m.group(2))
    if not 1 <= idx <= real.root.rank:
        raise ValueError(f"index out of range in {tok!r}")
    if kind == "e":
        return real.build_e(idx, variant)
    if kind == "f":
        return real.build_f(idx, variant)
    return real.build_t(idx, -1 if m.group(3) else 1)


def _parse_words(expr: str) -> list:
    """Split 'e1 f1 - f1 e1' into (sign, tokens) words."""
    words, cur, sign = [], [], 1
    for tok in expr.split():
        if tok in ("+", "-"):
            if cur:
                words.append((sign, cur))
                cur = []
            elif words:
                raise ValueError(f"empty word in expression {expr!r}")
            sign = 1 if tok == "+" else -1
        else:
            cur.append(tok)
    if not cur:
        raise ValueError(f"expression {expr!r} ends without a word")
    words.append((sign, cur))
    return words


def _cmd_apply(args) -> int:
    real = FiniteRealization(args.M, args.N)
    target = real.space.parse_monomial(args.on)
    start = SuperPoly(real.space, {target: real.table.one()})
    total = SuperPoly(real.space, {})
    for sign, tokens in _parse_words(args.expr):
        vec = start
        for tok in reversed(tokens):
            vec = _word_map(real, args.variant, tok).apply(vec)
        total = total + vec.scale(sign)
    print(total)
    return 0


def _k_value(text: str):
    if text == "formal":
        return None
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqsl",
        description="Exact verification of the q-difference and free-boson "
                    "realizations of the rank-(M|N) quantum superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fin = sub.add_parser("check-finite", help="flag-coordinate relation suites")
    fin.add_argument("--M", type=int, required=True)
    fin.add_argument("--N", type=int, required=True)
    fin.add_argument("--variant", choices=("i", "ii"), default="i")
    fin.add_argument("--max-degree", type=int, default=4)
    fin.add_argument("--sabotage", default=None, metavar="ATOM",
                     help=f"corrupt one atom family, one of {SABOTAGE_IDS}")
    fin.add_argument("--report", default=None, help="write the JSON report here")
    fin.add_argument("--seed", type=int, default=0)
    fin.add_argument("--jobs", type=int, default=1)
    fin.add_argument("--timings", action="store_true")
    fin.set_defaults(func=_cmd_check_finite)

    aff = sub.add_parser("check-affine", help="loop-algebra relation suites")
    aff.add_argument("--energy-cut", type=int, default=2)
    aff.add_argument("--mode-window", type=int, default=2)
    aff.add_argument("--k", type=_k_value, default=None,
                     help="integer level, or 'formal' (default)")
    aff.add_argument("--override", action="append", metavar="fXY=EXPR",
                     help="replace one F-current constant, e.g. f13=1")
    aff.add_argument("--momentum-radius", type=int, default=0)
    aff.add_argument("--momentum-norm", choices=("l1", "box"), default="l1")
    aff.add_argument("--psi-nmax", type=int, default=4)
    aff.add_argument("--report", default=None, help="write the JSON report here")
    aff.add_argument("--seed", type=int, default=0)
    aff.add_argument("--jobs", type=int, default=1)
    aff.add_argument("--timings", action="store_true")
    aff.set_defaults(func=_cmd_check_affine)

    app = sub.add_parser("apply", help="apply a generator word to a monomial")
    app.add_argument("--expr", required=True,
                     help="words in e<i> f<i> t<i> t<i>^-1 joined by + or -")
    app.add_argument("--on", required=True, help="flag monomial, e.g. x12^2*x13")
    app.add_argument("--M", type=int, default=2)
    app.add_argument("--N", type=int, default=1)
    app.add_argument("--variant", choices=("i", "ii"), default="i")
    app.set_defaults(func=_cmd_apply)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (RingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
