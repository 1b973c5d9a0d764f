"""Command-line front end.

Module arguments use the expression grammar from `fgmod.grammar`; canonical
forms are printed in the same grammar so every output re-parses.  Every
subcommand but `verify` asks a value question: each operand is brought to
its canonical form once and `fgmod.cyclic` reads the answer off the
invariant factors.  Each value subcommand is one row of `_VALUES` and each
`check` predicate one row of `_PREDICATES`; both the parser and `main`'s
one dispatch path are driven by these tables.  Exit codes:
0 success (or all claim verdicts as expected), 2 usage error, 3 a limit is
not finitely generated, 4 unexpected claim verdict.

`run()` is the program: `python -m fgmod.cli` and the installed `fgmod`
command both call it.  `main(argv)` is the same front end without process
side effects, for callers that stay in the interpreter.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import cyclic
from .errors import FgmodError, InvalidGrid, NonStabilizing
from .grammar import GRAMMAR_HELP, GrammarError, format_canonical, parse_ideal, parse_module_expr, parse_ring
from . import verify  # lazy: only `fgmod verify` loads the harness (see fgmod/__init__.py)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONSTABILIZING = 3
EXIT_UNEXPECTED_CLAIM = 4


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default="Z", help="base ring: Z or Z/<n> (default Z)")
    common.add_argument("--ideal", default=None, help="ideal generators, comma separated")
    common.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text",
        help="output format (default text)",
    )
    return common


# The value subcommands, in help order: name -> (the `fgmod.cyclic` function
# that answers it, by attribute name so that a patched or traced `cyclic` sees
# each call; operands; takes --ideal; takes a degree; help line).  `canon` has
# no function: the parsed form is the answer.
_VALUES = {
    "canon": (None, ("module",), False, False, "canonical form of a module expression"),
    "hom": ("hom", ("source", "target"), False, False, "module of homomorphisms"),
    "tensor": ("tensor", ("left", "right"), False, False, "tensor product"),
    "dual": ("dual", ("module",), False, False, "dual against the injective cogenerator"),
    "ext": ("ext", ("source", "target"), False, True, "Ext in a given degree"),
    "tor": ("tor", ("left", "right"), False, True, "Tor in a given degree"),
    "gamma": ("torsion", ("module",), True, False, "ideal-torsion submodule"),
    "lambda": ("completion", ("module",), True, False, "ideal-adic completion"),
    "gammagen": ("torsion_wrt", ("m", "n"), True, False, "two-argument torsion"),
    "lambdagen": ("completion_wrt", ("m", "n"), True, False, "two-argument completion"),
    "glc": ("local_cohomology", ("m", "n"), True, True, "generalized local cohomology"),
    "glh": ("local_homology", ("m", "n"), True, True, "generalized local homology"),
}
# The `check` predicates: name -> (the `fgmod.cyclic` function, operand
# count).  Each takes --ideal.
_PREDICATES = {
    "reduced": ("is_reduced", 1),
    "coreduced": ("is_coreduced", 1),
    "reduced-wrt": ("is_reduced_wrt", 2),
    "coreduced-wrt": ("is_coreduced_wrt", 2),
}
_COMMANDS = (*_VALUES, "check", "verify")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with `command` the parser of that subcommand
    alone: its subparser is built as in the full one, and the usage line
    names every subcommand, so it prints what the full parser prints on
    every command line that starts with `command`."""
    common = _common_options()
    p = argparse.ArgumentParser(
        prog="fgmod",
        description="exact computations with finitely generated modules over Z and Z/n",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)

    for name, (_, operands, _, degree, summary) in _VALUES.items():
        if command in (None, name):
            sp = sub.add_parser(name, parents=[common], help=summary)
            if degree:
                sp.add_argument("degree", type=int)
            for operand in operands:
                sp.add_argument(operand)

    if command in (None, "check"):
        chk = sub.add_parser("check", parents=[common], help="membership predicates")
        chk.add_argument("predicate", choices=tuple(_PREDICATES))
        chk.add_argument("modules", nargs="+")

    if command in (None, "verify"):
        # its own copy of the options: parents share their actions, and None
        # marks --ring as not given, which a claims run requires
        ver = sub.add_parser("verify", parents=[_common_options()], help="run the claim verification suite")
        ver.add_argument("--claims", default=None, help="comma-separated claim ids (default: all)")
        ver.add_argument("--grid", default=None, help="JSON grid file (default: built-in grids)")
        ver.add_argument("--list-claims", action="store_true", help="list claim ids and exit")
        ver.set_defaults(ring=None)

    return p


def _emit(args, payload: dict, text: str):
    if args.format == "json-lines":
        import json  # imported only here and for grid files: text output never needs it

        print(json.dumps(payload))
    else:
        print(text)


def _load_grids(path: str) -> list:
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidGrid(f"cannot read grid file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidGrid(f"grid file {path!r} is not valid JSON: {exc}") from None
    return [verify.grid_from_dict(d) for d in (data if isinstance(data, list) else [data])]


def _verify(args) -> int:
    if args.list_claims:
        for cid in verify.registered_claims():
            print(cid)
        return EXIT_OK
    given = [f"--{name}" for name in ("ring", "ideal") if getattr(args, name) is not None]
    if given:
        print(
            f"error: verify does not use {', '.join(given)}: the grids set the rings and ideals"
            " (give a grid file with --grid)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    claim_ids = None
    if args.claims is not None:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claim_ids:
            print("error: --claims names no claim id; `fgmod verify --list-claims` lists them", file=sys.stderr)
            return EXIT_USAGE
    grids = _load_grids(args.grid) if args.grid else None
    suite = verify.run_suite(grids, claim_ids)
    out = verify.format_reports_jsonl(suite) if args.format == "json-lines" else verify.format_reports_text(suite)
    sys.stdout.write(out)
    return EXIT_OK if suite.all_expected else EXIT_UNEXPECTED_CLAIM


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the named subcommand's parser; the full one for --help, a missing
    # or an unknown subcommand, whose messages list every subcommand
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        cmd = args.command
        if cmd == "verify":
            return _verify(args)
        if cmd == "check":
            function, count = _PREDICATES[args.predicate]
            exprs, takes_ideal, takes_degree = args.modules, True, False
        else:
            function, operands, takes_ideal, takes_degree, _ = _VALUES[cmd]
            exprs = [getattr(args, operand) for operand in operands]
        if takes_degree and args.degree < 0:
            print(f"error: degree must be nonnegative, got {args.degree}", file=sys.stderr)
            return EXIT_USAGE

        ring = parse_ring(args.ring)
        ideal = None if args.ideal is None else parse_ideal(ring, args.ideal)
        if takes_ideal and ideal is None:
            print("error: this command requires --ideal", file=sys.stderr)
            print(GRAMMAR_HELP, file=sys.stderr)
            return EXIT_USAGE
        if cmd == "check" and len(exprs) != count:
            print(f"error: check {args.predicate} takes {count} module argument(s)", file=sys.stderr)
            return EXIT_USAGE

        # every operand is read straight to its canonical form
        forms = [parse_module_expr(ring, e) for e in exprs]
        if function is None:
            value = forms[0]
        else:
            degree = (args.degree,) if takes_degree else ()
            d = (ideal.canonical,) if takes_ideal else ()
            value = getattr(cyclic, function)(*degree, *forms, *d)
        if cmd == "check":
            _emit(args, {"result": value}, "true" if value else "false")
        elif cmd in ("gamma", "lambda"):
            value, k = value
            expr = format_canonical(value)
            _emit(args, {"result": expr, "exponent": k}, f"{expr}\tk={k}")
        else:
            expr = format_canonical(value)
            _emit(args, {"result": expr}, expr)
        return EXIT_OK
    except NonStabilizing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONSTABILIZING
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        return EXIT_USAGE
    except FgmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Run `main` on `sys.argv` as a whole process and exit with its code.

    The cyclic garbage collector stays off: a process answers one command
    line, fgmod's own code makes no reference cycles, and what little the
    standard library leaves in cycles is freed with the process.  Freezing
    every object at the end leaves the collections of interpreter
    finalization nothing to traverse; the exit itself (flushing stdout,
    atexit handlers, the exit code) takes its normal path.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
