"""Command-line front end.

Module arguments use the expression grammar from `fgmod.grammar`; canonical
forms are printed in the same grammar so every output re-parses.  Every
subcommand but `verify` asks a value question: each operand is brought to
its canonical form once and `fgmod.cyclic` reads the answer off the
invariant factors.  Exit codes:
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


_COMMANDS = (
    "canon", "hom", "tensor", "dual", "ext", "tor", "gamma", "lambda",
    "gammagen", "lambdagen", "glc", "glh", "check", "verify",
)


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

    def add(name, *exprs, needs_ideal=False, degree=False, help=""):
        if command not in (None, name):
            return
        sp = sub.add_parser(name, parents=[common], help=help)
        if degree:
            sp.add_argument("degree", type=int)
        for e in exprs:
            sp.add_argument(e)
        sp.set_defaults(needs_ideal=needs_ideal)
        return sp

    add("canon", "module", help="canonical form of a module expression")
    add("hom", "source", "target", help="module of homomorphisms")
    add("tensor", "left", "right", help="tensor product")
    add("dual", "module", help="dual against the injective cogenerator")
    add("ext", "source", "target", degree=True, help="Ext in a given degree")
    add("tor", "left", "right", degree=True, help="Tor in a given degree")
    add("gamma", "module", needs_ideal=True, help="ideal-torsion submodule")
    add("lambda", "module", needs_ideal=True, help="ideal-adic completion")
    add("gammagen", "m", "n", needs_ideal=True, help="two-argument torsion")
    add("lambdagen", "m", "n", needs_ideal=True, help="two-argument completion")
    add("glc", "m", "n", needs_ideal=True, degree=True, help="generalized local cohomology")
    add("glh", "m", "n", needs_ideal=True, degree=True, help="generalized local homology")

    if command in (None, "check"):
        chk = sub.add_parser("check", parents=[common], help="membership predicates")
        chk.add_argument(
            "predicate", choices=("reduced", "coreduced", "reduced-wrt", "coreduced-wrt")
        )
        chk.add_argument("modules", nargs="+")
        chk.set_defaults(needs_ideal=True)

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


# every module argument is read straight to its canonical form
_canon = parse_module_expr


def _result(args, C) -> None:
    expr = format_canonical(C)
    _emit(args, {"result": expr}, expr)


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
    if args.claims:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
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
        if args.command == "verify":
            return _verify(args)
        if getattr(args, "degree", 0) < 0:
            print(f"error: degree must be nonnegative, got {args.degree}", file=sys.stderr)
            return EXIT_USAGE

        ring = parse_ring(args.ring)
        ideal = None
        if args.ideal is not None:
            ideal = parse_ideal(ring, args.ideal)
        if getattr(args, "needs_ideal", False) and ideal is None:
            print("error: this command requires --ideal", file=sys.stderr)
            print(GRAMMAR_HELP, file=sys.stderr)
            return EXIT_USAGE

        cmd = args.command
        d = ideal.canonical if ideal is not None else None
        if cmd == "canon":
            _result(args, _canon(ring, args.module))
        elif cmd == "hom":
            _result(args, cyclic.hom(_canon(ring, args.source), _canon(ring, args.target)))
        elif cmd == "tensor":
            _result(args, cyclic.tensor(_canon(ring, args.left), _canon(ring, args.right)))
        elif cmd == "dual":
            _result(args, cyclic.dual(_canon(ring, args.module)))
        elif cmd == "ext":
            _result(args, cyclic.ext(args.degree, _canon(ring, args.source), _canon(ring, args.target)))
        elif cmd == "tor":
            _result(args, cyclic.tor(args.degree, _canon(ring, args.left), _canon(ring, args.right)))
        elif cmd in ("gamma", "lambda"):
            limit = cyclic.torsion if cmd == "gamma" else cyclic.completion
            value, k = limit(_canon(ring, args.module), d)
            expr = format_canonical(value)
            _emit(args, {"result": expr, "exponent": k}, f"{expr}\tk={k}")
        elif cmd == "gammagen":
            _result(args, cyclic.torsion_wrt(_canon(ring, args.m), _canon(ring, args.n), d))
        elif cmd == "lambdagen":
            _result(args, cyclic.completion_wrt(_canon(ring, args.m), _canon(ring, args.n), d))
        elif cmd == "glc":
            _result(args, cyclic.local_cohomology(args.degree, _canon(ring, args.m), _canon(ring, args.n), d))
        elif cmd == "glh":
            _result(args, cyclic.local_homology(args.degree, _canon(ring, args.m), _canon(ring, args.n), d))
        elif cmd == "check":
            want = {"reduced": 1, "coreduced": 1, "reduced-wrt": 2, "coreduced-wrt": 2}[args.predicate]
            if len(args.modules) != want:
                print(f"error: check {args.predicate} takes {want} module argument(s)", file=sys.stderr)
                return EXIT_USAGE
            forms = [_canon(ring, e) for e in args.modules]
            if args.predicate == "reduced":
                verdict = cyclic.is_reduced(forms[0], d)
            elif args.predicate == "coreduced":
                verdict = cyclic.is_coreduced(forms[0], d)
            elif args.predicate == "reduced-wrt":
                verdict = cyclic.is_reduced_wrt(forms[0], forms[1], d)
            else:
                verdict = cyclic.is_coreduced_wrt(forms[0], forms[1], d)
            _emit(args, {"result": verdict}, "true" if verdict else "false")
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
