"""Command-line front end.

Module arguments use the expression grammar from `fgmod.grammar`; canonical
forms are printed in the same grammar so every output re-parses.  Every
subcommand but `verify` asks a value question: each operand is brought to
its canonical form once and `fgmod.cyclic` reads the answer off the
invariant factors.  Each value subcommand is one row of `_VALUES`, each
`check` predicate one row of `_PREDICATES` and each option one row of
`_OPTIONS` or `_VERIFY_OPTIONS`; the reader of command lines, the parser
and `main`'s one dispatch path are driven by these tables.  A well-formed
command line is read off them directly; the full parser (`fgmod.usage`)
and `argparse` are loaded only for the lines the reader declines, to print
help or a usage error, and a claims run is `fgmod.verify.run_command`.
`verify --list-claims` reads the claim index `fgmod.claims` alone: `main`
binds the value layer (`cyclic` and `grammar`) only past that branch, so a
listing compiles neither.
Exit codes: 0 success (or all claim verdicts as expected), 1 the output
could not be written, 2 usage error, 3 a limit is not finitely generated,
4 unexpected claim verdict.

`run()` is the program: `python -m fgmod.cli` and the installed `fgmod`
command both call it.  `main(argv)` is the same front end without process
side effects, for callers that stay in the interpreter.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import FgmodError, GrammarError, NonStabilizing
from . import verify  # lazy: only a claims run of `fgmod verify` loads the harness (see fgmod/__init__.py)

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_USAGE = 2
EXIT_NONSTABILIZING = 3
EXIT_UNEXPECTED_CLAIM = 4


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


# The options every subcommand takes: flag -> (default, choices, help line).
_OPTIONS = {
    "--ring": ("Z", None, "base ring: Z or Z/<n> (default Z)"),
    "--ideal": (None, None, "ideal generators, comma separated"),
    "--format": ("text", ("text", "json-lines"), "output format (default text)"),
}
# verify's options; a default of False makes a flag.  None marks --ring as
# not given there, which a claims run requires.
_VERIFY_OPTIONS = {
    **_OPTIONS,
    "--ring": (None, *_OPTIONS["--ring"][1:]),
    "--claims": (None, None, "comma-separated claim ids (default: all)"),
    "--grid": (None, None, "JSON grid file (default: built-in grids)"),
    "--list-claims": (False, None, "list claim ids and exit"),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the full parser builds from `argv`, read off the command
    tables, or None for any line the parser might read otherwise: help, a
    usage error, or a form this reader does not take (an abbreviated option,
    `--opt=value`, `--`, a value or operand that starts with `-`).

    Options are the exact flags of the subcommand, each value option with
    the next token as its value, anywhere among the operands; a repeated
    option keeps its last value.  A value subcommand takes exactly its
    degree and operands, `check` a predicate and then its modules with no
    option between two of them, and `verify` no operand.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    if command in _VALUES:
        _, operands, _, degree, _ = _VALUES[command]
        names = ("degree",) * degree + operands
    else:
        names = ("predicate", "modules") if command == "check" else ()
    options = _VERIFY_OPTIONS if command == "verify" else _OPTIONS
    args = {"command": command, **{_dest(flag): default for flag, (default, _, _) in options.items()}}
    given = []
    after_option = False
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            # argparse ends `check`'s modules at the first option after them
            if command == "check" and len(given) >= 2 and after_option:
                return None
            given.append(token)
            after_option = False
            continue
        if token not in options:
            return None
        default, choices, _ = options[token]
        if default is False:
            value = True
        else:
            value = next(tokens, "-")  # a missing value declines like one that starts with "-"
            if value.startswith("-") or choices and value not in choices:
                return None
        args[_dest(token)] = value
        after_option = True
    if command == "check":
        if len(given) < 2 or given[0] not in _PREDICATES:
            return None
        given = [given[0], given[1:]]
    if len(given) != len(names):
        return None
    args.update(zip(names, given))
    if "degree" in args:
        try:
            args["degree"] = int(args["degree"])
        except ValueError:
            return None
    return SimpleNamespace(**args)


def _emit(args, payload: dict, text: str):
    if args.format == "json-lines":
        import json  # imported only here: text output never needs it

        print(json.dumps(payload))
    else:
        print(text)


def _list_claims(args) -> int:
    from .claims import CLAIMS  # the index alone: listing runs neither the harness nor elimination

    for cid, statement, rings, expected in CLAIMS:
        _emit(args, {"id": cid, "statement": statement, "rings": rings, "expected": expected}, cid)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    A well-formed line is read off the command tables by `_read`; any other
    goes to the full parser, which prints help or a usage error and raises
    `SystemExit` as argparse does."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        from .usage import build_parser

        args = build_parser(_VALUES, _PREDICATES, _OPTIONS, _VERIFY_OPTIONS).parse_args(argv)
    if args.command == "verify" and args.list_claims:
        return _list_claims(args)
    # the value layer, bound only past the listing, which compiles neither
    from . import cyclic
    from .grammar import GRAMMAR_HELP, format_canonical, parse_ideal, parse_module_expr, parse_ring

    try:
        cmd = args.command
        if cmd == "verify":
            return EXIT_OK if verify.run_command(args) else EXIT_UNEXPECTED_CLAIM
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
    finalization nothing to traverse; the exit itself (atexit handlers, the
    exit code) takes its normal path.

    Stdout is flushed here, so that a failed write is caught: a reader that
    closed the pipe ends the process quietly, any other write error prints
    one `error:` line, and both exit 1.  Stdout then points at the null
    device, where the exit's own flush of what is left succeeds.
    """
    gc.disable()
    try:
        code = main()
        if sys.stdout is not None:  # None in a process started with stdout closed
            sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OUTPUT
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
