"""Command-line front end.

Module arguments use the expression grammar from `fgmod.grammar`; canonical
forms are printed in the same grammar so every output re-parses.  Exit codes:
0 success (or all claim verdicts as expected), 2 usage error, 3 a completion
chain did not stabilize, 4 unexpected claim verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adic import (
    completion,
    is_coreduced,
    is_coreduced_wrt,
    is_reduced,
    is_reduced_wrt,
    torsion,
    torsion_wrt,
    completion_wrt,
)
from .cohomology import local_cohomology, local_homology
from .errors import FgmodError, InvalidGrid, NonStabilizing
from . import cyclic
from .functors import ext, matlis_dual, tor
from .grammar import GRAMMAR_HELP, GrammarError, format_canonical, parse_ideal, parse_module_expr, parse_ring
from .modules import canonical_form
from . import verify  # lazy: only `fgmod verify` loads the harness (see fgmod/__init__.py)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONSTABILIZING = 3
EXIT_UNEXPECTED_CLAIM = 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default="Z", help="base ring: Z or Z/<n> (default Z)")
    common.add_argument("--ideal", default=None, help="ideal generators, comma separated")
    common.add_argument("--kmax", type=int, default=64, help="stabilization bound (default 64)")
    common.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text",
        help="output format (default text)",
    )

    p = argparse.ArgumentParser(
        prog="fgmod",
        description="exact computations with finitely generated modules over Z and Z/n",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, *exprs, needs_ideal=False, degree=False, help=""):
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

    chk = sub.add_parser("check", parents=[common], help="membership predicates")
    chk.add_argument(
        "predicate", choices=("reduced", "coreduced", "reduced-wrt", "coreduced-wrt")
    )
    chk.add_argument("modules", nargs="+")
    chk.set_defaults(needs_ideal=True)

    ver = sub.add_parser("verify", parents=[common], help="run the claim verification suite")
    ver.add_argument("--claims", default=None, help="comma-separated claim ids (default: all)")
    ver.add_argument("--grid", default=None, help="JSON grid file (default: built-in grids)")
    ver.add_argument("--list-claims", action="store_true", help="list claim ids and exit")
    ver.set_defaults(needs_ideal=False)

    return p


def _emit(args, payload: dict, text: str):
    if args.format == "json-lines":
        print(json.dumps(payload))
    else:
        print(text)


def _result(args, pres) -> None:
    _result_form(args, canonical_form(pres))


def _canon(ring, expr: str):
    return canonical_form(parse_module_expr(ring, expr))


def _result_form(args, C) -> None:
    expr = format_canonical(C)
    _emit(args, {"result": expr}, expr)


def _load_grids(path: str) -> list:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidGrid(f"cannot read grid file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidGrid(f"grid file {path!r} is not valid JSON: {exc}") from None
    return [verify.grid_from_dict(d) for d in (data if isinstance(data, list) else [data])]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "degree", 0) < 0:
        print(f"error: degree must be nonnegative, got {args.degree}", file=sys.stderr)
        return EXIT_USAGE
    if args.kmax < 0:
        print(f"error: --kmax must be nonnegative, got {args.kmax}", file=sys.stderr)
        return EXIT_USAGE

    try:
        ring = parse_ring(args.ring)
        ideal = None
        if args.ideal is not None:
            ideal = parse_ideal(ring, args.ideal)
        if getattr(args, "needs_ideal", False) and ideal is None:
            print("error: this command requires --ideal", file=sys.stderr)
            print(GRAMMAR_HELP, file=sys.stderr)
            return EXIT_USAGE

        cmd = args.command
        if cmd == "canon":
            _result(args, parse_module_expr(ring, args.module))
        elif cmd == "hom":
            # only the value is printed, so it is read off the invariant factors
            _result_form(args, cyclic.hom(_canon(ring, args.source), _canon(ring, args.target)))
        elif cmd == "tensor":
            _result_form(args, cyclic.tensor(_canon(ring, args.left), _canon(ring, args.right)))
        elif cmd == "dual":
            _result(args, matlis_dual(parse_module_expr(ring, args.module)))
        elif cmd == "ext":
            _result(args, ext(args.degree, parse_module_expr(ring, args.source), parse_module_expr(ring, args.target)))
        elif cmd == "tor":
            _result(args, tor(args.degree, parse_module_expr(ring, args.left), parse_module_expr(ring, args.right)))
        elif cmd == "gamma":
            res = torsion(parse_module_expr(ring, args.module), ideal, args.kmax)
            expr = format_canonical(canonical_form(res.value))
            _emit(args, {"result": expr, "exponent": res.exponent}, f"{expr}\tk={res.exponent}")
        elif cmd == "lambda":
            res = completion(parse_module_expr(ring, args.module), ideal, args.kmax)
            expr = format_canonical(canonical_form(res.value))
            _emit(args, {"result": expr, "exponent": res.exponent}, f"{expr}\tk={res.exponent}")
        elif cmd == "gammagen":
            _result(args, torsion_wrt(parse_module_expr(ring, args.m), parse_module_expr(ring, args.n), ideal, args.kmax))
        elif cmd == "lambdagen":
            _result(args, completion_wrt(parse_module_expr(ring, args.m), parse_module_expr(ring, args.n), ideal, args.kmax))
        elif cmd == "glc":
            _result(args, local_cohomology(args.degree, parse_module_expr(ring, args.m), parse_module_expr(ring, args.n), ideal, args.kmax))
        elif cmd == "glh":
            _result(args, local_homology(args.degree, parse_module_expr(ring, args.m), parse_module_expr(ring, args.n), ideal, args.kmax))
        elif cmd == "check":
            want = {"reduced": 1, "coreduced": 1, "reduced-wrt": 2, "coreduced-wrt": 2}[args.predicate]
            if len(args.modules) != want:
                print(f"error: check {args.predicate} takes {want} module argument(s)", file=sys.stderr)
                return EXIT_USAGE
            mods = [parse_module_expr(ring, e) for e in args.modules]
            if args.predicate == "reduced":
                verdict = is_reduced(mods[0], ideal)
            elif args.predicate == "coreduced":
                verdict = is_coreduced(mods[0], ideal)
            elif args.predicate == "reduced-wrt":
                verdict = is_reduced_wrt(mods[0], mods[1], ideal)
            else:
                verdict = is_coreduced_wrt(mods[0], mods[1], ideal)
            _emit(args, {"result": verdict}, "true" if verdict else "false")
        elif cmd == "verify":
            if args.list_claims:
                for cid in verify.registered_claims():
                    print(cid)
                return EXIT_OK
            claim_ids = None
            if args.claims:
                claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
            grids = _load_grids(args.grid) if args.grid else None
            suite = verify.run_suite(grids, claim_ids)
            out = verify.format_reports_jsonl(suite) if args.format == "json-lines" else verify.format_reports_text(suite)
            sys.stdout.write(out)
            return EXIT_OK if suite.all_expected else EXIT_UNEXPECTED_CLAIM
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


if __name__ == "__main__":
    sys.exit(main())
