"""The full parser of `fgmod` command lines, the one source of every help
text and usage error: `fgmod.cli` builds it only for a line its reader
declines, so only help and usage errors load this module and `argparse`."""

import argparse

from .grammar import GRAMMAR_HELP


def build_parser(values: dict, predicates: dict, options: dict, verify_options: dict) -> argparse.ArgumentParser:
    """The parser of the command tables `cli._VALUES`, `_PREDICATES`,
    `_OPTIONS` and `_VERIFY_OPTIONS`, passed in that order."""

    def with_options(parser, table):
        for flag, (default, choices, summary) in table.items():
            if default is False:
                parser.add_argument(flag, action="store_true", help=summary)
            else:
                parser.add_argument(flag, default=default, choices=choices, help=summary)
        return parser

    p = argparse.ArgumentParser(
        prog="fgmod",
        description="exact computations with finitely generated modules over Z and Z/n",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, (_, operands, _, degree, summary) in values.items():
        sp = with_options(sub.add_parser(name, help=summary), options)
        if degree:
            sp.add_argument("degree", type=int)
        for operand in operands:
            sp.add_argument(operand)

    chk = with_options(sub.add_parser("check", help="membership predicates"), options)
    chk.add_argument("predicate", choices=tuple(predicates))
    chk.add_argument("modules", nargs="+")

    with_options(sub.add_parser("verify", help="run the claim verification suite"), verify_options)
    return p
