"""Each public refusal of the library, called straight: the error it raises
and the words of its message.  The CLI and the harness never pass these
inputs, so only a direct call reaches them."""

import re

import pytest

from fgmod import cyclic
from fgmod.cyclic import CanonicalForm
from fgmod.errors import AmbientMismatch, DimensionMismatch, InfiniteModule, RingMismatch, UnsupportedShape
from fgmod.functors import free_resolution_prefix, hom_data, tensor_module
from fgmod.grammar import GrammarError, parse_module_expr
from fgmod.linalg import (
    MatrixR,
    determinant,
    hstack,
    kron,
    smith_normal_form,
    solve_columns,
    spans_include,
)
from fgmod.modules import ModuleMap, Presentation, Submodule, direct_sum, quotient_by_submodule
from fgmod.oracle import brute_hom_count, enumerate_elements, formula_ext1, formula_hom, formula_tor1
from fgmod.rings import RingSpec, ZZ, ideal_power, principal

Z6 = RingSpec.mod(6)


def m(ring, rows):
    return MatrixR.from_rows(ring, rows)


def cyc(ring, d):
    return Presentation.cyclic(ring, d)


def sub(ambient, rows):
    return Submodule(ambient, m(ambient.ring, rows))


REFUSALS = {
    # linalg
    "MatrixR with the wrong row count": (
        lambda: MatrixR(ZZ, 2, 1, ((1,),)), DimensionMismatch, "row count does not match entries"),
    "MatrixR with ragged rows": (
        lambda: MatrixR(ZZ, 2, 2, ((1, 2), (3,))), DimensionMismatch, "ragged rows"),
    "MatrixR with a float entry": (
        lambda: MatrixR(ZZ, 1, 1, ((2.5,),)), TypeError, "matrix entries must be integers"),
    "MatrixR with a string entry": (
        lambda: MatrixR(ZZ, 1, 1, (("2",),)), TypeError, "matrix entries must be integers"),
    "MatrixR with a bool entry": (
        lambda: MatrixR(Z6, 1, 2, ((1, True),)), TypeError, "matrix entries must be integers"),
    "@ across rings": (
        lambda: m(ZZ, [[1]]) @ m(Z6, [[1]]), RingMismatch, "matrix product across rings"),
    "@ with mismatched shapes": (
        lambda: m(ZZ, [[1, 2]]) @ m(ZZ, [[1, 2]]), DimensionMismatch, "1x2 @ 1x2"),
    "apply with a short vector": (
        lambda: m(ZZ, [[1, 2]]).apply((1,)), DimensionMismatch, "vector length does not match column count"),
    "hstack with unequal rows": (
        lambda: hstack(m(ZZ, [[1]]), m(ZZ, [[1], [2]])), DimensionMismatch, "hstack needs equal row counts"),
    "kron across rings": (
        lambda: kron(m(ZZ, [[1]]), m(Z6, [[1]])), RingMismatch, "kron across rings"),
    "smith_normal_form over Z/6": (
        lambda: smith_normal_form(m(Z6, [[2]])), RingMismatch, "Smith normal form is computed over Z"),
    "solve_columns with unequal rows": (
        lambda: solve_columns(m(ZZ, [[1]]), m(ZZ, [[1], [2]])), DimensionMismatch, "A and B need equal row counts"),
    "spans_include with unequal rows": (
        lambda: spans_include(m(ZZ, [[1]]), m(ZZ, [[1], [2]])), DimensionMismatch, "A and B need equal row counts"),
    "determinant of a non-square matrix": (
        lambda: determinant(m(ZZ, [[1, 2]])), DimensionMismatch, "determinant needs a square matrix"),
    # modules
    "Presentation with the wrong row count": (
        lambda: Presentation(ZZ, 2, m(ZZ, [[2]])), ValueError, "relation matrix must have one row per generator"),
    "Presentation with relations over another ring": (
        lambda: Presentation(ZZ, 1, m(Z6, [[2]])), RingMismatch, "relations live over the wrong ring"),
    "direct_sum across rings": (
        lambda: direct_sum(ZZ, [cyc(ZZ, 2), cyc(Z6, 2)]), RingMismatch, "direct sum across rings"),
    "ModuleMap across rings": (
        lambda: ModuleMap(cyc(ZZ, 2), cyc(Z6, 2), m(ZZ, [[1]])), RingMismatch, "map endpoints live over different rings"),
    "ModuleMap with the wrong shape": (
        lambda: ModuleMap(cyc(ZZ, 2), cyc(ZZ, 2), m(ZZ, [[1, 0]])), ValueError, "map matrix has the wrong shape"),
    "Submodule with the wrong row count": (
        lambda: sub(cyc(ZZ, 4), [[1], [0]]), ValueError, "generator columns must match the ambient generator count"),
    "Submodule over another ring": (
        lambda: Submodule(cyc(ZZ, 4), m(Z6, [[2]])), RingMismatch, "columns live over the wrong ring"),
    "contains across ambient modules": (
        lambda: sub(cyc(ZZ, 4), [[2]]).contains(sub(cyc(ZZ, 8), [[2]])),
        AmbientMismatch, "submodules sit inside different ambient modules"),
    "quotient_by_submodule across ambient modules": (
        lambda: quotient_by_submodule(cyc(ZZ, 4), sub(cyc(ZZ, 8), [[2]])),
        AmbientMismatch, "submodule does not sit inside this module"),
    # functors
    "hom_data across rings": (
        lambda: hom_data(cyc(ZZ, 2), cyc(Z6, 2)), RingMismatch, "Hom of modules over different rings"),
    "tensor_module across rings": (
        lambda: tensor_module(cyc(ZZ, 2), cyc(Z6, 2)), RingMismatch, "tensor of modules over different rings"),
    "free_resolution_prefix of length -1": (
        lambda: free_resolution_prefix(cyc(ZZ, 2), -1), ValueError, "resolution length must be nonnegative"),
    # cyclic
    "cyclic.direct_sum of no parts": (
        lambda: cyclic.direct_sum([]), ValueError, "a direct sum needs at least one part"),
    # rings
    "ideal_power at -1": (
        lambda: ideal_power(principal(ZZ, 2), -1), ValueError, "exponent must be nonnegative"),
    # grammar
    "coker of a flat list": (
        lambda: parse_module_expr(ZZ, "coker[1,2]"), GrammarError, "coker expects a list of rows"),
    # oracle
    "enumerate_elements of a module with a free part": (
        lambda: enumerate_elements(CanonicalForm(ZZ, (2,), 1)), InfiniteModule, "cannot enumerate a module with free part"),
    "brute_hom_count of a module with a free part": (
        lambda: brute_hom_count(CanonicalForm(ZZ, (2,), 0), CanonicalForm(ZZ, (), 1)),
        InfiniteModule, "hom counting needs finite modules"),
    "formula_hom over Z/6": (
        lambda: formula_hom(CanonicalForm(Z6, (2,), 0), CanonicalForm(Z6, (3,), 0)),
        UnsupportedShape, "closed form covers finite modules over Z"),
    "formula_ext1 from a free module": (
        lambda: formula_ext1(CanonicalForm(ZZ, (), 1), CanonicalForm(ZZ, (2,), 0)),
        UnsupportedShape, "first argument must be torsion over Z"),
    "formula_tor1 from a free module": (
        lambda: formula_tor1(CanonicalForm(ZZ, (), 1), CanonicalForm(ZZ, (2,), 0)),
        UnsupportedShape, "first argument must be torsion over Z"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_raises_its_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_the_edge_values_that_no_refusal_guards():
    assert determinant(MatrixR(ZZ, 0, 0, ())) == 1
    # the first pivot column is zero, so elimination stops at once
    assert determinant(m(ZZ, [[0, 1], [0, 2]])) == 0
    # an ideal prints its canonical generator, not the one it was given
    assert str(principal(Z6, 4)) == "(2)"
