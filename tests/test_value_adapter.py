"""The value functions of `adic`, `functors` and `cohomology` that only ask
`cyclic` are made by one adapter, `modules._by_invariants`.  Each must still
look and act like a function written in its home module: tools that find
functions by type and module (the benchmark's tracer, pickling by reference,
`help()`) see it as one, its parameters keep their names for keyword calls,
and every call reaches `cyclic` through the module attribute, so a patched
`cyclic` sees it.
"""

import pickle
import pydoc
import re
import types

import pytest

from fgmod import adic, cohomology, cyclic, functors
from fgmod.modules import Presentation, canonical_form, canonical_presentation
from fgmod.rings import ZZ, canonicalize_ideal

Z2 = Presentation.cyclic(ZZ, 2)
SUM = Presentation.from_relations(ZZ, [[4, 2], [0, 2]])  # Z/2 + Z/4, not diagonal
A = canonicalize_ideal(ZZ, [-6, 4])  # canonical generator 2

# name -> (home module, cyclic attribute, arguments by parameter name, statement)
ADAPTED = {
    "torsion_wrt": (adic, "torsion_wrt", dict(M=Z2, N=SUM, a=A), "Two-argument torsion: the ideal-torsion of Hom(M, N)."),
    "completion_wrt": (
        adic, "completion_wrt", dict(M=Z2, N=SUM, a=A), "Two-argument completion: the ideal-completion of M (x) N.",
    ),
    "is_reduced": (adic, "is_reduced", dict(N=SUM, a=A), "Whether d^2 x = 0 forces d x = 0 for every element x."),
    "is_coreduced": (adic, "is_coreduced", dict(N=SUM, a=A), "Whether d N = d^2 N as submodules of N."),
    "is_reduced_wrt": (
        adic, "is_reduced_wrt", dict(M=Z2, N=SUM, a=A), "Whether Hom(M, N) is a reduced module for this ideal.",
    ),
    "is_coreduced_wrt": (
        adic, "is_coreduced_wrt", dict(M=Z2, N=SUM, a=A), "Whether M (x) N is a coreduced module for this ideal.",
    ),
    "local_cohomology": (
        cohomology, "local_cohomology", dict(i=1, M=SUM, N=Z2, a=A),
        "Degree-i local cohomology lim-> Ext^i(M/a^k M, N) of the pair (M, N).",
    ),
    "local_homology": (
        cohomology, "local_homology", dict(i=1, M=SUM, N=Z2, a=A),
        "Degree-i local homology lim<- Tor_i(M/a^k M, N) of the pair (M, N).",
    ),
    "ext": (functors, "ext", dict(i=1, M=SUM, N=Z2), "Ext^i(M, N), read off the invariant factors (see `cyclic.ext`)."),
    "tor": (functors, "tor", dict(i=1, M=SUM, N=Z2), "Tor_i(M, N), read off the invariant factors (see `cyclic.tor`)."),
    "matlis_dual": (
        functors, "dual", dict(N=SUM),
        "Hom into the chosen injective cogenerator: Q/Z over Z, the ring itself over Z/n.  It keeps every"
        " invariant factor (see `cyclic.dual`); a free part over Z would leave the finitely generated world"
        " and raises.",
    ),
}


@pytest.mark.parametrize("name", ADAPTED)
def test_an_adapted_function_is_a_function_of_its_home_module(name):
    home = ADAPTED[name][0]
    f = vars(home)[name]
    assert isinstance(f, types.FunctionType)
    assert (f.__module__, f.__name__, f.__qualname__) == (home.__name__, name, name)
    assert pickle.loads(pickle.dumps(f)) is f


@pytest.mark.parametrize("name", ADAPTED)
def test_help_shows_the_parameter_names_and_the_statement(name):
    home, _, kwargs, statement = ADAPTED[name]
    text = " ".join(pydoc.render_doc(getattr(home, name), renderer=pydoc.plaintext).split())
    params = re.search(rf"\b{name}\((.*?)\)", text).group(1).split(", ")
    assert [p.split(":")[0] for p in params] == list(kwargs)
    assert " ".join(statement.split()) in text


@pytest.mark.parametrize("name", ADAPTED)
def test_keyword_and_positional_calls_agree(name):
    home, _, kwargs, _ = ADAPTED[name]
    f = getattr(home, name)
    args = list(kwargs.values())
    answer = f(*args)
    assert f(**kwargs) == answer
    assert f(*args[:1], **dict(list(kwargs.items())[1:])) == answer
    with pytest.raises(TypeError):
        f(*args, args[-1])
    with pytest.raises(TypeError):
        f(*args[:-1])


@pytest.mark.parametrize("name", ADAPTED)
def test_every_call_reaches_the_patched_cyclic_attribute(name, monkeypatch):
    home, attr, kwargs, _ = ADAPTED[name]
    real = getattr(cyclic, attr)
    calls = []

    def spy(*operands):
        calls.append(operands)
        return real(*operands)

    monkeypatch.setattr(cyclic, attr, spy)
    answer = getattr(home, name)(**kwargs)
    # the degree as given, each module as its canonical form, the ideal as its generator
    expected = tuple(
        x if p == "i" else x.canonical if p == "a" else canonical_form(x) for p, x in kwargs.items()
    )
    assert calls == [expected]
    value = real(*expected)
    assert answer == (canonical_presentation(value) if isinstance(value, cyclic.CanonicalForm) else value)
