"""Hom, tensor, duality, free resolutions, Ext and Tor.

Values and maps are computed in different places.  A value question (what
is Ext^i(M, N) up to isomorphism?) is answered by `fgmod.cyclic` from the
operands' invariant factors: `ext`, `tor` and `matlis_dual` are made by the
adapter `modules._by_invariants`, which canonicalizes each operand once and
returns the canonical presentation of the answer.

The Hom and tensor modules themselves, and the maps they induce, live on the
operands' own presentations, because an induced map must be expressed on
the generators it acts on.  `hom_data` flattens matrices column-major into a
free ambient module, cuts out the solution set of a linear condition (a
kernel computation over the ring) and quotients by a degeneracy span.  With
vec stacking columns, the two identities used are vec(H @ P) = (P^T (x) I)
vec(H) and vec(Q @ Y) = (I (x) Q) vec(Y).  `free_resolution_prefix` computes
resolutions to a requested length the same way.
"""

from __future__ import annotations

from .errors import RingMismatch
from .linalg import MatrixR, hstack, kernel_generators, kron
from .modules import (
    ModuleMap,
    Presentation,
    _by_invariants,
    _present_subquotient,
    _project_kernel,
    express_in_span,
)
from .rings import _Record

__all__ = [
    "hom_module",
    "hom_data",
    "HomData",
    "tensor_module",
    "matlis_dual",
    "FreeResolutionPrefix",
    "free_resolution_prefix",
    "ext",
    "tor",
    "hom_postcompose",
    "tensor_postcompose",
]


class HomData(_Record):
    """A hom module together with its explicit matrix generators.

    `generators` holds one flattened (target.gens x source.gens) matrix per
    presentation generator; `ambient_rels` spans the matrices that represent
    the zero homomorphism.  Both live in the free module of all flattened
    matrices, which is what induced maps are solved against.
    """

    __slots__ = _fields = ("source", "target", "presentation", "generators", "ambient_rels")


def hom_data(M: Presentation, N: Presentation) -> HomData:
    if M.ring != N.ring:
        raise RingMismatch("Hom of modules over different rings")
    ring = M.ring
    g, P = M.gens, M.rels
    h, Q = N.gens, N.rels
    dim = h * g
    # a matrix H defines a map iff every column of H @ P dies in N
    cond = hstack(kron(P.transpose(), MatrixR.identity(ring, h)), kron(MatrixR.identity(ring, P.cols), Q))
    Z = _project_kernel(cond, dim, ring)
    W = kron(MatrixR.identity(ring, g), Q)
    return HomData(M, N, _present_subquotient(Z, W), Z, W)


def hom_module(M: Presentation, N: Presentation) -> Presentation:
    """The module of homomorphisms M -> N."""
    return hom_data(M, N).presentation


def tensor_module(M: Presentation, N: Presentation) -> Presentation:
    """M (x) N on pair generators (i, j) |-> i * N.gens + j."""
    if M.ring != N.ring:
        raise RingMismatch("tensor of modules over different rings")
    ring = M.ring
    rels = hstack(
        kron(M.rels, MatrixR.identity(ring, N.gens)),
        kron(MatrixR.identity(ring, M.gens), N.rels),
    )
    return Presentation(ring, M.gens * N.gens, rels)


matlis_dual = _by_invariants(
    __name__, "matlis_dual", "N", attr="dual", statement="""Hom into the chosen injective cogenerator: Q/Z over Z, the ring
    itself over Z/n.  It keeps every invariant factor (see `cyclic.dual`); a
    free part over Z would leave the finitely generated world and raises.""",
)


class FreeResolutionPrefix(_Record):
    """Differentials d_L, ..., d_1 of free modules resolving the target.

    differentials[k] is d_{k+1}: the matrix of F_{k+1} -> F_k, with F_0 free
    on the target's generators and d_1 the relation matrix.  Consecutive
    differentials compose to zero and each kernel equals the next image.
    """

    __slots__ = _fields = ("target", "length", "differentials")

    def rank(self, k: int) -> int:
        """Rank of the free module F_k."""
        if k == 0:
            return self.target.gens
        return self.differentials[k - 1].cols


def free_resolution_prefix(M: Presentation, length: int) -> FreeResolutionPrefix:
    if length < 0:
        raise ValueError("resolution length must be nonnegative")
    diffs = []
    current = M.rels
    for _ in range(length):
        diffs.append(current)
        current = kernel_generators(current)
    return FreeResolutionPrefix(M, length, tuple(diffs))


ext = _by_invariants(__name__, "ext", "i M N", "Ext^i(M, N), read off the invariant factors (see `cyclic.ext`).")
tor = _by_invariants(__name__, "tor", "i M N", "Tor_i(M, N), read off the invariant factors (see `cyclic.tor`).")


def hom_postcompose(M: Presentation, f: ModuleMap) -> ModuleMap:
    """The induced map Hom(M, source f) -> Hom(M, target f)."""
    hd_s = hom_data(M, f.source)
    hd_t = hom_data(M, f.target)
    lifted = kron(MatrixR.identity(M.ring, M.gens), f.matrix) @ hd_s.generators
    coeffs = express_in_span(hd_t.generators, hd_t.ambient_rels, lifted)
    if coeffs is None:
        raise RuntimeError("post-composition left the hom module; this cannot happen")
    return ModuleMap._trusted(hd_s.presentation, hd_t.presentation, coeffs)


def tensor_postcompose(M: Presentation, f: ModuleMap) -> ModuleMap:
    """The induced map M (x) source f -> M (x) target f."""
    return ModuleMap._trusted(
        tensor_module(M, f.source),
        tensor_module(M, f.target),
        kron(MatrixR.identity(M.ring, M.gens), f.matrix),
    )
