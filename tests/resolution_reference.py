"""Ext and Tor computed from a free resolution of the first argument.

These are the matrix-route bodies the library used before its value layer
(`fgmod.cyclic`) read Ext and Tor off invariant factors.  They stay here as
the differential reference for that layer: both work on any presentation,
and share no arithmetic with the gcd formulas.

Each is the degree-i (co)homology of Hom(F, N) or F (x) N, flattened
column-major into a free ambient module, cut out by a kernel computation and
presented as a subquotient.
"""

from fgmod.errors import RingMismatch
from fgmod.functors import _present_subquotient, _project_kernel, free_resolution_prefix
from fgmod.linalg import MatrixR, hstack, kron
from fgmod.modules import Presentation


def ext_by_resolution(i: int, M: Presentation, N: Presentation) -> Presentation:
    """Degree-i cohomology of Hom(F, N) for a free resolution F of M."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if M.ring != N.ring:
        raise RingMismatch("Ext of modules over different rings")
    ring = M.ring
    res = free_resolution_prefix(M, i + 1)
    h, Q = N.gens, N.rels
    f_i = res.rank(i)
    dim = h * f_i
    d_out = res.differentials[i]  # F_{i+1} -> F_i
    cond = hstack(
        kron(d_out.transpose(), MatrixR.identity(ring, h)),
        kron(MatrixR.identity(ring, d_out.cols), Q),
    )
    Z = _project_kernel(cond, dim, ring) if cond.rows else MatrixR.identity(ring, dim)
    W = kron(MatrixR.identity(ring, f_i), Q)
    if i > 0:
        d_in = res.differentials[i - 1]  # F_i -> F_{i-1}; precomposition is the coboundary
        W = hstack(kron(d_in.transpose(), MatrixR.identity(ring, h)), W)
    return _present_subquotient(Z, W)


def tor_by_resolution(i: int, M: Presentation, N: Presentation) -> Presentation:
    """Degree-i homology of F (x) N for a free resolution F of M."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if M.ring != N.ring:
        raise RingMismatch("Tor of modules over different rings")
    ring = M.ring
    res = free_resolution_prefix(M, i + 1)
    h, Q = N.gens, N.rels
    f_i = res.rank(i)
    dim = h * f_i
    if i == 0:
        Z = MatrixR.identity(ring, dim)
    else:
        d_out = res.differentials[i - 1]  # F_i -> F_{i-1}
        cond = hstack(
            kron(d_out, MatrixR.identity(ring, h)),
            kron(MatrixR.identity(ring, d_out.rows), Q),
        )
        Z = _project_kernel(cond, dim, ring) if cond.rows else MatrixR.identity(ring, dim)
    d_in = res.differentials[i]  # F_{i+1} -> F_i; its image is the boundary span
    W = hstack(kron(d_in, MatrixR.identity(ring, h)), kron(MatrixR.identity(ring, f_i), Q))
    return _present_subquotient(Z, W)
