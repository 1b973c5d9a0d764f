"""The index of the harness's claims: what each one states, in report order.

Each entry is (id, statement, rings, default verdict).  The rings are
`all`, `modular` (Z/n only) or `vnr` (von Neumann regular Z/n only); the
default verdict is `pass` or `fail` on grids where the claim has content,
which a grid-dependent expectation in `fgmod.verify` may override.
`fgmod.verify` gives each entry its loops and check; `fgmod verify
--list-claims` reads this index alone, so listing the claims runs neither
the harness nor `fgmod.elimination`.
"""

CLAIMS = (
    ("equiv-reduced-wrt", "the five characterizations of 'reduced relative to M' agree on every instance", "all", "pass"),
    ("equiv-coreduced-wrt", "the five characterizations of 'coreduced relative to M' agree on every instance", "all", "pass"),
    ("gamma-compose",
     "two-argument torsion computed from its limit definition equals the torsion of the hom module", "all", "pass"),
    ("gamma-hom-commute", "two-argument torsion equals Hom(M, torsion of N)", "all", "pass"),
    ("gamma-reflect", "N is reduced relative to M iff the torsion of N is", "all", "pass"),
    ("reduced-implies-wrt", "a reduced module is reduced relative to every module", "all", "pass"),
    ("coreduced-M-absorbs", "a coreduced M makes every module reduced relative to M", "all", "pass"),
    ("tensor-coreduced", "a tensor product with a coreduced factor is coreduced", "all", "pass"),
    ("hom-into-reduced", "Hom out of a module coreduced relative to M lands in the reduced class", "all", "pass"),
    ("tensor-stays", "tensoring a module coreduced relative to M stays in the coreduced class", "all", "pass"),
    ("closure-products", "finite products stay reduced relative to M", "all", "pass"),
    ("closure-sums", "finite sums stay coreduced relative to M", "all", "pass"),
    ("closure-sub", "submodules stay reduced relative to M", "all", "pass"),
    ("closure-quot", "quotients stay coreduced relative to M", "all", "pass"),
    ("extension-closure-R",
     "the reduced-relative-to-M class is closed under extensions (expected counterexample)", "all", "fail"),
    ("extension-closure-C",
     "the coreduced-relative-to-M class is closed under extensions (expected counterexample)", "all", "fail"),
    ("dual-cor-iff-red", "X is coreduced relative to M iff its dual is reduced relative to M", "all", "pass"),
    ("dual-red-then-cor", "the dual of a module reduced relative to M is coreduced relative to M", "all", "pass"),
    ("gamma-dual", "dual of two-argument torsion equals two-argument completion of the dual", "all", "pass"),
    ("lambda-dual", "dual of two-argument completion equals two-argument torsion of the dual", "all", "pass"),
    ("reflexive", "torsion and completion of a reflexive module in both classes are reflexive", "modular", "pass"),
    ("gm-adjunction", "Hom(completion(M,P), N) matches Hom(P, torsion(M,N)) on the two classes", "all", "pass"),
    ("gamma-left-exact", "two-argument torsion preserves kernels on in-class short exact sequences", "all", "pass"),
    ("lambda-right-exact", "two-argument completion preserves cokernels on in-class short exact sequences", "all", "pass"),
    ("both-classes", "tensor and Hom against M/aM land in both classes relative to M", "all", "pass"),
    ("glc-fastpath",
     "collapsed and stabilized-chain local cohomology agree where both are defined "
     "(known counterexamples: free second argument over Z, and non-semisimple Z/n)", "all", "pass"),
    ("glc-proj-vanish", "local cohomology vanishes in positive degrees when M/aM is projective", "all", "pass"),
    ("glh-fastpath",
     "collapsed and stabilized-chain local homology agree where both are defined "
     "(known counterexamples over non-semisimple Z/n)", "all", "pass"),
    ("glh-flat-vanish", "local homology vanishes in positive degrees when M/aM is flat", "all", "pass"),
    ("glh-symmetry", "local homology is symmetric in its two coreduced arguments", "modular", "pass"),
    ("finiteness", "local (co)homology of finite inputs is finite", "all", "pass"),
    ("glh-glc-dual", "dual of local homology equals local cohomology of the dual", "all", "pass"),
    ("glc-glh-dual", "local homology of the dual equals the dual of local cohomology", "all", "pass"),
    ("b-class-membership", "for coreduced M, local (co)homology values land in both classes", "all", "pass"),
    ("inherit-reduced", "if the classical value is reduced relative to M, so is the two-argument value", "all", "pass"),
    ("inherit-coreduced", "if the classical value is coreduced relative to M, so is the two-argument value", "all", "pass"),
    ("vnr-homology-vanish", "over a von Neumann regular ring iterated local homology vanishes off (0,0)", "vnr", "pass"),
    ("vnr-cohomology-vanish",
     "over an Artinian von Neumann regular ring iterated local cohomology vanishes off (0,0)", "vnr", "pass"),
)
