"""Gauss-diagram invariants of classical and virtual knots.

Submodules:

- :mod:`vknots.diagram`  Gauss diagrams, parsing, virtualization, basepoints
- :mod:`vknots.moves`    generalized Reidemeister moves and simplification
- :mod:`vknots.arrows`   arrow-diagram pairing, v21/v22, GPV-order sums
- :mod:`vknots.forbidden` forbidden moves, F-order sums, n-triviality
- :mod:`vknots.khovanov` bracket, unnormalized Jones, Z2 Khovanov homology
                         from one walk of the states, Lemma 5 certificates
- :mod:`vknots.braids`   4-strand braid words, commutator family, closures
- :mod:`vknots.cli`      command-line interface
"""

from .diagram import (
    Chord,
    DiagramError,
    GaussDiagram,
    ParseError,
    concat_long,
    cut,
    parse_gauss_code,
    read_diagram_file,
    reclose,
    virtualize,
)
from .moves import MoveError, MoveEvent, apply_move, apply_trace, enumerate_moves, simplify
from .arrows import (
    ArrowPattern,
    ArrowPolynomial,
    embeddings,
    gpv_alt_sum,
    load_arrow_polynomial,
    pairing,
    v21,
    v22,
    writhe_polynomial,
)
from .forbidden import (
    FamilyError,
    TriangleSite,
    Verdict,
    certify_trivial,
    check_n_trivial,
    f_alt_sum,
    find_triangles,
    lemma3_residual,
    trivialize_forbidden,
)
from .khovanov import (
    GradedDims,
    bracket,
    distinguish_from_unknot,
    homology,
    jones_hat,
    writhe,
)
from .braids import (
    BraidLetter,
    BraidWord,
    GeneratorDef,
    b_family,
    closure,
    commutator,
    inverse,
    product,
)
from .laurent import LaurentPoly

__version__ = "0.1.0"
