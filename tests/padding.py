"""Models with more than the minimal padding, built through the stages, and the
invariants that say what padding and the completion seed change.

``assemble_model`` always takes the minimal padding; a padded model adds to
the ``mult1`` that ``solve_aux`` returns before ``build_U`` and runs the later
stages as ``assemble_model`` does.  The invariants read the model through
``fock_reference.apply`` alone, independent of the builder.
"""

import itertools
from typing import NamedTuple

import numpy as np

from dilation_forge.builder import (CoefficientLayout, CouplingData, DilationModel, build_defects,
                                    build_transfer, build_U, build_V0, effective_algebra,
                                    solve_aux)
from dilation_forge.linalg import adj
from dilation_forge.tuples import AlgebraStructure, TupleSpec
from fock_reference import apply


def padded_covariant_spec():
    # alpha1 = alpha3 = swap, alpha2 = id on C^2 (+) C^1; the rank-one defect
    # direction of hatn makes the component multiplicities of M1/M2 differ,
    # forcing one unit of auxiliary padding
    a, s, c, d = 0.6, 0.8, 0.5, 0.3
    b = a * d / c
    t1 = np.zeros((3, 3), complex); t1[0, 2] = a; t1[2, 1] = b
    t3 = np.zeros((3, 3), complex); t3[0, 2] = c; t3[2, 1] = d
    t2 = np.zeros((3, 3), complex); t2[0, 1] = s
    alg = AlgebraStructure(k=2, block_of=[0, 0, 1], automorphisms=[[1, 0], [0, 1], [1, 0]])
    return TupleSpec.from_operators([t1, t2, t3], algebra=alg)


class Stages(NamedTuple):
    """What the stages of ``assemble_model`` make up to ``build_U``."""

    defects: dict
    merged: TupleSpec
    coupling: CouplingData
    defect_equality: float
    layout: CoefficientLayout
    U: np.ndarray


def padded_coupling(spec, pad, seed=None):
    """The ``Stages`` with U built on ``pad`` coordinates of aux1 per
    component beyond the minimal padding."""
    alg = effective_algebra(spec)
    defects, merged, eq = build_defects(spec, alg)
    coupling = build_V0(spec, defects, alg)
    built = build_U(spec, defects, coupling, solve_aux(spec, coupling) + pad,
                    completion_seed=seed)
    return Stages(defects, merged, coupling, eq, *built)


def padded_model(spec, N, pad, seed=None):
    """``assemble_model(spec, N, completion_seed=seed)``, on
    ``pad`` more padding coordinates per component."""
    st = padded_coupling(spec, pad, seed)
    transfer = build_transfer(spec, st.coupling, st.layout, st.U, st.defect_equality)
    return DilationModel(spec=spec, merged=st.merged, N=N, defects=st.defects, layout=st.layout,
                         transfer=transfer)


def compressions(model):
    """The (n, n, dimH, dimH) array of Pi* V_i* V_j Pi.  A unitary W with
    W Pi = Pi' and W V_j = V'_j W on the minimal space leaves it unchanged."""
    images = np.array([apply(w, model.Pi) for w in list(model.isometries)[:model.spec.n]])
    return adj(images)[:, None] @ images[None]


def minimal_rank(model, degree=2):
    """The rank of the span of V^alpha Pi h over |alpha| <= ``degree``."""
    ws, blocks = list(model.isometries)[:model.spec.n], [model.Pi]
    for k in range(1, degree + 1):
        for word in itertools.combinations_with_replacement(range(len(ws)), k):
            block = model.Pi
            for i in reversed(word):
                block = apply(ws[i], block)
            blocks.append(block)
    return np.linalg.matrix_rank(np.hstack(blocks))
