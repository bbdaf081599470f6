"""One-pair Fock products and one-group norms, the references for the verifier's
stacked passes.

``product`` composes two operators from a table of each, and ``terms_norm``
measures a weighted sum of such products as one ``group_norms`` group: the
per-pair form of ``TermTable.products`` and ``group_norms``, in the summation
order the verifier's one-pass checks keep.
"""

import numpy as np

from dilation_forge.fock import TermTable, group_norms


def product(a, b, adjoint=False):
    """Terms of ``a`` (its adjoint with ``adjoint``) times ``b``, one per term
    of ``a`` that meets ``b``; a (dst, src) cell pair never recurs in a term."""
    term, _, to, start, blocks = TermTable([a]).products(TermTable([b]), [0], [0], adjoint)
    cuts = np.searchsorted(term, np.arange(len(a.terms) + 1))
    return [(to[lo:hi], start[lo:hi], blocks[lo:hi])
            for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def terms_norm(model, parts, src, dst=None, minus_identity=False):
    """Frobenius norm of sum_k c_k T_k (minus the identity) on src x dst cells.

    ``parts`` pairs coefficients c_k with term lists T_k; ``src`` and ``dst``
    are boolean cell masks, ``dst=None`` keeps every destination cell.  Blocks
    at the same (dst, src) cell pair are added in the order of ``parts``
    before the norm is taken.
    """
    cells, d = model.cell_count, model.coeff_dim
    flat = [(coef, term) for coef, terms in parts for term in terms]
    if minus_identity:
        every = np.arange(cells)
        flat.append((-1.0, (every, every, np.broadcast_to(np.eye(d), (cells, d, d)))))
    if not flat:
        return 0.0
    to = np.concatenate([term[0] for _, term in flat])
    start = np.concatenate([term[1] for _, term in flat])
    keep = src[start] if dst is None else src[start] & dst[to]
    blocks = np.concatenate([coef * term[2] for coef, term in flat])[keep]
    return float(group_norms(model, 0, to[keep], start[keep], blocks, 1)[0])
