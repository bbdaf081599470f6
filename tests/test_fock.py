from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_forge.builder import assemble_model, dilated_isometries
from dilation_forge.errors import DimensionMismatch
from dilation_forge.fock import (FockModel, FockOperator, TermTable, creation_matrix,
                                 enumerate_indices, group_norms, interior_cells,
                                 interior_projector, parent_rows)
from dilation_forge.generators import random_tuple
from dilation_forge.linalg import adj
from fock_reference import product as pair_product, terms_norm


def trivial_model(m, N, coeff=1):
    return FockModel(m=m, N=N, coeff_dim=coeff, merged_phases=np.ones((m, m)))


def random_model(m, N, coeff, seed, quarter_turns):
    """A model whose phase table has u(s, t) != 1 off the diagonal.

    With ``quarter_turns`` the phases are powers of i, whose products are
    exact in floating point, so dense forms can be compared bit for bit.
    """
    rng = np.random.default_rng(seed)
    if quarter_turns:
        phases = np.array([1j, -1, -1j])[rng.integers(0, 3, (m, m))]
    else:
        phases = np.exp(2j * np.pi * rng.uniform(0.05, 0.95, (m, m)))
    upper = np.triu(phases, 1)
    return FockModel(m=m, N=N, coeff_dim=coeff, merged_phases=upper + adj(upper) + np.eye(m)), rng


def index_list(model):
    return [tuple(alpha) for alpha in model.cells.tolist()]


def index_of(model):
    return {alpha: c for c, alpha in enumerate(index_list(model))}


def phase_front(model, s, alpha):
    """Front insertion of slot s: prod_{t < s} u(s, t)^alpha_t, factor by factor."""
    out = 1.0 + 0.0j
    for t in range(s):
        out *= complex(model.merged_phases[s, t]) ** alpha[t]
    return out


def phase_back(model, s, alpha):
    """Coefficient-end insertion of slot s: prod_{t > s} u(t, s)^alpha_t."""
    out = 1.0 + 0.0j
    for t in range(s + 1, model.m):
        out *= complex(model.merged_phases[t, s]) ** alpha[t]
    return out


def back_phases(model, s):
    return [phase_back(model, s, alpha) for alpha in index_list(model)]


def kron_reference(model, diag, shift, slot, phase_fn, kappa):
    """Dense kappa-weighted (I (x) diag + cell shift alpha -> alpha + e_slot (x) shift)."""
    cells, d = model.cell_count, model.coeff_dim
    cell = np.zeros((cells, cells), dtype=complex)
    position = index_of(model)
    for src, alpha in enumerate(index_list(model)):
        if sum(alpha) < model.N:
            dst = position[tuple(v + (k == slot) for k, v in enumerate(alpha))]
            cell[dst, src] = phase_fn(alpha)
    out = np.kron(cell, np.eye(d) if shift is None else shift)
    if diag is not None:
        out = out + np.kron(np.eye(cells), diag)
    return out * np.repeat(kappa, d)[None, :]


def dense(model, terms):
    """The dim x dim matrix of a list of (dst cells, src cells, blocks) terms."""
    cells, d = model.cell_count, model.coeff_dim
    out = np.zeros((cells, d, cells, d), dtype=complex)
    for dst, src, blocks in terms:
        out[dst, :, src, :] += blocks
    return out.reshape(model.dim, model.dim)


def unit_columns(mask):
    return np.eye(mask.size, dtype=complex)[:, mask]


def test_enumerate_basics():
    assert enumerate_indices(1, 2).tolist() == [[0], [1], [2]]
    assert enumerate_indices(2, 1).tolist() == [[0, 0], [1, 0], [0, 1]]
    assert len(enumerate_indices(2, 2)) == 6
    cells = trivial_model(2, 2).cells
    assert cells.shape == (6, 2) and not cells.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_matches_sorted_box(m):
    """The (N+1)^m box filtered to |alpha| <= N, sorted by (degree, reversed tuple)."""
    for N in range(7):
        box = [a for a in product(range(N + 1), repeat=m) if sum(a) <= N]
        ref = sorted(box, key=lambda a: (sum(a), a[::-1]))
        assert enumerate_indices(m, N).tolist() == [list(a) for a in ref]


@pytest.mark.parametrize("m,N", [(1, 3), (2, 4), (3, 3), (5, 2)])
def test_successor_matches_position_lookup(m, N):
    model = trivial_model(m, N)
    position = index_of(model)
    for s in range(m):
        src, dst = model.successor(s)
        ref = [(c, position[a[:s] + (a[s] + 1,) + a[s + 1:]])
               for c, a in enumerate(index_list(model)) if sum(a) < N]
        assert list(zip(src.tolist(), dst.tolist())) == ref


@pytest.mark.parametrize("m,N", [(1, 0), (1, 3), (2, 4), (3, 3), (5, 2)])
def test_successor_table_is_built_once(m, N):
    model = trivial_model(m, N)
    table = model.successors
    assert table.shape == (m, model.cell_count) and not table.flags.writeable
    assert model.successors is table
    top = model.cells.sum(axis=1) == N
    assert (table[:, top] == -1).all()
    assert (model.cells[table[:, ~top]] == model.cells[~top] + np.eye(m, dtype=int)[:, None]).all()


def test_operators_from_successor_table_are_bit_identical(monkeypatch):
    model = assemble_model(random_tuple("u-commuting", 3, 4, seed=5), N=4)
    built = [np.asarray(w) for w in model.isometries] + [np.asarray(model.L1)]

    def successor_by_search(fock, s):
        position = index_of(fock)
        src = [c for c, a in enumerate(index_list(fock)) if sum(a) < fock.N]
        dst = [position[a[:s] + (a[s] + 1,) + a[s + 1:]]
               for a in (index_list(fock)[c] for c in src)]
        return np.array(src, dtype=int), np.array(dst, dtype=int)

    monkeypatch.setattr(FockModel, "successor", successor_by_search)
    again = dilated_isometries(model.spec, model.transfer, model.layout, model.fock)
    again.append(creation_matrix(model.fock, 0))
    assert all(np.array_equal(a, np.asarray(b)) for a, b in zip(built, again))


@pytest.mark.parametrize("m,N", [(1, 0), (1, 3), (2, 4), (3, 3), (5, 2)])
def test_parent_rows_drop_first_or_last_unit(m, N):
    cells = enumerate_indices(m, N)
    rows = [tuple(a) for a in cells.tolist()]
    for last in (False, True):
        slot, parent = parent_rows(cells, last=last)
        for r, a in enumerate(rows):
            if not any(a):
                assert parent[r] == r
                continue
            s = [k for k, v in enumerate(a) if v][-1 if last else 0]
            assert slot[r] == s
            assert rows[parent[r]] == a[:s] + (a[s] - 1,) + a[s + 1:]


def test_parent_rows_need_every_parent():
    with pytest.raises(DimensionMismatch):
        parent_rows(np.array([[0, 0], [2, 1]]))


def test_enumerate_count_formula():
    for m in (1, 2, 3):
        for N in (0, 1, 3, 5):
            assert len(enumerate_indices(m, N)) == comb(m + N, m)


SHAPES = [(1, 0, 2), (2, 0, 1), (1, 1, 3), (3, 1, 2), (2, 3, 2), (3, 2, 3), (1, 4, 1)]


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_fock_operator_matches_kron_reference(m, N, coeff, quarter_turns):
    model, rng = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    same = np.array_equal if quarter_turns else lambda a, b: np.allclose(a, b, rtol=0, atol=1e-15)

    def cmat(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for s in range(m):
        diag, shift = cmat(coeff, coeff), cmat(coeff, coeff)
        kappa = model.merged_phases[s, rng.integers(0, m, model.cell_count)]
        op = FockOperator(model, diag, shift, s, back_phases(model, s), kappa)
        ref = kron_reference(model, diag, shift, s, lambda a: phase_back(model, s, a), kappa)
        assert same(np.asarray(op), ref)
        x = cmat(model.dim, 3)
        assert np.allclose(op.apply(x), ref @ x, atol=1e-13)
        assert np.allclose(op.apply_adj(x), adj(ref) @ x, atol=1e-13)
        creation = kron_reference(model, None, None, s, lambda a: phase_front(model, s, a),
                                  np.ones(model.cell_count))
        assert same(np.asarray(creation_matrix(model, s)), creation)


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_cell_phases_match_per_cell_loops(m, N, coeff, quarter_turns):
    model, _ = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    same = np.array_equal if quarter_turns else lambda a, b: np.allclose(a, b, rtol=0, atol=1e-15)
    slots, u = np.arange(m), model.merged_phases
    for s in range(m):
        front = [phase_front(model, s, a) for a in index_list(model)]
        assert same(model.cell_phases(np.where(slots < s, u[s], 1)), np.array(front))
        assert same(model.cell_phases(np.where(slots > s, u[:, s], 1)),
                    np.array(back_phases(model, s)))


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_creation_phases_are_the_cell_phases_of_each_slot(m, N, coeff, quarter_turns):
    model, _ = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    table = model.creation_phases
    assert table.shape == (m, model.cell_count) and not table.flags.writeable
    assert model.creation_phases is table  # built once per model
    for s in range(m):
        costs = np.where(np.arange(m) < s, model.merged_phases[s], 1)
        assert table[s].tobytes() == model.cell_phases(costs).tobytes()


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), N=st.integers(0, 5), seed=st.integers(0, 2 ** 16),
       quarter_turns=st.booleans())
def test_cell_and_creation_phases_are_unimodular_characters(m, N, seed, quarter_turns):
    """phase(alpha + beta) = phase(alpha) phase(beta) and |phase| = 1 for
    ``cell_phases`` of unimodular costs and every row of ``creation_phases``:
    the verifier's fixed-degree checks rest on this."""
    model, rng = random_model(m, N, 1, seed, quarter_turns)
    costs = np.exp(2j * np.pi * rng.uniform(0, 1, m))
    where = index_of(model)
    cells = index_list(model)
    pairs = [(where[a], where[b], where[tuple(x + y for x, y in zip(a, b))])
             for a in cells for b in cells if sum(a) + sum(b) <= N]
    first, second, total = np.array(pairs).T
    for phase in [model.cell_phases(costs), *model.creation_phases]:
        assert phase[0] == 1
        assert np.allclose(np.abs(phase), 1, rtol=0, atol=1e-14)
        assert np.allclose(phase[total], phase[first] * phase[second], rtol=0, atol=1e-14)


def operator_zoo(model, rng, quarter_turns):
    """A weighted diagonal-plus-shift operator and a creation operator per slot.

    With ``quarter_turns`` the blocks have Gaussian-integer entries, so every
    product and sum of blocks is exact in floating point whatever the order.
    """
    d, m = model.coeff_dim, model.m

    def block():
        if quarter_turns:
            return rng.integers(-3, 4, (d, d)) + 1j * rng.integers(-3, 4, (d, d))
        return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2 * d)

    ops = []
    for s in range(m):
        kappa = model.merged_phases[s, rng.integers(0, m, model.cell_count)]
        ops += [FockOperator(model, block(), block(), s, back_phases(model, s), kappa),
                creation_matrix(model, s)]
    return ops


def dense_products(model, pairs, pair, to, start, blocks):
    """The dim x dim matrix of each of ``pairs`` products from the rows of
    ``TermTable.products``, blocks at the same cell pair added."""
    cells, d = model.cell_count, model.coeff_dim
    out = np.zeros((pairs, cells, d, cells, d), dtype=complex)
    np.add.at(out, (pair, to, slice(None), start, slice(None)), blocks)
    return out.reshape(pairs, model.dim, model.dim)


def masked(matrix, src, dst, coeff):
    """``matrix`` with the columns outside the ``src`` cells and the rows outside
    the ``dst`` cells set to zero."""
    return matrix * np.repeat(dst, coeff)[:, None] * np.repeat(src, coeff)[None, :]


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_products_match_dense_products(m, N, coeff, quarter_turns):
    """All ordered products of a table's operators (and with ``adjoint``) from
    one ``TermTable.products`` call each; then mixed pair lists against a
    second table, with source and destination cell masks."""
    model, rng = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    same = np.array_equal if quarter_turns else lambda a, b: np.allclose(a, b, rtol=0, atol=1e-15)
    ops = operator_zoo(model, rng, quarter_turns)
    mats = [np.asarray(w) for w in ops]
    table = TermTable(ops)
    left, right = np.divmod(np.arange(len(ops) ** 2), len(ops))
    for adjoint in (False, True):
        term, pair, to, start, blocks = table.products(table, left, right, adjoint)
        assert (np.diff(term * len(left) + pair) >= 0).all()  # by left term, then pair
        got = dense_products(model, len(left), pair, to, start, blocks)
        for p, (a, b) in enumerate(zip(left, right)):
            assert same(got[p], (adj(mats[a]) if adjoint else mats[a]) @ mats[b]), (p, adjoint)
    others = ops[::-2] + [ops[0]]
    other = TermTable(others)
    left = rng.integers(0, len(ops), 7)
    right = rng.integers(0, len(others), 7)
    for adjoint in (False, True):
        src, dst = rng.random(model.cell_count) < 0.6, rng.random(model.cell_count) < 0.6
        for src_mask, dst_mask in ((None, None), (src, None), (None, dst), (src, dst)):
            _, pair, to, start, blocks = table.products(other, left, right, adjoint,
                                                        src=src_mask, dst=dst_mask)
            got = dense_products(model, len(left), pair, to, start, blocks)
            keep_src = np.ones(model.cell_count, bool) if src_mask is None else src_mask
            keep_dst = np.ones(model.cell_count, bool) if dst_mask is None else dst_mask
            for p, (a, b) in enumerate(zip(left, right)):
                full = (adj(mats[a]) if adjoint else mats[a]) @ np.asarray(others[b])
                assert same(got[p], masked(full, keep_src, keep_dst, coeff)), (p, adjoint)
    if N <= 1:  # a second creation shifts past the truncation degree
        creations = TermTable([creation_matrix(model, s) for s in range(m)])
        every = np.arange(m)
        assert creations.products(creations, every.repeat(m), np.tile(every, m))[0].size == 0


@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_group_norms_match_dense_masked_norms(m, N, coeff):
    """Weighted products spread over several groups, one of them empty, against
    the norms of the dense weighted sums on the masked cells."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 2, quarter_turns=False)
    ops = operator_zoo(model, rng, quarter_turns=False)
    mats = [np.asarray(w) for w in ops]
    table = TermTable(ops)
    left, right = rng.integers(0, len(ops), 9), rng.integers(0, len(ops), 9)
    group = rng.integers(0, 3, 9)  # group 3 gets no blocks
    coef = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for _ in range(4):
        src, dst = rng.random(model.cell_count) < 0.6, rng.random(model.cell_count) < 0.6
        for adjoint in (False, True):
            _, pair, to, start, blocks = table.products(table, left, right, adjoint, src, dst)
            norms = group_norms(model, group[pair], to, start,
                                coef[pair, None, None] * blocks, 4)
            for g in range(4):
                whole = sum((coef[p] * (adj(mats[left[p]]) if adjoint else mats[left[p]])
                             @ mats[right[p]] for p in np.flatnonzero(group == g)),
                            np.zeros((model.dim, model.dim)))
                assert np.isclose(norms[g], np.linalg.norm(masked(whole, src, dst, coeff)),
                                  rtol=1e-13, atol=1e-15), (g, adjoint)
    empty = np.zeros(0, dtype=int)
    assert np.array_equal(group_norms(model, empty, empty, empty,
                                      np.zeros((0, coeff, coeff), dtype=complex), 3),
                          np.zeros(3))


@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_terms_norm_matches_dense_masked_norm(m, N, coeff):
    """The one-pair ``product`` and one-group ``terms_norm`` references that the
    verifier's tests compare the stacked passes with."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 1, quarter_turns=False)
    ops = operator_zoo(model, rng, quarter_turns=False)
    a, b = ops[0], ops[-2]
    parts = [(1.0, pair_product(a, b)), (-0.7 + 0.2j, pair_product(b, a)),
             (0.5, pair_product(a, a, adjoint=True))]
    whole = sum(c * dense(model, terms) for c, terms in parts)
    assert np.allclose(whole, np.asarray(a) @ np.asarray(b) + (-0.7 + 0.2j) * np.asarray(b)
                       @ np.asarray(a) + 0.5 * adj(np.asarray(a)) @ np.asarray(a),
                       rtol=0, atol=1e-14)
    for _ in range(4):
        src, dst = rng.random(model.cell_count) < 0.6, rng.random(model.cell_count) < 0.6
        cols, rows = np.repeat(src, coeff), np.repeat(dst, coeff)
        for minus_identity in (False, True):
            ref = whole - np.eye(model.dim) * minus_identity
            assert np.isclose(terms_norm(model, parts, src, minus_identity=minus_identity),
                              np.linalg.norm(ref[:, cols]), rtol=1e-13, atol=1e-15)
            assert np.isclose(terms_norm(model, parts, src, dst, minus_identity),
                              np.linalg.norm(ref[np.ix_(rows, cols)]), rtol=1e-13, atol=1e-15)
    assert terms_norm(model, [], src, dst) == 0.0


def test_interior_cells_repeat_to_projector():
    model = trivial_model(3, 3, coeff=2)
    for margin in range(4):
        assert np.array_equal(np.repeat(interior_cells(model, margin), 2),
                              interior_projector(model, margin))


def test_creation_is_jordan_shift():
    model = trivial_model(1, 1)
    L = creation_matrix(model, 0)
    assert np.allclose(np.asarray(L), np.array([[0, 0], [1, 0]]))
    assert np.allclose(L.apply(L.apply(np.eye(2))), 0)


def test_creation_isometry_on_interior():
    model = trivial_model(2, 3, coeff=2)
    inner = interior_projector(model, 1)
    e1 = unit_columns(inner)
    for s in range(2):
        L = creation_matrix(model, s)
        assert np.linalg.norm(L.apply_adj(L.apply(e1))[inner] - e1[inner]) < 1e-14
    # ranges of distinct generators are orthogonal cellwise: the same source
    # cell lands in different target cells, so the cell-diagonal of L0* L1
    # vanishes (the full product is a shift, not zero: the generators commute)
    l0, l1 = creation_matrix(model, 0), creation_matrix(model, 1)
    cross = l0.apply_adj(l1.apply(np.eye(model.dim)))
    d = model.coeff_dim
    for c in range(model.cell_count):
        assert np.linalg.norm(cross[c * d:(c + 1) * d, c * d:(c + 1) * d]) == 0.0


def test_creation_phase_single_crossing():
    phases = np.array([[1, 1j], [-1j, 1]])  # u(1,0) = -i
    model = FockModel(m=2, N=2, coeff_dim=1, merged_phases=phases)
    L = np.asarray(creation_matrix(model, 1))
    position = index_of(model)
    assert L[position[(1, 1)], position[(1, 0)]] == pytest.approx(-1j)
    # creating on (0,0) crosses nothing
    assert L[position[(0, 1)], position[(0, 0)]] == pytest.approx(1.0)


def test_creation_u_commutation():
    phases = np.array([[1, 1j], [-1j, 1]])
    model = FockModel(m=2, N=4, coeff_dim=1, merged_phases=phases)
    e2 = unit_columns(interior_projector(model, 2))
    l0, l1 = creation_matrix(model, 0), creation_matrix(model, 1)
    u01 = phases[0, 1]
    assert np.linalg.norm(l0.apply(l1.apply(e2)) - u01 * l1.apply(l0.apply(e2))) < 1e-14


def test_interior_projector_margins():
    model = trivial_model(2, 2)
    assert interior_projector(model, 0).all() and interior_projector(model, 0).size == model.dim
    assert interior_projector(trivial_model(1, 2), 1).tolist() == [True, True, False]
    assert interior_projector(model, 2).tolist() == [True, False, False, False, False, False]
    assert interior_projector(trivial_model(1, 2, coeff=2), 2).tolist() == [True, True] + [False] * 4


def test_transfer_shift_trivial_phases_is_plain_shift():
    model = trivial_model(2, 2, coeff=2)
    shift = FockOperator(model, None, np.eye(2), 0, back_phases(model, 0))
    assert np.array_equal(np.asarray(shift), np.asarray(creation_matrix(model, 0)))
    # the adjoint annihilates cells with alpha_0 = 0
    for c, alpha in enumerate(index_list(model)):
        if alpha[0] == 0:
            idx = c * 2
            assert np.linalg.norm(shift.apply_adj(np.eye(model.dim)[:, idx:idx + 2])) == 0


def test_transfer_shift_phases_are_back_insertion():
    phases = np.array([[1, 1j], [-1j, 1]])
    model = FockModel(m=2, N=3, coeff_dim=1, merged_phases=phases)
    shift = np.asarray(FockOperator(model, None, np.eye(1), 0, back_phases(model, 0)))
    L0 = np.asarray(creation_matrix(model, 0))
    # same sparsity and magnitudes as front creation of the merged slot
    assert np.allclose(np.abs(shift), np.abs(L0))
    # entries differ exactly by the crossing phase u(1,0)^{alpha_1}
    src, dst = index_of(model)[(0, 2)], index_of(model)[(1, 2)]
    assert shift[dst, src] == pytest.approx(phases[1, 0] ** 2)
    assert L0[dst, src] == pytest.approx(1.0)


def test_fock_operator_dimension_check():
    model = trivial_model(2, 1, coeff=3)
    ones = np.ones(model.cell_count)
    with pytest.raises(DimensionMismatch):
        FockOperator(model, None, np.eye(2), 0, ones)
    with pytest.raises(DimensionMismatch):
        FockOperator(model, np.eye(3), None, 0, ones[:-1])
    with pytest.raises(DimensionMismatch):
        creation_matrix(model, 0).apply(np.eye(model.dim - 1))
