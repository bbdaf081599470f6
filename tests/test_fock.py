import re
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_forge.builder import assemble_model, dilated_isometries
from dilation_forge.errors import DilationForgeError, DimensionMismatch, MalformedSpec, NonFinite
from dilation_forge.fock import (MAX_CELLS, PHASE_TOL, FockFamily, FockModel, apply_adjoints,
                                 creation_matrix, creation_terms, enumerate_indices,
                                 interior_cells, interior_projector, isometry_defects,
                                 _deviation_sums, product_norms)
from dilation_forge.generators import random_tuple
from dilation_forge.io import model_from_dict, model_to_dict
from dilation_forge.linalg import adj
from dilation_forge.verifier import full_report
from fock_reference import (apply, product as pair_product, sparse_product,
                            sparse_terms_norm, term_lists, terms_norm, two_block_terms)


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


def back_costs(model, s):
    """The costs of coefficient-end insertion of slot s: u(t, s) for t > s."""
    return np.where(np.arange(model.m) > s, model.merged_phases[:, s], 1)


def character(costs, alpha):
    """prod_s costs[s]^alpha_s, factor by factor."""
    out = 1.0 + 0.0j
    for c, a in zip(costs, alpha):
        out *= complex(c) ** a
    return out


def random_costs(model, rng, quarter_turns):
    """m unimodular character costs; powers of i with ``quarter_turns``."""
    if quarter_turns:
        return np.array([1, 1j, -1, -1j])[rng.integers(0, 4, model.m)]
    return np.exp(2j * np.pi * rng.uniform(0, 1, model.m))


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


def unit_columns(mask):
    return np.eye(mask.size, dtype=complex)[:, mask]


def test_enumerate_basics():
    assert enumerate_indices(1, 2)[0].tolist() == [[0], [1], [2]]
    assert enumerate_indices(2, 1)[0].tolist() == [[0, 0], [1, 0], [0, 1]]
    assert len(enumerate_indices(2, 2)[0]) == 6
    cells = trivial_model(2, 2).cells
    assert cells.shape == (6, 2) and not cells.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_matches_sorted_box(m):
    """The (N+1)^m box filtered to |alpha| <= N, sorted by (degree, reversed tuple)."""
    for N in range(7):
        box = [a for a in product(range(N + 1), repeat=m) if sum(a) <= N]
        ref = sorted(box, key=lambda a: (sum(a), a[::-1]))
        assert enumerate_indices(m, N)[0].tolist() == [list(a) for a in ref]


@pytest.mark.parametrize("m,N", [(1, 0), (1, 3), (2, 4), (3, 3), (5, 2), (4, 4), (6, 3), (2, 9)])
def test_successor_matches_position_lookup(m, N):
    model = trivial_model(m, N)
    position = index_of(model)
    for s in range(m):
        src = np.flatnonzero(model.successors[s] >= 0)
        dst = model.successors[s, src]
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
    built = [np.asarray(w) for w in model.isometries]

    def successors_by_search(fock):
        position = index_of(fock)
        return np.array([[position.get(a[:s] + (a[s] + 1,) + a[s + 1:], -1)
                          for a in index_list(fock)] for s in range(fock.m)])

    monkeypatch.setattr(FockModel, "successors", property(successors_by_search))
    again = list(dilated_isometries(model.spec, model.transfer, model.layout, model.fock))
    again.append(creation_matrix(model.fock, 0))
    assert len(again) == len(built) + 1
    assert all(np.array_equal(a, np.asarray(b)) for a, b in zip(built + built[-1:], again))


@pytest.mark.parametrize("m,N", [(1, 0), (1, 3), (2, 4), (3, 3), (5, 2)])
def test_parent_rows_drop_first_or_last_unit(m, N):
    """The enumerator's links drop each row's first unit, from a parent of
    one degree less; read with the slots reversed, they drop its last unit."""
    cells, slot, parent = enumerate_indices(m, N)
    assert not (slot.flags.writeable or parent.flags.writeable)
    rows = [tuple(a) for a in cells.tolist()]
    for last in (False, True):
        read = [a[::-1] for a in rows] if last else rows
        for r, a in enumerate(read):
            if not any(a):
                assert r == 0 and parent[r] == r and slot[r] == 0
                continue
            s = [k for k, v in enumerate(a) if v][-1 if last else 0]
            assert (m - 1 - slot[r] if last else slot[r]) == s
            assert read[parent[r]] == a[:s] + (a[s] - 1,) + a[s + 1:]
            assert sum(cells[parent[r]]) == sum(a) - 1


def test_enumerate_count_formula():
    for m in (1, 2, 3):
        for N in (0, 1, 3, 5):
            assert len(enumerate_indices(m, N)[0]) == comb(m + N, m)


def test_cell_budget_bounds_the_model():
    """At most ``MAX_CELLS`` cells; the check reads only the count, so a degree
    of 10^9 fails at once."""
    assert trivial_model(1, MAX_CELLS - 1).cell_count == MAX_CELLS
    for m, N in ((1, MAX_CELLS), (3, 57), (4, 10 ** 9)):
        assert comb(m + N, m) > MAX_CELLS
        with pytest.raises(DimensionMismatch, match=f"budget of {MAX_CELLS}"):
            trivial_model(m, N)


@pytest.mark.parametrize("phases,where", [([["1", "1"], ["1", "1"]], "(0, 0)"),
                                          ([[True]], "(0, 0)"), ([[None]], "(0, 0)"),
                                          ([[1.0, 1.0], [1.0, "1"]], "(1, 1)")])
def test_a_phase_that_is_not_a_number_is_named(phases, where):
    """A hand-made model's merged phase table follows the tuple's rule for a
    number: a numeric string is not parsed, a bool is not 1, None is not NaN;
    each is a ``MalformedSpec`` naming its entry."""
    with pytest.raises(MalformedSpec, match=rf"entry \({where[1:-1]}\) is "):
        FockModel(m=len(phases), N=1, coeff_dim=1, merged_phases=phases)


@pytest.mark.parametrize("counts,message", [
    ({"m": 2.0}, "Fock model m must be an integer, got 2.0"),
    ({"N": 1.5}, "Fock model N must be an integer, got 1.5"),
    ({"N": True}, "Fock model N must be an integer, got True"),
    ({"N": -1}, "Fock model N must be >= 0, got -1"),
    ({"coeff_dim": -1}, "Fock model coeff_dim must be >= 0, got -1"),
    ({"coeff_dim": np.True_}, "Fock model coeff_dim must be an integer, got np.True_")])
def test_fock_model_counts_are_integers(counts, message):
    """m, N and coeff_dim are integers >= 0, Python or numpy but not bools,
    checked before the cell count: each malformed one is a ``DilationForgeError``
    naming it (N = 1.5 once raised a raw ``TypeError`` from ``comb``, and
    coeff_dim = -1 built a model of negative dimension)."""
    kwargs = {"m": 2, "N": 1, "coeff_dim": 1, "merged_phases": np.ones((2, 2))} | counts
    with pytest.raises(DilationForgeError, match=f"^{re.escape(message)}$"):
        FockModel(**kwargs)


def test_fock_model_of_no_generator_is_a_dimension_mismatch():
    """m = 0 stays a ``DimensionMismatch``, and numpy counts are stored as ints."""
    with pytest.raises(DimensionMismatch):
        FockModel(m=0, N=1, coeff_dim=1, merged_phases=np.ones((0, 0)))
    model = FockModel(m=np.int64(2), N=np.uint8(1), coeff_dim=np.int32(0),
                      merged_phases=np.ones((2, 2)))
    assert [type(x) for x in (model.m, model.N, model.coeff_dim)] == [int] * 3 and model.dim == 0


SHAPES = [(1, 0, 2), (2, 0, 1), (1, 1, 3), (3, 1, 2), (2, 3, 2), (3, 2, 3), (1, 4, 1)]


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_fock_operator_matches_kron_reference(m, N, coeff, quarter_turns):
    model, rng = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    same = np.array_equal if quarter_turns else lambda a, b: np.allclose(a, b, rtol=0, atol=1e-15)

    def cmat(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for s in range(m):
        diag, shift, costs = cmat(coeff, coeff), cmat(coeff, coeff), random_costs(model, rng,
                                                                                  quarter_turns)
        op = FockFamily(model, [two_block_terms(model, diag, shift, s, back_costs(model, s),
                                                costs)])
        kappa = [character(costs, alpha) for alpha in index_list(model)]
        ref = kron_reference(model, diag, shift, s, lambda a: phase_back(model, s, a), kappa)
        assert same(np.asarray(op), ref)
        x = cmat(model.dim, 3)
        assert np.allclose(apply(op, x), ref @ x, atol=1e-13)
        assert np.allclose(apply_adjoints(op, x)[0], adj(ref) @ x, atol=1e-13)
        creation = kron_reference(model, None, None, s, lambda a: phase_front(model, s, a),
                                  np.ones(model.cell_count))
        assert same(np.asarray(creation_matrix(model, s)), creation)


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("style,n", [("u-commuting", 3), ("covariant", 4), ("scaled-commuting", 5)])
def test_stacked_adjoints_match_each_operator(style, n, N):
    """``apply_adjoints`` over (tau1, L_2, ..., L_{n-1}, taun, L1) equals
    ``apply_adjoints`` of each operator alone bit for bit, on five columns and
    on one, and the dense adjoints within rounding."""
    model = assemble_model(random_tuple(style, n, 4, seed=N), N=N)
    ops = model.isometries
    rng = np.random.default_rng(N)
    x = rng.standard_normal((model.fock.dim, 5)) + 1j * rng.standard_normal((model.fock.dim, 5))
    stacked = apply_adjoints(ops, x)
    assert stacked.shape == (len(ops), model.fock.dim, 5)
    for got, op in zip(stacked, ops):
        assert np.array_equal(got, apply_adjoints(op, x)[0])
        assert np.allclose(got, adj(np.asarray(op)) @ x, atol=1e-13)
    column = apply_adjoints(ops, x[:, :1])
    for got, many, op in zip(column, stacked, ops):
        assert np.array_equal(got, apply_adjoints(op, x[:, 0])[0])
        assert np.allclose(got, many[:, :1], atol=1e-13)


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
                    np.array([phase_back(model, s, a) for a in index_list(model)]))


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_creation_phases_are_the_cell_phases_of_each_slot(m, N, coeff, quarter_turns):
    """Creation operator s is one identity block with the front-insertion
    costs u(s, t), t < s, and its phases on the cells it shifts are their
    ``cell_phases``, read in one table built once."""
    model, _ = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    for s in range(m):
        op = creation_matrix(model, s)
        costs = np.where(np.arange(m) < s, model.merged_phases[s], 1)
        [slot], [block], [got] = op.slots, op.blocks, op.costs
        assert slot == s and np.array_equal(block, np.eye(coeff))
        assert got.tobytes() == costs.astype(complex).tobytes()
        [read], [phase], _ = op.reads
        assert op.reads is op.reads  # built once per family
        assert phase.tobytes() == model.cell_phases(costs).conj().tobytes()
        src = np.flatnonzero(read >= 0)  # the cells below the truncation
        assert np.array_equal(src, np.flatnonzero(model.cells.sum(axis=1) < N))
        assert np.array_equal(model.cells[read[src]], model.cells[src] + np.eye(m, dtype=int)[s])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), N=st.integers(0, 5), seed=st.integers(0, 2 ** 16),
       quarter_turns=st.booleans())
def test_cell_and_creation_phases_are_unimodular_characters(m, N, seed, quarter_turns):
    """phase(alpha + beta) = phase(alpha) phase(beta) and |phase| = 1 for
    ``cell_phases`` of unimodular costs and for the costs of every creation
    operator: ``product_norms`` rests on this."""
    model, rng = random_model(m, N, 1, seed, quarter_turns)
    costs = np.exp(2j * np.pi * rng.uniform(0, 1, m))
    where = index_of(model)
    cells = index_list(model)
    pairs = [(where[a], where[b], where[tuple(x + y for x, y in zip(a, b))])
             for a in cells for b in cells if sum(a) + sum(b) <= N]
    first, second, total = np.array(pairs).T
    creations = [model.cell_phases(creation_matrix(model, s).costs[0]) for s in range(m)]
    for phase in [model.cell_phases(costs), *creations]:
        assert phase[0] == 1
        assert np.allclose(np.abs(phase), 1, rtol=0, atol=1e-14)
        assert np.allclose(phase[total], phase[first] * phase[second], rtol=0, atol=1e-14)


def random_block(model, rng, quarter_turns):
    """A d x d block: Gaussian-integer entries with ``quarter_turns``, so that
    with costs that are powers of i every product and sum of blocks and
    phases is exact in floating point whatever the order."""
    d = model.coeff_dim
    if quarter_turns:
        return rng.integers(-3, 4, (d, d)) + 1j * rng.integers(-3, 4, (d, d))
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2 * d)


def operator_zoo(model, rng, quarter_turns):
    """The terms of a diagonal-plus-shift operator of random character costs
    and of a creation operator per slot, exact in floating point with
    ``quarter_turns`` (``random_block``)."""
    m = model.m

    def block():
        return random_block(model, rng, quarter_turns)

    ops = []
    for s in range(m):
        terms = two_block_terms(model, block(), block(), s,
                                random_costs(model, rng, quarter_turns),
                                random_costs(model, rng, quarter_turns))
        ops += [terms, *creation_terms(model, [s])]
    return ops


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_products_match_dense_products(m, N, coeff, quarter_turns):
    """The closed-form norm of every product of two operators of the zoo or
    the identity, on the source cells of every margin, equals the norm of the
    dense product there: bit for bit with quarter turns, whose sums are exact."""
    model, rng = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    same = (lambda a, b: a == b) if quarter_turns else \
        (lambda a, b: np.isclose(a, b, rtol=1e-13, atol=1e-15))
    ops = FockFamily(model, operator_zoo(model, rng, quarter_turns))
    mats = [np.asarray(w) for w in ops] + [np.eye(model.dim)]  # index len(ops): the identity
    left, right = np.divmod(np.arange(len(mats) ** 2), len(mats))
    every = np.arange(len(left))
    for src in range(N + 1):
        norms = product_norms(ops, left, right, np.ones(len(left)), every,
                              np.full(len(left), src))
        for g, (a, b) in enumerate(zip(left, right)):
            ref = terms_norm(model, [(1.0, pair_product(mats[a], mats[b]))], src)
            assert same(norms[g], ref), (src, a, b, norms[g], ref)
    if N <= 1:  # a second creation shifts past the truncation degree
        creations = np.arange(1, len(ops), 2)
        pairs = len(creations) ** 2
        norms = product_norms(ops, creations.repeat(len(creations)), np.tile(creations, m),
                              np.ones(pairs), np.arange(pairs), np.zeros(pairs, dtype=int))
        assert not norms.any()


@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_group_norms_match_dense_masked_norms(m, N, coeff):
    """Weighted sums of products spread over several groups, one of them
    empty, each group with its own margin, against the norms of the dense
    weighted sums on those source cells.  Products of one group at one
    displacement carry different characters here, so their cross terms are
    character sums over the cells."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 2, quarter_turns=False)
    ops = FockFamily(model, operator_zoo(model, rng, quarter_turns=False))
    mats = [np.asarray(w) for w in ops] + [np.eye(model.dim)]
    pairs, groups = 9, 4
    for _ in range(4):
        left, right = rng.integers(0, len(mats), pairs), rng.integers(0, len(mats), pairs)
        group = rng.integers(0, groups - 1, pairs)  # group 3 gets no products
        coef = rng.standard_normal(pairs) + 1j * rng.standard_normal(pairs)
        src = rng.integers(0, N + 1, groups)
        norms = product_norms(ops, left, right, coef, group, src)
        for g in range(groups):
            parts = [(coef[p], pair_product(mats[left[p]], mats[right[p]]))
                     for p in np.flatnonzero(group == g)]
            assert np.isclose(norms[g], terms_norm(model, parts, src[g]),
                              rtol=1e-13, atol=1e-15), g
        assert norms[groups - 1] == 0.0


@pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-7, 1.0])
@pytest.mark.parametrize("m,N", [(1, 4), (2, 3), (3, 5)])
def test_deviation_sums_match_cellwise_sums(m, N, scale):
    """Sums of exp(i theta . alpha) - 1 over the cells with |alpha| <= free,
    against the cell-by-cell sums: within 1e-13 relative to the sum of the
    terms' moduli, for angles of any size."""
    rng = np.random.default_rng(m * 10 + N)
    cells = enumerate_indices(m, N)[0]
    theta = scale * rng.uniform(-np.pi, np.pi, (N + 2, m))
    got = _deviation_sums(theta, np.arange(-1, N + 1))
    for row, free in enumerate(range(-1, N + 1)):
        terms = np.expm1(1j * cells[cells.sum(axis=1) <= free] @ theta[row])
        assert abs(got[row] - terms.sum()) <= 1e-13 * np.abs(terms).sum(), free


@pytest.mark.parametrize("turn", [1e-13, 1e-9, 1e-5])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_nearly_equal_characters_do_not_cancel(m, N, coeff, turn):
    """An operator less its copy whose costs are turned by ``turn``: the
    products' characters differ by about |alpha| * turn, and the closed-form
    norms of its products with the zoo equal the dense ones within 1e-14
    (their rounding) and 1e-12 relative, however small the turn."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 3, quarter_turns=False)
    zoo = operator_zoo(model, rng, quarter_turns=False)
    (slot, shift, shift_costs), (_, diag, kappa_costs) = zoo[0]
    zoo.append(two_block_terms(model, diag, shift, slot, shift_costs / kappa_costs,
                               kappa_costs * np.exp(1j * turn * rng.uniform(-1, 1, m))))
    ops = FockFamily(model, zoo)
    mats = [np.asarray(w) for w in ops] + [np.eye(model.dim)]
    t, one = len(ops) - 1, len(ops)
    for b in range(len(ops)):
        for src in range(N + 1):
            norms = product_norms(ops, [0, t], [b, b], [1.0, -1.0], [0, 0], [src])
            diff = [(1.0, pair_product(mats[0], mats[b])), (-1.0, pair_product(mats[t], mats[b]))]
            ref = terms_norm(model, diff, src)
            assert abs(norms[0] - ref) <= 1e-14 + 1e-12 * ref, (b, src)
    norms = product_norms(ops, [0, t], [one, one], [1.0, -1.0], [0, 0], [0])
    assert (norms[0] > 0) == (N > 0)  # at N = 0 every character is 1


def general_operators(model, rng, quarter_turns, count=6):
    """The terms of ``count`` operators of 1 to m + 1 terms in random distinct
    slots, with ``random_block`` blocks and unimodular costs."""
    slots = [rng.permutation(model.m + 1)[:rng.integers(1, model.m + 2)] for _ in range(count)]
    return [[(s, random_block(model, rng, quarter_turns), random_costs(model, rng, quarter_turns))
             for s in row.tolist()] for row in slots]


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES + [(4, 3, 2)])
def test_isometry_defects_match_dense_products(m, N, coeff, quarter_turns):
    """||W*W - I|| on the cells with |alpha| <= N - 1, as sources and as
    destinations, of general operators and of the creation operators, against
    the dense product there: bit for bit with quarter turns, whose sums are
    exact, and within 1e-15 of max(1, the dense norm) otherwise (a creation
    operator's dense product rounds its phases' squared moduli); no cell at N = 0."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 5, quarter_turns)
    ops = FockFamily(model, general_operators(model, rng, quarter_turns)
                     + creation_terms(model, range(m)))
    got = isometry_defects(ops)
    assert got.shape == (len(ops),)
    if N == 0:
        assert not got.any()
        return
    for w, norm in zip(ops, got):
        dense = np.asarray(w)
        ref = terms_norm(model, [(1.0, pair_product(dense, dense, adjoint=True))], 1, 1,
                         minus_identity=True)
        if quarter_turns:
            assert norm == ref, (w.slots, norm, ref)
        else:
            assert abs(norm - ref) <= 1e-15 * max(1.0, ref), (norm, ref)


@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_terms_norm_matches_dense_masked_norm(m, N, coeff):
    """The dense ``product`` and ``terms_norm`` references, and their
    block-sparse forms that the verifier's tests use, against the same
    products applied by ``apply`` and ``apply_adjoints`` to the identity columns."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 1, quarter_turns=False)
    ops = FockFamily(model, operator_zoo(model, rng, quarter_turns=False))
    a, b = ops[0], ops[-2]
    coefs, pairs = (1.0, -0.7 + 0.2j, 0.5), ((a, b, False), (b, a, False), (a, a, True))
    parts = [(c, pair_product(*pair)) for c, pair in zip(coefs, pairs)]
    blocks = [(c, sparse_product(*pair)) for c, pair in zip(coefs, pairs)]
    eye = np.eye(model.dim)
    applied = (apply(a, apply(b, eye)) + (-0.7 + 0.2j) * apply(b, apply(a, eye))
               + 0.5 * apply_adjoints(a, apply(a, eye))[0])
    for src, dst in product(range(N + 1), [None, *range(N + 1)]):
        cols = interior_projector(model, src)
        rows = np.ones(model.dim, dtype=bool) if dst is None else interior_projector(model, dst)
        for minus_identity in (False, True):
            ref = (applied - eye * minus_identity)[np.ix_(rows, cols)]
            for norm, terms in ((terms_norm, parts), (sparse_terms_norm, blocks)):
                assert np.isclose(norm(model, terms, src, dst, minus_identity),
                                  np.linalg.norm(ref), rtol=1e-13, atol=1e-15)
    assert terms_norm(model, [], 0) == sparse_terms_norm(model, [], 0) == 0.0


@pytest.mark.parametrize("m,N,coeff", [shape for shape in SHAPES if shape[0] > 1])
def test_an_operator_is_the_sum_of_its_terms(m, N, coeff):
    """An operator of a term in every slot, the cellwise one included, is the
    sum of its one-term operators: densely, applied as an adjoint, and in the
    closed-form norms of its products."""
    model, rng = random_model(m, N, coeff, 10 * m + N + 4, quarter_turns=False)
    terms = [(s, rng.standard_normal((coeff, coeff)) + 1j * rng.standard_normal((coeff, coeff)),
              random_costs(model, rng, False)) for s in rng.permutation(m + 1).tolist()]
    family = FockFamily(model, [terms] + [[term] for term in terms])
    op, *parts = family
    dense = sum(np.asarray(part) for part in parts)
    assert np.allclose(np.asarray(op), dense, rtol=0, atol=1e-14)
    x = rng.standard_normal((model.dim, 2)) + 1j * rng.standard_normal((model.dim, 2))
    assert np.allclose(apply_adjoints(family, x)[0], adj(dense) @ x, rtol=0, atol=1e-13)
    margin = min(1, N)
    norms = product_norms(FockFamily(model, [terms, terms[:1]]), [0, 0, 1], [0, 1, 2],
                          [1.0, -0.5, 2.0], [0, 1, 2], [margin] * 3)
    mats = [dense, np.asarray(parts[0]), np.eye(model.dim)]
    for g, (a, b, c) in enumerate(((0, 0, 1.0), (0, 1, -0.5), (1, 2, 2.0))):
        ref = terms_norm(model, [(c, pair_product(mats[a], mats[b]))], margin)
        assert np.isclose(norms[g], ref, rtol=1e-12, atol=1e-14), g


def test_interior_cells_repeat_to_projector():
    model = trivial_model(3, 3, coeff=2)
    for margin in range(4):
        assert np.array_equal(np.repeat(interior_cells(model, margin), 2),
                              interior_projector(model, margin))


def test_creation_is_jordan_shift():
    model = trivial_model(1, 1)
    L = creation_matrix(model, 0)
    assert np.allclose(np.asarray(L), np.array([[0, 0], [1, 0]]))
    assert np.allclose(apply(L, apply(L, np.eye(2))), 0)


def test_creation_isometry_on_interior():
    model = trivial_model(2, 3, coeff=2)
    inner = interior_projector(model, 1)
    e1 = unit_columns(inner)
    for s in range(2):
        L = creation_matrix(model, s)
        assert np.linalg.norm(apply_adjoints(L, apply(L, e1))[0][inner] - e1[inner]) < 1e-14
    # ranges of distinct generators are orthogonal cellwise: the same source
    # cell lands in different target cells, so the cell-diagonal of L0* L1
    # vanishes (the full product is a shift, not zero: the generators commute)
    l0, l1 = creation_matrix(model, 0), creation_matrix(model, 1)
    cross = apply_adjoints(l0, apply(l1, np.eye(model.dim)))[0]
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
    gap = apply(l0, apply(l1, e2)) - u01 * apply(l1, apply(l0, e2))
    assert np.linalg.norm(gap) < 1e-14


def test_interior_projector_margins():
    model = trivial_model(2, 2)
    assert interior_projector(model, 0).all() and interior_projector(model, 0).size == model.dim
    assert interior_projector(trivial_model(1, 2), 1).tolist() == [True, True, False]
    assert interior_projector(model, 2).tolist() == [True, False, False, False, False, False]
    assert interior_projector(trivial_model(1, 2, coeff=2), 2).tolist() == [True, True] + [False] * 4


def test_transfer_shift_trivial_phases_is_plain_shift():
    model = trivial_model(2, 2, coeff=2)
    shift = FockFamily(model, [two_block_terms(model, None, np.eye(2), 0, back_costs(model, 0))])
    assert np.array_equal(np.asarray(shift), np.asarray(creation_matrix(model, 0)))
    # the adjoint annihilates cells with alpha_0 = 0
    for c, alpha in enumerate(index_list(model)):
        if alpha[0] == 0:
            idx = c * 2
            assert np.linalg.norm(apply_adjoints(shift, np.eye(model.dim)[:, idx:idx + 2])) == 0


def test_transfer_shift_phases_are_back_insertion():
    phases = np.array([[1, 1j], [-1j, 1]])
    model = FockModel(m=2, N=3, coeff_dim=1, merged_phases=phases)
    shift = np.asarray(FockFamily(model, [two_block_terms(model, None, np.eye(1), 0,
                                                          back_costs(model, 0))]))
    L0 = np.asarray(creation_matrix(model, 0))
    # same sparsity and magnitudes as front creation of the merged slot
    assert np.allclose(np.abs(shift), np.abs(L0))
    # entries differ exactly by the crossing phase u(1,0)^{alpha_1}
    src, dst = index_of(model)[(0, 2)], index_of(model)[(1, 2)]
    assert shift[dst, src] == pytest.approx(phases[1, 0] ** 2)
    assert L0[dst, src] == pytest.approx(1.0)


def test_fock_operator_dimension_check():
    """A term is (slot in 0..m, finite d x d block, m costs), checked when the
    family is made; an operand of the wrong height is refused as well."""
    model = trivial_model(2, 1, coeff=3)
    ones, eye = np.ones(model.m), np.eye(3)
    nan = np.full((3, 3), np.nan)
    for terms, error in (([(0, np.eye(2), ones)], DimensionMismatch),  # a 2 x 2 block
                         ([(model.m + 1, eye, ones)], DimensionMismatch),  # slot m + 1
                         ([(-1, eye, ones)], DimensionMismatch),  # a negative slot
                         ([(0.0, eye, ones)], DimensionMismatch),  # a slot that is no integer
                         ([(True, eye, ones)], DimensionMismatch),
                         ([(0, eye, [1.0, [1.0, 1.0]])], DimensionMismatch),  # a ragged cost row
                         ([(0, eye, np.ones(model.m + 1)), (model.m, eye, np.ones(model.m + 1))],
                          DimensionMismatch),  # m + 1 costs in every term
                         ([(0, [[1.0, 0.0], [0.0]], ones)], DimensionMismatch),  # a ragged block
                         ([(0, eye)], DimensionMismatch),  # not a triple
                         ([], DimensionMismatch),  # no term
                         ([(1, eye, ones), (2, eye, ones), (1, eye, ones)], DimensionMismatch),
                         ([(0, eye, ones), (model.m, nan, ones)], NonFinite)):  # a NaN block
        with pytest.raises(error):
            FockFamily(model, [terms])
    with pytest.raises(DimensionMismatch):  # an operator with no term among others
        FockFamily(model, creation_terms(model, [0]) + [[]])
    with pytest.raises(DimensionMismatch):  # no operator
        FockFamily(model, [])
    with pytest.raises(DimensionMismatch):
        apply_adjoints(creation_matrix(model, 0), np.eye(model.dim - 1))


@pytest.mark.parametrize("costs", [np.ones(3), np.ones(1), np.ones(6),
                                   [1.0, 1.5], [1.0, np.nan], [1.0, np.inf],
                                   [1.0, 1.0 + 10 * PHASE_TOL], [1.0, np.exp(0.3j) * 0.9]],
                         ids=["m + 1", "one", "one per cell", "1.5", "nan", "inf", "off by 1e-11",
                              "0.9 times a phase"])
@pytest.mark.parametrize("which", ["shift", "kappa"])
def test_costs_must_be_one_unimodular_number_per_slot(costs, which):
    """A character cost is one number of modulus 1 (within PHASE_TOL, the
    tolerance of a tuple's phase table) per slot; anything else is a
    ``DimensionMismatch`` when the family is made, in the shift term and in
    the cellwise term (slot m)."""
    model, good = trivial_model(2, 2, coeff=1), np.exp(1j * np.array([0.2, 1.3]))
    eye, m = np.eye(1), model.m
    bad = ([(0, eye, costs), (m, eye, good)] if which == "shift" else
           [(0, eye, good), (m, eye, costs)])
    with pytest.raises(DimensionMismatch):
        FockFamily(model, [bad])
    near = good * (1 + PHASE_TOL / 10)  # within the tolerance
    op = FockFamily(model, [[(0, eye, near), (m, eye, near)]])
    assert np.isfinite(product_norms(op, [0], [0], [1.0], [0], [0])).all()
    assert np.isfinite(isometry_defects(op)).all()
    assert np.asarray(op).shape == (model.dim, model.dim)


@pytest.mark.parametrize("quarter_turns", [True, False])
@pytest.mark.parametrize("m,N,coeff", SHAPES)
def test_creation_family_equals_each_slot(m, N, coeff, quarter_turns):
    """``creation_terms`` over every slot equals ``creation_matrix`` of each
    slot and the family the checked constructor makes of the front-insertion
    costs, term for term."""
    model, _ = random_model(m, N, coeff, 10 * m + N, quarter_turns)
    terms = creation_terms(model, range(m))
    family = FockFamily(model, terms)
    assert len(terms) == len(family) == m
    for s, op in enumerate(family):
        costs = np.where(np.arange(m) < s, model.merged_phases[s], 1)
        [(slot, block, c)] = terms[s]
        assert slot == s and np.array_equal(block, np.eye(coeff)) and np.array_equal(c, costs)
        for ref in (creation_matrix(model, s),
                    FockFamily(model, [two_block_terms(model, None, None, s, costs)])):
            assert len(ref) == 1 and ref.starts == op.starts == [0, 1]
            for name in ("slots", "blocks", "costs"):
                assert np.array_equal(getattr(op, name), getattr(ref, name)), name
        assert np.array_equal(np.asarray(op), np.asarray(creation_matrix(model, s)))


def test_creation_family_rejects_what_each_slot_rejects():
    model, _ = random_model(3, 2, 2, 7, False)
    for slots in ([0, 3], [-1], [3]):
        with pytest.raises(DimensionMismatch, match="out of range"):
            creation_terms(model, slots)
    with pytest.raises(DimensionMismatch, match="out of range"):
        creation_matrix(model, 3)
    phases = np.ones((3, 3), dtype=complex)
    phases[2, 0], phases[0, 2] = 1.5, 1 / 1.5
    skewed = FockModel(m=3, N=2, coeff_dim=1, merged_phases=phases)
    fine = FockFamily(skewed, creation_terms(skewed, [0, 1]))  # slots 0 and 1 read no entry off the circle
    assert apply_adjoints(fine, np.eye(skewed.dim)).shape == (2, skewed.dim, skewed.dim)
    for slots in ([0, 1, 2], [2]):  # slot 2's terms are made, and refused by the family
        *_, off = creation_terms(skewed, slots)
        with pytest.raises(DimensionMismatch, match="unimodular"):
            FockFamily(skewed, [off])
        with pytest.raises(DimensionMismatch, match="unimodular"):
            FockFamily(skewed, creation_terms(skewed, slots))
    with pytest.raises(DimensionMismatch, match="unimodular"):
        creation_matrix(skewed, 2)


def fresh_family(model):
    return dilated_isometries(model.spec, model.transfer, model.layout, model.fock)


def assert_same_family(got, want):
    """Two families whose arrays are equal bit for bit, and of one dtype and shape."""
    assert got.starts == want.starts
    for name in ("owner", "slots", "blocks", "costs"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert not x.flags.writeable, name


@pytest.mark.parametrize("style,n,N", [("u-commuting", 3, 4), ("covariant", 4, 2),
                                       ("scaled-commuting", 5, 1), ("jointly-nilpotent", 6, 3)])
def test_one_pass_reads_equal_each_operator_own(style, n, N):
    """A family's ``reads``, formed once for every term, equal bit for bit each
    operator's own, formed from a family of it alone, and the per-term
    definition; building a model forms none, and ``apply_adjoints`` keeps them."""
    model = assemble_model(random_tuple(style, n, 4, seed=n), N=N)
    fock = model.fock
    assert "reads" not in vars(model.isometries)
    batch = fresh_family(model)
    kept = batch.reads
    apply_adjoints(batch, np.zeros((fock.dim, 1)))
    assert batch.reads is kept
    every = np.arange(fock.cell_count)
    for k, terms in enumerate(term_lists(batch)):
        slots, blocks, costs = zip(*terms)
        definition = (np.array([every if s == fock.m else fock.successors[s] for s in slots]),
                      fock.cell_phases(np.array(costs)).conj(), np.array(blocks).conj())
        own = FockFamily(fock, [terms]).reads
        for got, mine, want in zip(batch.reads, own, definition):
            got = got[batch.starts[k]:batch.starts[k + 1]]
            assert got.dtype == mine.dtype == want.dtype
            assert got.tobytes() == mine.tobytes() == want.tobytes()


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("style,n,N", [("u-commuting", 3, 4), ("covariant", 4, 2),
                                       ("scaled-commuting", 5, 1), ("jointly-nilpotent", 6, 3)])
def test_family_item_is_the_family_of_one(style, n, N, cached):
    """``family[k]`` equals ``FockFamily(fock, [terms_k])`` bit for bit: its
    arrays, its ``reads``, ``apply_adjoints`` and ``np.asarray``, whether the
    parent formed its reads before the item was taken (then shared) or not."""
    model = assemble_model(random_tuple(style, n, 4, seed=n), N=N)
    fock, family = model.fock, fresh_family(model)
    if cached:
        family.reads
    rng = np.random.default_rng(n)
    x = rng.standard_normal((fock.dim, 3)) + 1j * rng.standard_normal((fock.dim, 3))
    for k, terms in enumerate(term_lists(family)):
        item, alone = family[k], FockFamily(fock, [terms])
        assert ("reads" in vars(item)) == cached
        assert_same_family(item, alone)
        if cached:
            assert all(np.shares_memory(a, b) for a, b in zip(item.reads, family.reads))
        for got, want in zip(item.reads, alone.reads):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert apply_adjoints(item, x).tobytes() == apply_adjoints(alone, x).tobytes()
        assert np.asarray(item).tobytes() == np.asarray(alone).tobytes()
    assert family[-1].costs.tobytes() == family[len(family) - 1].costs.tobytes()


def test_family_iterates_to_its_length_and_is_no_matrix():
    """Iteration gives each operator once and stops at ``len``; an index past it
    is an ``IndexError``; a family of two or more has no one dense matrix, so
    ``np.asarray`` of it is a ``DimensionMismatch``, never the sum."""
    model, _ = random_model(2, 3, 2, 3, False)
    family = FockFamily(model, creation_terms(model, [0, 1, 0]))
    parts = list(family)
    assert len(family) == len(parts) == 3
    assert [part.slots.tolist() for part in parts] == [[0], [1], [0]]
    for k in (3, -4):
        with pytest.raises(IndexError):
            family[k]
    for many in (family, FockFamily(model, creation_terms(model, [0, 1]))):
        with pytest.raises(DimensionMismatch, match="not one matrix"):
            np.asarray(many)
    assert np.asarray(family[1]).shape == (model.dim, model.dim)


@pytest.mark.parametrize("style,n", [("covariant", 4), ("u-commuting", 3),
                                     ("jointly-nilpotent", 5)])
def test_a_model_stacks_and_checks_its_family_once(style, n, monkeypatch):
    """One ``assemble_model`` and ``full_report`` make exactly one family (the
    dilated one, at construction) and ``full_report`` alone none: the
    verifier reads the model's family, and its items are views of it."""
    made = []
    init = FockFamily.__init__
    monkeypatch.setattr(FockFamily, "__init__",
                        lambda self, fock, ops: made.append(len(ops)) or init(self, fock, ops))
    model = assemble_model(random_tuple(style, n, 4, seed=2), N=3)
    assert made == [n + 1]
    report = full_report(model)
    assert made == [n + 1] and report.passed
    full_report(model)
    assert made == [n + 1]
    back = model_from_dict(model_to_dict(model))  # a load makes its own, once
    assert made == [n + 1] * 2
    assert full_report(back).residuals == report.residuals and made == [n + 1] * 2



@pytest.mark.parametrize("style,n,N", [("u-commuting", 3, 4), ("covariant", 4, 2),
                                       ("scaled-commuting", 5, 1), ("jointly-nilpotent", 6, 3)])
def test_dilated_terms_equal_the_two_block_reference(style, n, N):
    """tau1 and taun are the two-block operators read off U1 and Un (the
    cellwise block A*, the shift block on merged slot 0 with the
    coefficient-end costs, times kappa), and L_2, ..., L_{n-1} and L1 the
    creation operators (an identity shift with the front-insertion costs):
    their terms equal ``two_block_terms`` of these, bit for bit."""
    model = assemble_model(random_tuple(style, n, 4, seed=n), N=N)
    spec, fock, layout, transfer = model.spec, model.fock, model.layout, model.transfer
    d, m = fock.coeff_dim, fock.m
    taus = []
    for which, u, merged_cost in ((1, transfer.U1, spec.u(1, n)), (n, transfer.Un, spec.u(n, 1))):
        shift = np.zeros((d, d), dtype=complex)
        if which == 1:
            shift[layout.Dprime_rows] = adj(u[:d, d:])
        else:
            shift[:, layout.parts_D[1]] = merged_cost * adj(u[d:, :d])
        kappa = [merged_cost] + [spec.u(which, j) for j in range(2, n)]
        taus.append(two_block_terms(fock, adj(u[:d, :d]), shift, 0, back_costs(fock, 0), kappa))
    creations = [two_block_terms(fock, None, None, s,
                                 np.where(np.arange(m) < s, fock.merged_phases[s], 1))
                 for s in range(m)]
    want = [taus[0], *creations[1:], taus[1], creations[0]]
    got = term_lists(model.isometries)
    assert [len(terms) for terms in got] == [len(terms) for terms in want]
    for terms, ref in zip(got, want):
        for (slot, block, costs), (ref_slot, ref_block, ref_costs) in zip(terms, ref):
            assert slot == ref_slot
            for x, y in ((block, ref_block), (costs, ref_costs)):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
