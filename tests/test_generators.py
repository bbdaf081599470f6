"""The style table of ``random_tuple`` and the one tensor construction of the
u-commuting style, against the two hand-built constructions it replaces."""

import json

import numpy as np
import pytest

from dilation_forge import generators
from dilation_forge.cli import main
from dilation_forge.errors import GenerationFailed
from dilation_forge.generators import BUILDERS, PHASE_POOL, STYLES, random_tuple
from dilation_forge.io import tuple_to_dict


def reference_u_commuting(rng, n, dim):
    """The u-commuting style as two constructions: n = 2 a weighted shift and
    a phase diagonal, n = 3 a Kronecker pair of such systems sharing a diagonal."""
    def weighted_shift(size):
        s = np.zeros((size, size), dtype=complex)
        weights = 0.3 + 0.7 * rng.random(size - 1)
        for j in range(size - 1):
            s[j + 1, j] = weights[j]
        return s

    q1 = complex(PHASE_POOL[rng.integers(len(PHASE_POOL))])
    if n == 2:
        s = weighted_shift(dim)
        d = np.diag(np.asarray([q1 ** j for j in range(dim)], dtype=complex))
        d = d * (0.4 + 0.5 * rng.random())
        phases = np.asarray([[1, np.conj(q1)], [q1, 1]])
        return generators._scale_into_class([s, d], phases=phases)
    if n == 3:
        q2 = complex(PHASE_POOL[rng.integers(len(PHASE_POOL))])
        da, db = max(2, dim // 2), 2
        sa, sb = weighted_shift(da), weighted_shift(db)
        qa = np.diag(np.asarray([q1 ** j for j in range(da)], dtype=complex))
        qb = np.diag(np.asarray([q2 ** j for j in range(db)], dtype=complex))
        t1 = np.kron(sa, np.eye(db))
        t2 = (0.4 + 0.5 * rng.random()) * np.kron(qa, qb)
        t3 = np.kron(np.eye(da), sb)
        phases = np.asarray([[1, np.conj(q1), 1], [q1, 1, q2], [1, np.conj(q2), 1]])
        return generators._scale_into_class([t1, t2, t3], phases=phases)
    raise GenerationFailed("u-commuting style supports n in {2, 3}")


def outcome(build, *args):
    """A tuple's JSON text and array bytes, signed zeros included, or the error it raises."""
    try:
        spec = build(*args)
    except GenerationFailed as e:
        return f"GenerationFailed: {e}"
    return (json.dumps(tuple_to_dict(spec)), spec.blocks.tobytes(), spec.phases.tobytes())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_u_commuting_is_the_two_branch_construction_byte_for_byte(n):
    """The one construction draws in the old order and builds the same arrays
    for n = 2 and 3 (dimH 1 to 8, seeds 0 to 59), and refuses n = 4 and 5 with
    the same message."""
    for dimH in range(1, 9):
        for seed in range(60):
            want = outcome(reference_u_commuting, np.random.default_rng(seed), n, dimH)
            assert outcome(random_tuple, "u-commuting", n, dimH, seed) == want, (dimH, seed)


@pytest.mark.parametrize("style", [s for s in STYLES if s != "covariant"])
def test_a_style_refuses_an_option_it_does_not_take(style):
    """Only the covariant style takes ``k`` and ``automorphisms``; another style
    given one refuses it by name instead of dropping it."""
    with pytest.raises(GenerationFailed, match=f"style '{style}' takes no option k$"):
        random_tuple(style, 3, 4, 0, k=3)
    with pytest.raises(GenerationFailed, match="takes no option automorphisms, k$"):
        random_tuple(style, 2, 4, 0, k=2, automorphisms=[[0, 1], [0, 1]])


def test_covariant_refuses_an_option_it_does_not_take():
    with pytest.raises(GenerationFailed, match="style 'covariant' takes no option width$"):
        random_tuple("covariant", 3, 4, 0, width=2)


def test_styles_keep_their_order(capsys):
    """``STYLES`` is the style table's keys in order, and the CLI's ``--style``
    choices list them so."""
    assert STYLES == ("jointly-nilpotent", "scaled-commuting", "u-commuting", "covariant")
    assert tuple(BUILDERS) == STYLES
    with pytest.raises(SystemExit):
        main(["random", "--help"])
    assert "{" + ",".join(STYLES) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (("jointly-nilpotent", 2, 2, 1.5), "seed must be an integer, got 1.5$"),
    (("jointly-nilpotent", 2.5, 2, 1), "n must be an integer, got 2.5$"),
    (("jointly-nilpotent", None, 2, 1), "n must be an integer, got None$"),
    (("u-commuting", 2, True, 0), "dimH must be an integer, got True$"),
    (("scaled-commuting", 3, 4.0, 0), "dimH must be an integer, got 4.0$"),
    (("covariant", 3, 4, "0"), "seed must be an integer, got '0'$"),
    (("jointly-nilpotent", 2, 2, -1), "seed must be >= 0, got -1$"),
    (([], 2, 2, 1), r"unknown style \[\]; choose from"),
    ((None, 2, 2, 1), "unknown style None; choose from"),
])
def test_arguments_that_are_no_integers_or_no_style_name_are_refused(args, message):
    """n, dimH and seed follow ``linalg.check_count``'s rule (an integer, Python
    or numpy, not a bool) and a style is one of the str names; anything else is
    a ``GenerationFailed`` naming the argument, never a raw ``TypeError`` or a
    bool read as 1."""
    with pytest.raises(GenerationFailed, match=message):
        random_tuple(*args)


def test_numpy_integer_arguments_build_the_same_tuple():
    for style in STYLES:
        want = outcome(random_tuple, style, 3, 4, 5)
        assert outcome(random_tuple, style, np.int64(3), np.uint8(4), np.int32(5)) == want
