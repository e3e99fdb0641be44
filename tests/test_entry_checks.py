"""The argument checks of the compiled module's eight entries (`tvd`,
`penalty_map`, `mm_solve`, `all_finite`, `soft_threshold`, `shifted_input`,
`loops` and `total`): a float32 array, a byte-swapped
one, a strided view, a length that does not fit, a non-array, an integer out
of range and a wrong argument count each raise TypeError or ValueError, and
the process goes on; none reads past a buffer."""

import numpy as np
import pytest

from cncflsa import prox

pytestmark = pytest.mark.skipif(prox.TVD_BACKEND != "c", reason="no compiled library")

Y = np.linspace(-1.0, 1.0, 8)


def good(entry):
    """Arguments that the entry accepts, with fresh arrays."""
    return {
        "tvd": [Y.copy(), 0.5],
        "penalty_map": [2, 0.7, Y.copy(), 0],
        "mm_solve": [Y.copy(), Y[::-1].copy(), 0.0, 0.1, 0.5, 0.3, 0.2, 2, 1, 3, 1e-9],
        "all_finite": [Y.copy()],
        "soft_threshold": [Y.copy(), 0.25],
        "shifted_input": [Y.copy(), 0.3, Y[::-1] / 9.0, 2.0, Y[1:] / 7.0],
        "loops": [Y.copy(), np.abs(Y)],
        "total": [Y.copy(), Y[::-1].copy()],
    }[entry]


# The positions of each entry's array arguments.
ARRAYS = {"tvd": [0], "penalty_map": [2], "mm_solve": [0, 1], "all_finite": [0],
          "soft_threshold": [0], "shifted_input": [0, 2, 4], "loops": [0, 1], "total": [0, 1]}


def call(entry, args):
    return getattr(prox._tvd_c, entry)(*args)


@pytest.mark.parametrize("entry", list(ARRAYS))
def test_good_arguments_run(entry):
    call(entry, good(entry))


@pytest.mark.parametrize("bad, error", [
    (lambda a: a.astype(np.float32), TypeError),
    (lambda a: a.astype(">f8"), TypeError),
    (lambda a: a.astype(np.int64), TypeError),
    (lambda a: np.repeat(a, 2)[::2], ValueError),
    (lambda a: a.tolist(), TypeError),
    (lambda a: float(a[0]), TypeError),
    (lambda a: None, TypeError),
])
@pytest.mark.parametrize("entry, position",
                         [(entry, i) for entry, places in ARRAYS.items() for i in places])
def test_a_wrong_array_raises(entry, position, bad, error):
    args = good(entry)
    args[position] = bad(args[position])
    with pytest.raises(error):
        call(entry, args)


@pytest.mark.parametrize("entry, position, value", [
    ("tvd", 0, Y[:1].copy()),  # below the kernel's 2 samples
    ("tvd", 0, Y.reshape(2, 4).copy()),
    ("tvd", 1, 0.0),
    ("tvd", 1, float("nan")),
    ("tvd", 1, float("inf")),
    ("mm_solve", 1, Y[:7].copy()),  # shorter than y
    ("mm_solve", 1, np.append(Y, 1.0)),  # longer than y
    ("mm_solve", 0, np.empty(0)),
    ("mm_solve", 0, Y.reshape(2, 4).copy()),
    ("soft_threshold", 1, -0.5),
    ("soft_threshold", 1, float("nan")),
    ("soft_threshold", 1, float("inf")),
    ("shifted_input", 2, Y[:7].copy()),  # ds0 shorter than y
    ("shifted_input", 2, np.append(Y, 1.0)),
    ("shifted_input", 4, Y.copy()),  # ds1 as long as y
    ("shifted_input", 4, Y[:6].copy()),
    ("shifted_input", 0, np.empty(0)),
    ("shifted_input", 0, Y.reshape(2, 4).copy()),
    ("shifted_input", 2, Y.reshape(2, 4).copy()),
    ("shifted_input", 4, Y[1:].reshape(1, 7).copy()),
    ("total", 1, Y[:7].copy()),  # b shorter than a
    ("total", 1, np.append(Y, 1.0)),
    ("total", 0, Y.reshape(2, 4).copy()),
    ("total", 1, Y.reshape(2, 4).copy()),
])
def test_a_length_or_shape_that_does_not_fit_raises(entry, position, value):
    args = good(entry)
    args[position] = value
    if entry == "mm_solve" and position == 0:
        args[1] = np.zeros(value.shape)
    if entry == "shifted_input" and position == 0:
        args[2] = np.zeros(value.shape)
    with pytest.raises(ValueError):
        call(entry, args)


@pytest.mark.parametrize("entry, position, value, error", [
    ("penalty_map", 0, 4, ValueError),
    ("penalty_map", 0, -1, ValueError),
    ("penalty_map", 0, 2**70, ValueError),
    ("penalty_map", 0, 1.0, TypeError),
    ("penalty_map", 3, 2, ValueError),
    ("penalty_map", 1, "0.7", TypeError),
    ("mm_solve", 7, 4, ValueError),
    ("mm_solve", 8, -1, ValueError),
    ("mm_solve", 9, 0, ValueError),
    ("mm_solve", 9, -(2**70), ValueError),
    ("mm_solve", 9, 3.0, TypeError),
    ("mm_solve", 2, "0.0", TypeError),
    ("mm_solve", 3, None, TypeError),
    ("mm_solve", 4, "0.5", TypeError),
    ("mm_solve", 5, None, TypeError),
    ("mm_solve", 6, "0.2", TypeError),
    ("mm_solve", 10, None, TypeError),
    ("soft_threshold", 1, "0.25", TypeError),
    ("shifted_input", 1, None, TypeError),
    ("shifted_input", 3, "2.0", TypeError),
])
def test_an_integer_out_of_range_raises(entry, position, value, error):
    args = good(entry)
    args[position] = value
    with pytest.raises(error):
        call(entry, args)


@pytest.mark.parametrize("entry", list(ARRAYS))
def test_a_wrong_argument_count_raises(entry):
    args = good(entry)
    # total(a) is total's one-argument form, so it is short only of both.
    short = [] if entry == "total" else args[:-1]
    with pytest.raises(TypeError):
        call(entry, short)
    with pytest.raises(TypeError):
        call(entry, args + [0])


def test_total_takes_one_or_two_arrays_and_writes_neither():
    """total(a) and total(a, b) return floats, b may be a itself or
    read-only, and both arguments keep their bytes."""
    a, b = good("total")
    b.flags.writeable = False
    before = a.tobytes(), b.tobytes()
    assert call("total", [a]) == float(np.add.reduce(a))
    assert call("total", [a, b]) == float(np.add.reduce((a - b) * (a - b)))
    assert call("total", [a, a]) == 0.0
    assert (a.tobytes(), b.tobytes()) == before


def result_bytes(result):
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in result]


def test_mm_solve_reads_a_read_only_or_shared_shifted_and_writes_no_argument():
    """mm_solve copies shifted into a row of its own scratch, so a
    read-only shifted, or y itself as shifted, gives the bytes of a call on
    a private copy, and every argument keeps its bytes."""
    readonly = good("mm_solve")
    readonly[1].flags.writeable = False
    shared = good("mm_solve")
    shared[1] = shared[0]
    for args in (readonly, shared):
        before = [args[i].tobytes() for i in ARRAYS["mm_solve"]]
        private = list(args)
        private[1] = args[1].copy()
        assert result_bytes(call("mm_solve", args)) == result_bytes(call("mm_solve", private))
        assert [args[i].tobytes() for i in ARRAYS["mm_solve"]] == before


def test_mm_solve_sizes_its_history_and_owns_its_results():
    args = good("mm_solve")
    args[9] = 2**70  # no cap in reach
    x, history, converged, certificate, polishes, steps = call("mm_solve", args)
    assert converged and history.size >= 2 and history[0] == 0.0
    assert certificate <= args[10] and polishes >= 0 and steps >= 0
    assert x.shape == Y.shape and history.flags.owndata and x.flags.owndata


def test_all_finite_is_exact_in_any_shape():
    for shape in [(0,), (1,), (3, 5), (2, 0, 4), ()]:
        a = np.ones(shape)
        assert call("all_finite", [a]) is True
        for bad in (np.inf, -np.inf, np.nan):
            for i in range(a.size):
                b = a.copy()
                b.flat[i] = bad
                assert call("all_finite", [b]) is False
    assert call("all_finite", [np.array([np.finfo(float).max, -np.finfo(float).max, 5e-324])])


def test_soft_threshold_and_shifted_input_take_any_fitting_shape():
    """soft_threshold keeps any shape, 0-d and empty included, and
    shifted_input takes one sample with an empty ds1."""
    for shape in [(), (0,), (1,), (3, 5), (2, 0, 4)]:
        x = np.array(np.arange(float(np.prod(shape))).reshape(shape) - 2.0)
        out = call("soft_threshold", [x, 1.0])
        assert out.shape == shape and out.flags.owndata and out is not x
    out = call("shifted_input", [np.array([2.0]), 0.5, np.array([-0.5]), 3.0, np.empty(0)])
    assert out.tolist() == [2.25]
