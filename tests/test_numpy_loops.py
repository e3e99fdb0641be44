"""The numpy loops that the compiled MM loop (the module's `mm_solve`)
calls, `arctan`, `log1p` and `add` (no gufunc and no BLAS): the bytes of
its calls of them (the module's `loops`) against numpy's own calls, the
fallback to the Python loop when their lookup at the module's import or
their probe in `prox._load` fails, and a guard that the compiled loop
runs no Python per update.  The loop's bytes are checked
against the Python loop in `tests/test_mm_loop.py`."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cncflsa import CncConfig, PenaltySpec, cnc, prox, solve

from refsolvers import mm_reference

pytestmark = pytest.mark.skipif(prox.TVD_BACKEND != "c", reason="no compiled library")


def fingerprint(result):
    return (result.x.tobytes(), result.objective_history.tobytes(),
            result.iterations, result.converged)


def test_compiled_loop_calls_no_python_per_update(monkeypatch):
    """With the library, a solve calls _finish nowhere: its start's `value`
    finishes phi in the module's `penalty_map`, and its updates in
    `mm_solve`, however many follow: one under a cap of 1, and two, each
    polished, under caps of 3 and 50, where the second update's shifted
    input is the one it solved on (a fixed point of the MM map) and stops
    the solve."""
    calls = []

    def counting(self, phi):
        calls.append(phi.size)
        return phi

    def forbidden(*args):
        raise AssertionError("the Python loop ran")

    monkeypatch.setattr(PenaltySpec, "_finish", counting)
    monkeypatch.setattr(cnc, "_mm_loop_python", forbidden)
    rng = np.random.default_rng(1)
    y = np.repeat(rng.normal(0.0, 3.0, 10), 30) + rng.normal(0.0, 0.5, 300)
    updates = []
    for max_iter in (1, 3, 50):
        calls.clear()
        cfg = CncConfig(0.1, 1.0, PenaltySpec("atan", 5.0), PenaltySpec("log", 0.1),
                        max_iter=max_iter, tol=1e-300)
        updates.append(solve(y, cfg).iterations)
        assert calls == []
    assert updates == [1, 2, 2]


def check_fallback(monkeypatch):
    assert prox._select_backend() == (None, "python")
    y = np.random.default_rng(2).normal(0.0, 1.0, 300)
    cfg = CncConfig(0.3, 2.0, PenaltySpec("atan", 1.0), PenaltySpec("rational", 0.05))
    monkeypatch.setattr(prox, "_tvd_c", None)
    assert fingerprint(solve(y, cfg)) == fingerprint(mm_reference(y, cfg))


def test_fallback_when_a_loop_cannot_be_found(monkeypatch):
    monkeypatch.delattr(np, "log1p")
    with pytest.raises(ImportError, match="log1p"):
        prox._load(prox._build())
    check_fallback(monkeypatch)


def test_fallback_when_a_loop_is_not_numpys(monkeypatch, tmp_path):
    """A module whose lookup takes each ufunc's first loop, which is not
    its float64 one, fails the probe at its import."""
    source = Path(prox._C_SOURCE).read_text()
    first = tmp_path / "_kernels.c"
    first.write_text(source.replace("loop->call = uf->functions[i];",
                                    "loop->call = uf->functions[0];"))
    assert first.read_text() != source
    monkeypatch.setattr(prox, "_C_SOURCE", str(first))
    with pytest.raises(ImportError, match="bytes"):
        prox._load(prox._build())
    check_fallback(monkeypatch)


def test_fallback_when_the_module_lacks_loops(monkeypatch, tmp_path):
    """A module without the `loops` entry, which the probe calls, fails
    `_load` with ImportError, not AttributeError."""
    source = Path(prox._C_SOURCE).read_text()
    entry = '    {"loops", (PyCFunction)(void (*)(void))loops, METH_FASTCALL, loops_doc},\n'
    lacking = tmp_path / "_kernels.c"
    lacking.write_text(source.replace(entry, ""))
    assert lacking.read_text() != source
    monkeypatch.setattr(prox, "_C_SOURCE", str(lacking))
    with pytest.raises(ImportError, match="loops"):
        prox._load(prox._build())
    check_fallback(monkeypatch)


# Past numpy's 8,192-element buffer (np.getbufsize()), up to denoise_long's
# 30,000 samples: `total` is one call of the add loop, which is what
# np.add.reduce of a contiguous array runs at any length.
LONG = (8191, 8192, 8193, 30000)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(0, 2000), st.sampled_from(LONG)), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf]),
                max_size=20))
@example(LONG[0], 0, [])
@example(LONG[1], 1, [])
@example(LONG[2], 2, [-0.0, 1e300])
@example(LONG[3], 3, [])
def test_loops_give_the_bytes_of_numpys_calls(n, seed, specials):
    """The module's calls of numpy's loops give the bytes of `np.arctan`,
    `np.log1p` and `np.add.reduce` at any length up to 2,000, beyond the
    probe's ten, and at the lengths `LONG`, with +-0.0, 1e+-300 and inf
    among finite values and -0.0 kept among the magnitudes."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 10.0 ** rng.integers(-5, 6), n)
    if n:
        values[rng.integers(0, n, len(specials))] = specials
    magnitudes = np.where(values == 0.0, values, np.abs(values))
    got = prox._tvd_c.loops(values, magnitudes)
    with np.errstate(invalid="ignore"):  # inf - inf
        want = (np.arctan(magnitudes), np.log1p(magnitudes), np.add.reduce(values))
    assert [np.asarray(g, dtype=float).tobytes() for g in got] == [w.tobytes() for w in want]


def test_lookup_rejects_a_ufunc_without_the_float64_loop(monkeypatch):
    """The lookup takes only a loop whose every argument is float64
    (``np.isnan`` has d->?, and ``np.bitwise_and`` no float loop at all),
    and only from a ufunc."""
    for name, stand_in in (("arctan", np.isnan), ("add", np.bitwise_and),
                           ("log1p", np.sqrt.__call__)):
        with monkeypatch.context() as patch:
            patch.setattr(np, name, stand_in)
            with pytest.raises(ImportError, match=name):
                prox._load(prox._build())
