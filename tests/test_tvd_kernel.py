"""The compiled tvd kernel against the pure-Python reference: bit equality
of the kernel and of whole solves, the build cache and its file names, and
the fallback."""

import importlib.machinery
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cncflsa import (
    CncConfig,
    NoiseSpec,
    PenaltySpec,
    add_awgn,
    default_pulse_spec,
    generate_pulses,
    lambda1_heuristic,
    select_a1,
    solve,
)
from cncflsa import prox

HAS_CC = shutil.which("cc") is not None or shutil.which("gcc") is not None


def python_backend():
    """Context in which tvd runs the pure-Python reference."""
    return mock.patch.object(prox, "_tvd_c", None)


def reference_tvd(y, lam):
    with python_backend():
        return prox.tvd(y, lam)


finite = st.floats(-10.0, 10.0, allow_nan=False)
lengths = st.integers(1, 120)
signals = st.one_of(
    st.lists(finite, min_size=1, max_size=120),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2000)).map(
        lambda t: np.random.default_rng(t[0]).normal(0.0, 3.0, t[1]).tolist()),
    st.tuples(finite, lengths).map(lambda t: [t[0]] * t[1]),
    st.tuples(finite, lengths).map(lambda t: [t[0] * (-1.0) ** i for i in range(t[1])]),
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=1, max_size=120),
)
# lam = 0, ordinary weights, and weights far above the signal range.
lams = st.one_of(st.just(0.0), st.floats(1e-3, 100.0), st.just(1e4))
scales = st.sampled_from([1.0, 1e300, 1e-300])


@settings(max_examples=300, deadline=None)
@given(signals, lams, scales)
@example([3.0], 1.0, 1.0)
@example([1.0, -1.0], 0.3, 1e300)
@example([1.0, 2.0, 1.0], 0.5, 1e-300)
@example([2.0, 2.0, 2.0], 1e4, 1.0)
def test_compiled_tvd_matches_reference_bits(values, lam, scale):
    y = np.array(values) * scale
    assert prox.tvd(y, lam * scale).tobytes() == reference_tvd(y, lam * scale).tobytes()


def fixture_signal(tiles, seed=7, sigma=0.5):
    clean = np.tile(generate_pulses(default_pulse_spec()), tiles)
    return add_awgn(clean, NoiseSpec(sigma, seed))


def cnc_config(sigma=0.5):
    lam1 = lambda1_heuristic(300, sigma)
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    return CncConfig(lam0, lam1, PenaltySpec("atan", a0), PenaltySpec("atan", select_a1(lam0, lam1, a0)))


@pytest.mark.parametrize("tiles", [1, 100])
def test_solve_is_bit_identical_across_backends(tiles):
    y, cfg = fixture_signal(tiles), cnc_config()
    compiled = solve(y, cfg)
    with python_backend():
        reference = solve(y, cfg)
    assert compiled.x.tobytes() == reference.x.tobytes()
    assert np.array(compiled.objective_history).tobytes() == \
        np.array(reference.objective_history).tobytes()
    assert (compiled.iterations, compiled.converged) == (reference.iterations, reference.converged)


def test_compiled_backend_whenever_a_compiler_is_present():
    if HAS_CC:
        assert prox.TVD_BACKEND == "c"
        assert prox._tvd_c is not None
    else:
        assert prox.TVD_BACKEND == "python"


@pytest.mark.parametrize("failure", ["build", "load"])
def test_fallback_when_the_kernel_cannot_be_loaded(monkeypatch, tmp_path, failure):
    if failure == "build":
        def build():
            raise OSError("no C compiler on PATH")
    else:
        junk = tmp_path / "junk.so"
        junk.write_text("not a shared library\n")

        def build():
            return str(junk)
    monkeypatch.setattr(prox, "_build", build)
    kernel, backend = prox._select_backend()
    assert (kernel, backend) == (None, "python")

    y = fixture_signal(1)
    expected = prox._tvd_python(y, 1.5).tobytes()
    monkeypatch.setattr(prox, "_tvd_c", kernel)
    assert prox.tvd(y, 1.5).tobytes() == expected


def copy_source(tmp_path, extra=""):
    src = tmp_path / "_tvd.c"
    src.write_text(Path(prox._C_SOURCE).read_text() + extra)
    return str(src)


def test_build_caches_by_source_digest(monkeypatch, tmp_path):
    monkeypatch.setattr(prox, "_C_SOURCE", copy_source(tmp_path))
    if not HAS_CC:
        with pytest.raises(OSError):
            prox._build()
        return
    first = prox._build()
    assert Path(first).parent == tmp_path / "__pycache__"
    mtime = os.stat(first).st_mtime_ns
    assert prox._build() == first
    assert os.stat(first).st_mtime_ns == mtime

    monkeypatch.setattr(prox, "_C_SOURCE", copy_source(tmp_path, "/* edited */\n"))
    edited = prox._build()
    assert edited != first
    assert sorted(os.listdir(tmp_path / "__pycache__")) == sorted(
        [Path(first).name, Path(edited).name])


def test_cache_name_covers_the_extension_suffix_and_numpy_version(monkeypatch):
    """A module built for another interpreter or against another numpy is
    never loaded: each names a different file."""
    base = prox._cache_path()
    assert base.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".cpython-399-other.so"])
    other_suffix = prox._cache_path()
    monkeypatch.undo()
    monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    other_numpy = prox._cache_path()
    assert len({base, other_suffix, other_numpy}) == 3
    assert other_suffix.endswith(".cpython-399-other.so")
    assert {Path(p).parent for p in (base, other_suffix, other_numpy)} == {Path(base).parent}


def test_concurrent_first_builds_agree(tmp_path):
    source = copy_source(tmp_path)
    script = ("import sys; import cncflsa.prox as p; p._C_SOURCE = sys.argv[1]; "
              "print(p._build())")
    env = dict(os.environ, PYTHONPATH=str(Path(prox.__file__).resolve().parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", script, source], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(3)]
    outs = [p.communicate(timeout=60) for p in procs]
    if not HAS_CC:
        assert all(p.returncode != 0 for p in procs)
        return
    assert [p.returncode for p in procs] == [0, 0, 0], [err for _, err in outs]
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    assert os.listdir(tmp_path / "__pycache__") == [Path(paths.pop()).name]
