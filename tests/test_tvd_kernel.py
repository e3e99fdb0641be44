"""The compiled tvd kernel against the pure-Python reference: bit equality
of the kernel and of whole solves, the build cache and its file names, the
fallback, and the baseline bodies of the compiled entries against the
bodies this CPU runs."""

import importlib.machinery
import os
import re
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
    KINDS,
    CncConfig,
    NoiseSpec,
    PenaltySpec,
    add_awgn,
    default_pulse_spec,
    fused_lasso_l1,
    generate_pulses,
    lambda1_heuristic,
    majorized_input,
    objective,
    select_a1,
    solve,
)
from cncflsa import prox

from suites import EDGE

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


# The line of _kernels.c that builds each entry twice; "#define CLONES"
# in its place leaves the baseline body alone.
CLONES_DEFINE = re.compile(r"^#define CLONES __attribute__\(\(target_clones\(.*\)\)\)$", re.M)
# a*|z| on both sides of 2**56, past the overflow of the atan and rational
# squares, and past that of a*|z| itself (not for atan, which rejects it).
EDGE_DEGREES = (2.0**52, 2.0**55, 1e160, 1e308)


@pytest.fixture(scope="module")
def baseline_module(tmp_path_factory):
    """The module built from a copy of _kernels.c without its clones, so
    that every entry runs the body that a CPU without AVX2 would run."""
    if prox._tvd_c is None:
        pytest.skip("no compiled library")
    source = Path(copy_source(tmp_path_factory.mktemp("baseline")))
    text, found = CLONES_DEFINE.subn("#define CLONES", source.read_text())
    if not found:
        pytest.skip("_kernels.c builds no clones")
    source.write_text(text)
    with mock.patch.object(prox, "_C_SOURCE", str(source)):
        return prox._load(prox._build())


def degrees(kind, rng):
    """A random degree and the edge degrees the kind accepts."""
    if kind == "l1":
        return [0.0]
    return [float(rng.uniform(0.01, 3.0)), *EDGE_DEGREES[:3 if kind == "atan" else 4]]


def entry_calls():
    """(entry, args) of every entry on seeded signals: the prefixes of
    suites.EDGE that end the vector maps in every kind of tail, and longer
    random ones; each kind at a random degree and at the edge degrees."""
    rng = np.random.default_rng(23)
    edge = np.array(EDGE)
    signals = [edge[:n] for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33)]
    signals += [rng.normal(0.0, 2.0, n) for n in (1, 2, 300, 1000)]
    for y in signals:
        lam0, lam1 = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 3.0))
        if y.size > 1:
            yield "tvd", (y, lam1)
        yield "soft_threshold", (y, lam0)
        yield "loops", (y, np.abs(y))
        yield "total", (y,)
        yield "total", (y, y[::-1].copy())
        yield "shifted_input", (y, lam0, rng.normal(0.0, 1.0, y.size), lam1,
                                rng.normal(0.0, 1.0, y.size - 1))
        yield "all_finite", (y,)
        for bad in (np.inf, -np.inf, np.nan):
            z = y.copy()
            z[rng.integers(y.size)] = bad
            yield "all_finite", (z,)
        for kind in KINDS:
            for a in degrees(kind, rng):
                for z in (y, y[1:] - y[:-1]):
                    yield "penalty_map", (KINDS.index(kind), a, z, 0)
                    yield "penalty_map", (KINDS.index(kind), a, z, 1)
                # mdfl on this kind at this degree, and cnc's share on the
                # differences at a random degree of another kind.
                other = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
                weight = 1.0 / a if a else lam0
                cfg = CncConfig(weight, lam1, PenaltySpec(kind, a),
                                PenaltySpec(other, degrees(other, rng)[0]), allow_nonconvex=True)
                with np.errstate(all="ignore"):
                    x0 = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
                    f0 = objective(x0, y, cfg)
                    shifted = majorized_input(x0, y, cfg)
                yield "mm_solve", (y, shifted, f0, cfg.lambda0, cfg.lambda1, cfg.penalty0.a,
                                   cfg.penalty1.a, KINDS.index(cfg.penalty0.kind),
                                   KINDS.index(cfg.penalty1.kind), 50, 1e-9)


def result_bytes(out):
    """The bytes of an entry's result, its tuples item by item."""
    if isinstance(out, tuple):
        return tuple(result_bytes(item) for item in out)
    return np.asarray(out, dtype=float).tobytes()


@pytest.mark.parametrize("entry", prox._ENTRIES)
def test_baseline_bodies_give_the_bytes_of_the_loaded_ones(baseline_module, entry):
    """On an AVX2 CPU the loaded module runs each entry's x86-64-v3 clone,
    and no other test reaches the baseline bodies; built alone, they give
    the same bytes, and neither body writes its arguments."""
    calls = [args for name, args in entry_calls() if name == entry]
    assert calls
    for args in calls:
        before = [result_bytes(a) for a in args]
        expected = result_bytes(getattr(prox._tvd_c, entry)(*args))
        assert result_bytes(getattr(baseline_module, entry)(*args)) == expected, args
        assert [result_bytes(a) for a in args] == before
