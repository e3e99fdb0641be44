"""In-memory span tracer that wraps the library's public functions.

Spans are recorded only from this file: every public function of the
``prox``, ``penalties``, ``cnc``, ``signalgen`` and ``cli`` modules is
replaced by a timing wrapper in every module namespace that holds it, so a
call is seen whichever module it was looked up in (``cnc`` imports
``fused_lasso_l1`` by name, ``cli`` imports ``solve``, ``add_awgn`` and so
on).  The ``PenaltySpec`` methods are wrapped on the class.  Nothing under
``src/`` is changed; :meth:`Tracer.uninstall` puts every original back.

A span is ``[id, name, start_ns, end_ns, parent_id, extra]``; ids start at 1
and parent 0 is the caller outside any traced function.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

PENALTY_METHODS = ("value", "residual", "residual_deriv", "majorizer")


def _solve_extra(args, result):
    """Method and stopping facts of one MM solve, kept on its span."""
    cfg = args[1]
    method = "cnc" if cfg.penalty1.a > 0.0 else ("mdfl" if cfg.penalty0.a > 0.0 else "l1")
    hit_cap = result.iterations >= cfg.max_iter and not result.converged
    return (method, result.iterations, hit_cap)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._restore = []

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [len(spans) + 1, name, 0, 0, stack[-1], None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        return traced

    def install(self):
        import cncflsa
        from cncflsa import cli, cnc, penalties, prox, signalgen

        modules = (cncflsa, prox, penalties, cnc, signalgen, cli)
        public = [getattr(cncflsa, n) for n in cncflsa.__all__]
        public += [v for n, v in vars(cli).items()
                   if inspect.isfunction(v) and v.__module__ == cli.__name__
                   and not n.startswith("_")]
        wrappers = {}
        for fn in public:
            if inspect.isfunction(fn) and fn not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                wrappers[fn] = self.wrap(name, fn, _solve_extra if fn is cnc.solve else None)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for meth in PENALTY_METHODS:
            fn = vars(penalties.PenaltySpec)[meth]
            self._restore.append((penalties.PenaltySpec, meth, fn))
            setattr(penalties.PenaltySpec, meth, self.wrap(f"penalties.{meth}", fn))

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()


def summarize(groups):
    """Per span name: calls, busy_ns and self_ns, plus the solve extras.

    ``groups`` holds one span list per process, since span ids are per
    process.  Busy time is the sum of a name's span durations (no public
    function of the library calls itself, so spans of one name never nest).
    Self time is a span's duration minus the time covered by its direct
    children.
    """
    out = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
    solves = []
    for spans in groups:
        child_ns = defaultdict(int)
        for span in spans:
            child_ns[span[4]] += span[3] - span[2]
        for sid, name, start, end, _parent, extra in spans:
            agg = out[name]
            agg["calls"] += 1
            agg["busy_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[sid]
            if extra is not None:
                solves.append(extra)
    return dict(out), solves
