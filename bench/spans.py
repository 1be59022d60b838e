"""Span recorder for the traced run.

The tracer wraps public functions at the module attribute each caller looks
them up through, so no file of the library changes.  Each span keeps
(name, start, end, parent, operation id, work, error) in memory; the
aggregation at the end derives busy and self times and the work counters.
A span's self time is its duration minus the union of its children's
intervals, so replicate integrands that overlap on two threads are not
subtracted twice.
"""

from __future__ import annotations

import threading
import time

NAME, START, END, PARENT, OP, WORK, ERROR, KEY = range(8)

REGIONS = ("disk", "band", "circle", "z1", "zm1")


def lerch_region(z: complex) -> str:
    """Dispatch region of phi for this z, classified the way phi dispatches."""
    if abs(z - 1.0) <= 1e-14:
        return "z1"
    if abs(z + 1.0) <= 1e-14:
        return "zm1"
    az = abs(z)
    if az <= 0.9:
        return "disk"
    if az < 1.0 - 1e-14:
        return "band"
    return "circle"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op_id = -1
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, key=None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: its work belongs to the main thread's open span
            parent = self._main_stack[-1] if self._main_stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0, None, key])
        stack.append(idx)
        return idx

    def end(self, idx: int, work: int = 0, error: str | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[WORK] = work
        span[ERROR] = error
        self._stack().pop()

    # ------------------------------------------------------------ wrapping

    def _patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, fn, name_of, work_of=lambda r, a: 0, key_of=None):
        tracer = self

        def wrapped(*args, **kwargs):
            key = key_of(args, kwargs) if key_of else None
            idx = tracer.begin(name_of(args, kwargs), key)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end(idx, error=type(exc).__name__)
                raise
            tracer.end(idx, work_of(result, args))
            return result

        return wrapped

    def _wrap_factory(self, factory, name: str):
        """Wrap a function that returns an integrand; spans go on the integrand."""
        tracer = self

        def wrapped_factory(*args, **kwargs):
            return tracer._wrap(factory(*args, **kwargs), lambda a, k: name, _points)

        return wrapped_factory

    def install(self, lib) -> None:
        const = lib.constants
        ident = lib.identities
        phi_name = lambda a, k: "lerch." + lerch_region(complex(a[0].z))  # noqa: E731
        phi_work = lambda r, a: r.work  # noqa: E731
        self._patch(lib.lerch, "phi", self._wrap(lib.lerch.phi, phi_name, phi_work))
        self._patch(ident, "phi", self._wrap(ident.phi, phi_name, phi_work))
        self._patch(ident, "gamma", self._wrap(ident.gamma, lambda a, k: "special.gamma"))
        self._patch(ident, "reduce", self._wrap(ident.reduce, lambda a, k: "simplex.reduce",
                                                lambda r, a: len(r.terms)))
        self._patch(ident, "reduced_eval", self._wrap(
            ident.reduced_eval, lambda a, k: "quad1d.reduced_eval", lambda r, a: r.nodes))
        self._patch(const, "tanh_sinh", self._wrap(
            const.tanh_sinh, lambda a, k: "quad1d.tanh_sinh", lambda r, a: r.nodes))
        self._patch(ident, "verify", self._wrap(ident.verify, lambda a, k: "identities.verify"))
        self._patch(ident, "verify_dimension_lift", self._wrap(
            ident.verify_dimension_lift, lambda a, k: "identities.lift"))
        self._patch(ident, "build_integrand",
                    self._wrap_factory(ident.build_integrand, "identities.integrand"))
        self._patch(const, "theorem4_corner_integrand",
                    self._wrap_factory(const.theorem4_corner_integrand, "constants.integrand"))
        self._patch(lib.qmc, "qmc_estimate", self._wrap(
            lib.qmc.qmc_estimate, lambda a, k: "qmc.estimate",
            lambda r, a: r.points * r.replicates,
            key_of=lambda a, k: (k.get("points", a[2] if len(a) > 2 else None), a[1])))

        def constant_name(a, k):
            method = k.get("method", a[1] if len(a) > 1 else "reduced")
            return "constants." + method

        for attr in ("euler_gamma_via_integral", "ln4_over_pi_via_integral"):
            self._patch(const, attr, self._wrap(getattr(const, attr), constant_name))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def _points(result, args) -> int:
    """Rows of the (n, m) point array an integrand was called with."""
    shape = getattr(args[0], "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans) -> dict:
    """Per span name: calls, busy_ms, self_ms, work, failed."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(idx)
    out: dict = {}
    for idx, span in enumerate(spans):
        busy = span[END] - span[START]
        kids = [(max(spans[c][START], span[START]), min(spans[c][END], span[END]))
                for c in children.get(idx, ())]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        agg = out.setdefault(span[NAME], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0,
                                          "work": 0, "failed": 0})
        agg["calls"] += 1
        agg["busy_ms"] += 1e3 * busy
        agg["self_ms"] += 1e3 * (busy - covered)
        agg["work"] += span[WORK]
        agg["failed"] += span[ERROR] is not None
    return out


def closed_form_ms(spans) -> float:
    """Time in phi and gamma spans whose parent is a verify span."""
    total = 0.0
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == "identities.verify" and (
                span[NAME].startswith("lerch.") or span[NAME] == "special.gamma"):
            total += span[END] - span[START]
    return 1e3 * total


def shape_repeat_frac(spans) -> float:
    """Share of qmc_estimate calls whose (points, m) occurred earlier."""
    seen = set()
    repeats = calls = 0
    for span in spans:
        if span[NAME] == "qmc.estimate":
            calls += 1
            repeats += span[KEY] in seen
            seen.add(span[KEY])
    return repeats / calls if calls else 0.0
