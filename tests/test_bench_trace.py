"""The benchmark's traced run against today's library, read-only from bench/.

A traced run wraps library attributes by name (``spans.Tracer.install``), so
a renamed or deleted attribute crashes it.  It then checks that a cold
process and a warm one count the same calls and work, so library state that
changes what the tracer sees fails it.  Both show here first.
"""

import os
import sys

import pytest

import lerchint
from lerchint.quad1d import _node_block

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import spans  # noqa: E402
import workloads  # noqa: E402

_MODULES = (lerchint.constants, lerchint.identities, lerchint.lerch, lerchint.qmc, lerchint.simplex)
# operations per workload, and a span each of them must record
_OPS = {"phi-mix": (40, "lerch.disk"), "verify-reduced": (40, "quad1d.reduced_eval"),
        "verify-qmc": (7, "qmc.estimate")}


def _traced_counters(ops) -> dict:
    """(calls, work, failed) per span name over one traced pass of ``ops``."""
    tracer = spans.Tracer()
    tracer.install(lerchint)
    try:
        for op_id, op in enumerate(ops):
            tracer.op_id = op_id
            try:
                workloads.run_op(lerchint, op)
            except (lerchint.ConvergenceError, lerchint.DomainError):
                pass  # an outcome the benchmark counts, not a crash
    finally:
        tracer.uninstall()
    return {name: (a["calls"], a["work"], a["failed"]) for name, a in spans.aggregate(tracer.spans).items()}


@pytest.mark.parametrize("workload", sorted(_OPS))
def test_traced_pass_restores_the_library_and_counts_cold_as_warm(workload):
    count, span = _OPS[workload]
    ops = workloads.Stream(workload, 1).take(count)
    before = [dict(vars(module)) for module in _MODULES]
    _node_block.cache_clear()
    cold = _traced_counters(ops)
    warm = _traced_counters(ops)
    for module, attrs in zip(_MODULES, before):
        assert {k: v for k, v in vars(module).items() if attrs.get(k) is not v} == {}, module.__name__
    assert cold == warm
    assert cold[span][0] > 0
