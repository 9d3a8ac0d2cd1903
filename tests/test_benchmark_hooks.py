"""The names the traced benchmark run looks up in the program.

``perfbench/spans.py`` wraps functions at the modules where their callers
look them up and reads ``RiccatiSolution.iterations``; its own smoke test
is not part of a plain ``pytest`` run, so a renamed or removed name would
first fail inside the benchmark. The module is loaded from its file, as is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lqmfg import solve_riccati

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable(spans):
    for module_name, attr, _ in spans.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_riccati_work_reads_the_doubling_steps(spans, model):
    sol = solve_riccati(model)
    assert isinstance(sol.iterations, int) and sol.iterations > 0
    work = spans._work_fns()["riccati.solve_riccati"]
    assert work((model,), {}, sol) == sol.iterations
