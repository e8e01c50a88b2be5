"""The benchmark's traced runs wrap every function that `perfbench/spans.py`
lists in `TARGETS`; a renamed or removed target would only fail there, when
`Recorder.install()` looks it up.  This checks the list against the library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


def test_the_span_list_names_the_rank_kernel():
    assert TARGETS["linalg.rational_rank"] == ("linalg", "rational_rank")


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_span_target_resolves_to_a_callable(name):
    module, path = TARGETS[name]
    owner = importlib.import_module(f"sliceburnside.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name
