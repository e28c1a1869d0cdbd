"""Every function the benchmark's span tracer wraps exists in the package.

``bench/spans.py`` wraps its ``TARGETS`` by module and attribute path; a
renamed function would make ``bench/run.py --trace 1`` fail, or record
nothing for that span.  The file is read as it is, without importing the
rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    targets = span_targets()
    assert targets
    missing = []
    for name, module_name, path in targets:
        assert module_name.startswith("vknots."), name
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{name}: {module_name}.{path}")
                break
        else:
            assert callable(owner), name
    assert missing == []
