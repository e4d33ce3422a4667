"""Every function the benchmark's tracer wraps still exists in orbitlab,
so that a rename in the package cannot silently break a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TARGETS = ([(prefix, module, path)
            for prefix, module, path, _ in tracing.SPAN_TARGETS]
           + list(tracing.COUNT_TARGETS))


@pytest.mark.parametrize("prefix,module,path", TARGETS,
                         ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(prefix, module, path):
    mod = importlib.import_module(f"orbitlab.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer replaces the method in the class's own namespace
        assert callable(vars(getattr(mod, cls_name))[attr])
    else:
        assert callable(getattr(mod, path))
