"""The benchmark's span wrappers still find every call site they time.

`perfbench/spans.py` replaces module-level names such as
`spawncphd.filtering.bell_coefficients` with timing wrappers. A rename or a
rebinding of one of those names should fail here, not only in a traced
benchmark pass.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_call_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(spans)
        resolved = spans.resolve_call_sites()
    finally:
        del sys.modules[spec.name]
    assert len(resolved) == len(spans.CALL_SITES)
