"""Guard for the repo benchmark's span hook (``userbench/ubench/spans.py``).

Under ``--trace 1`` the benchmark wraps the functions its ``WRAPS``
table names, by attribute path, right after their module is imported.
A renamed or deleted attribute in a module that still exists makes that
hook raise ``AttributeError`` inside the traced program, so every
wrapped path must keep resolving.  Modules that no longer exist are
skipped: the hook only fires when a module is imported.

The hook file is loaded by path; it is stdlib-only and has no import
side effects.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "userbench" / "ubench" / "spans.py"
SRC = Path(repro.__file__).resolve().parents[1]


def _wraps() -> dict:
    if not SPANS.exists():
        return {}
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def _module_under_src(name: str) -> bool:
    try:
        spec = importlib.util.find_spec(name)
    except ModuleNotFoundError:  # a parent package is gone too
        return False
    return (
        spec is not None
        and spec.origin is not None
        and SRC in Path(spec.origin).resolve().parents
    )


CASES = [
    (module, entry[0])
    for module, entries in sorted(_wraps().items())
    for entry in entries
]


@pytest.mark.skipif(not CASES, reason="benchmark span hook not present")
@pytest.mark.parametrize(
    "module_name,path", CASES, ids=[f"{m}:{p}" for m, p in CASES]
)
def test_wrapped_attribute_resolves(module_name, path):
    if not _module_under_src(module_name):
        pytest.skip(f"{module_name} no longer exists; the hook never fires")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = inspect.getattr_static(owner, part)
