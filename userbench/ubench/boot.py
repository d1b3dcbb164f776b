"""Run one of the program's entry points with the span recorder on.

Usage::

    python boot.py ROLE SPAN_DIR ENTRY [ARGS...]

``ENTRY`` is ``repro-experiments`` or ``repro-serve``; ``ARGS`` are
passed to it exactly as to the console script.  ``ROLE`` labels this
process's span file (``cli`` or ``daemon``).  The recorder is
installed before the entry point's module is imported, so import
times are recorded too.
"""

import os
import sys

ENTRIES = {
    "repro-experiments": "repro.experiments.runner",
    "repro-serve": "repro.serve.cli",
}


def main() -> int:
    role, span_dir, entry, *args = sys.argv[1:]
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # boot.py's own directory must not shadow the program's modules.
    sys.path[:] = [p for p in sys.path if p != os.path.dirname(os.path.abspath(__file__))]
    from ubench import spans

    spans.install(span_dir, role)
    import importlib

    module = importlib.import_module(ENTRIES[entry])
    sys.argv = [entry, *args]
    return module.main()


if __name__ == "__main__":
    sys.exit(main())
