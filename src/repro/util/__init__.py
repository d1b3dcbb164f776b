"""Shared utilities: integer math, seeded RNG, table formatting."""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562), so importing one submodule does not load its siblings.
_EXPORTS = {
    "ceil_div": "intmath",
    "ilog2": "intmath",
    "is_power_of_two": "intmath",
    "log_base": "intmath",
    "next_power_of_two": "intmath",
    "powers_of_two": "intmath",
    "NoiseModel": "rng",
    "make_rng": "rng",
    "format_table": "tables",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
