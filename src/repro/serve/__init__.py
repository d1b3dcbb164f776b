"""repro.serve — simulation-as-a-service.

A long-lived asyncio job daemon in front of the experiment runner:
typed JSON job requests (:mod:`repro.experiments.request`, framed by
:mod:`repro.serve.protocol`), a priority job
queue with bounded concurrency (:mod:`repro.serve.daemon`), a
content-addressed result cache over the persistent run index
(:mod:`repro.serve.cache`), a plain JSON-lines TCP / unix-socket
transport with no third-party web framework
(:mod:`repro.serve.transport`), and the ``repro-serve`` CLI
(:mod:`repro.serve.cli`).

Quick tour::

    # terminal 1: the daemon
    repro-serve serve --socket /tmp/repro.sock

    # terminal 2: clients
    repro-serve submit --socket /tmp/repro.sock fig8 --fast --wait
    repro-serve submit --socket /tmp/repro.sock fig8 --fast --wait
    #   -> second submission is a cache hit, served from results/
    repro-serve status --socket /tmp/repro.sock JOB_ID
    repro-serve shutdown --socket /tmp/repro.sock

Repeat requests are free: every run's manifest records a canonical
content hash of the request (platform, workload, n, noise, seed,
schedule, grids, observability profile and the package's source
fingerprint, ...), the run index carries it,
and the daemon answers a matching submission from ``results/`` with a
``cache_hit`` marker instead of re-simulating.  See
``docs/SERVICE.md`` for the full protocol and operational notes.
"""

import importlib

# Public name -> defining submodule.  Resolved on first attribute access
# (PEP 562), so importing one submodule -- the experiment runner needs
# only ``cache`` for its cache key -- does not drag in
# the daemon, the transport, the client and asyncio.
_EXPORTS = {
    "ResultCache": "cache",
    "cache_key": "cache",
    "JobDaemon": "daemon",
    "CANCELLED": "jobs",
    "DONE": "jobs",
    "FAILED": "jobs",
    "QUEUED": "jobs",
    "RUNNING": "jobs",
    "TERMINAL_STATES": "jobs",
    "Job": "jobs",
    "PriorityJobQueue": "jobs",
    "PROTOCOL_VERSION": "protocol",
    "JobRequest": "protocol",
    "ProtocolError": "protocol",
    "canonical_request": "protocol",
    "decode_message": "protocol",
    "encode_message": "protocol",
    "validate_request": "protocol",
    "ServeServer": "transport",
    "handle_message": "transport",
    "ServeClient": "client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
