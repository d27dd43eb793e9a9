"""Sweep-as-a-service: a long-running :class:`~repro.session.Session`
behind a small stdlib HTTP API.

- :mod:`repro.serve.server` — :class:`SweepServer` (routes, SSE
  streaming, the shared session);
- :mod:`repro.serve.jobs` — :class:`Job` / :class:`JobManager` (the job
  pool and append-only per-job event logs);
- :mod:`repro.serve.protocol` — wire forms (spec lists, declarative
  sweeps, :class:`JobOptions`);
- :mod:`repro.serve.auth` — :class:`ApiKeyAuth` (env/file/flag keys);
- :mod:`repro.serve.sse` — Server-Sent Events framing;
- :mod:`repro.serve.client` — :class:`ServeClient` + the
  ``python -m repro.serve.client`` CLI.

Launch with ``python -m repro.serve``; see README "Serving sweeps".
"""

from importlib import import_module

from .auth import ApiKeyAuth, load_key_file
from .jobs import Job, JobManager
from .protocol import (JobOptions, ProtocolError, decode_job, job_request,
                       specs_to_jsonable, sweep_from_jsonable)
from .server import SweepServer

#: lazily re-exported names (PEP 562): the server never loads the client
#: (and with it ``urllib.request``)
_LAZY_EXPORTS = {
    "ServeClient": ".client",
    "ServeError": ".client",
}

__all__ = [
    "SweepServer", "ServeClient", "ServeError",
    "Job", "JobManager", "JobOptions",
    "ProtocolError", "decode_job", "job_request",
    "specs_to_jsonable", "sweep_from_jsonable",
    "ApiKeyAuth", "load_key_file",
]


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)
