"""Unified simulation front door with content-addressed result caching.

- :mod:`repro.session.session` — :class:`Session` (backend selection,
  worker sharding, cache policy) and the default session the
  experiment drivers fall back to;
- :mod:`repro.session.cache` — :func:`cache_key` (canonical hash of the
  resolved config, measurement knobs, and code-version fingerprint) and
  :class:`ResultCache` (one file per entry under ``.repro_cache/``).

See README "Session API & caching" for the migration table.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    FORMAT_VERSION,
    ResultCache,
    cache_key,
    code_fingerprint,
    module_fingerprint,
)
from .inflight import InFlightRegistry
from .session import (
    Scenario,
    Session,
    default_session,
    session_from_env,
)

__all__ = [
    "Session", "Scenario",
    "default_session", "session_from_env",
    "ResultCache", "cache_key", "code_fingerprint", "module_fingerprint",
    "DEFAULT_CACHE_DIR", "FORMAT_VERSION", "InFlightRegistry",
]
