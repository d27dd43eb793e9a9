# Container image for the sweep server (`python -m repro.serve`).
#
# Build:  docker build -t repro-serve .
# Run:    docker run --rm -p 8732:8732 -v repro-cache:/cache repro-serve
#
# The server binds 0.0.0.0 inside the container — publish the port to
# choose the outside exposure — and keeps its result cache under
# /cache so a named volume survives image upgrades.  REPRO_CACHE_DIR
# is also the default cache root, so the volume keeps the
# code-fingerprint memo (/cache/fingerprint.json) for the server and
# for any cache-off process run in the container alike; a restarted
# container skips parsing the simulation modules.  Extra
# flags (API keys, sweep workers, cache cap) go after the image name:
#
#   docker run --rm -p 8732:8732 repro-serve --workers 4 --api-key s3cret
FROM python:3.12-slim

RUN pip install --no-cache-dir numpy

WORKDIR /app
COPY src/ /app/src/

ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1 \
    REPRO_CACHE_DIR=/cache

EXPOSE 8732

# /v1/health is the unauthenticated liveness route
HEALTHCHECK --interval=30s --timeout=3s --start-period=5s CMD \
    python -c "import urllib.request as u; \
u.urlopen('http://127.0.0.1:8732/v1/health', timeout=2)"

ENTRYPOINT ["python", "-m", "repro.serve", "--host", "0.0.0.0", \
            "--port", "8732"]
