"""Canonical wire encodings for the campaign service.

The service's whole caching argument rests on one invariant: the bytes
``GET /v1/runs/<spec_key>`` serves are exactly the bytes a local
``repro.run()`` of the same spec would produce under the same encoding.
That holds because both sides funnel through the same two functions:

* :func:`~repro.runtime.result.result_payload` — the plain-data
  envelope for one executed :class:`~repro.runtime.result.RunResult`
  (spec key + the ``repro.run.v1`` record the JSONL exporters already
  emit), the same one the CLI campaigns store, and
* :func:`payload_bytes` — its deterministic JSON encoding (sorted keys,
  compact separators, via :func:`repro.obs.exporters.dumps_record`).

:func:`execute_spec_payload` is the module-level worker task the
service's :class:`~repro.runtime.executor.SupervisedExecutor` pool
pickles by reference: spec dict in, result payload out.  Because
:func:`repro.runtime.builder.execute` is a pure function of its spec,
the payload is bit-identical whether computed in a pool worker, the
service process, or a caller's own interpreter — which is what makes a
stored payload a sound cache entry (docs/service.md).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.exporters import dumps_record
from repro.runtime.result import RESULT_SCHEMA, result_payload
from repro.runtime.spec import RunSpec

__all__ = ["RESULT_SCHEMA", "execute_spec_payload", "payload_bytes",
           "result_payload"]


def payload_bytes(payload: Mapping[str, Any]) -> bytes:
    """Deterministic JSON bytes for a payload (the HTTP response body)."""
    return dumps_record(payload).encode("utf-8")


def execute_spec_payload(spec_data: Mapping[str, Any]) -> dict[str, Any]:
    """Worker task: execute one canonical spec dict, return its payload.

    Module-level so the supervised pool pickles it by reference; pure
    function of ``spec_data``, so retries and cache replays agree.
    """
    from repro.runtime.builder import execute

    result = execute(RunSpec.from_dict(dict(spec_data)))
    return result_payload(result)
