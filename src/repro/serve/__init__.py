"""``repro.serve`` — the async streaming counting service.

Turns the library's batch machinery (registry algorithms, incremental
stream validation, snapshot/restore, bit-exact shard merge, anytime
``current_estimate()``) into a long-lived service:

* :mod:`repro.serve.protocol` — the wire protocol: JSON-line control
  ops, the binary pair-batch feed frame, error codes, framing,
  session-snapshot encoding;
* :mod:`repro.serve.session` — one client's stream: incremental
  validation, list assembly, algorithm dispatch identical to the batch
  runner (estimates are bit-identical to offline runs);
* :mod:`repro.serve.manager` — the session table: budgets, backpressure,
  cross-session merge, graceful-shutdown checkpointing, telemetry;
* :mod:`repro.serve.server` — the asyncio TCP front-end
  (``repro-cycles serve``) and the transport-free request dispatcher;
* :mod:`repro.serve.router` — horizontal scale-out
  (``repro-cycles serve --workers N``): hash-sharded sessions over
  persistent worker processes, cross-worker merge;
* :mod:`repro.serve.client` — ``ServeClient`` (TCP, multiplexing,
  binary-frame negotiation) and ``InProcessClient`` (same surface,
  no sockets);
* :mod:`repro.serve.loadgen` — the session-fleet load generator behind
  ``benchmarks/bench_serve.py``'s fleet run and the benchmark suite's
  session-fleet workload.

See ``docs/SERVING.md`` for the protocol and lifecycle reference.
"""

from repro.serve.client import InProcessClient, ServeClient, ServeClientError
from repro.serve.manager import SessionManager
from repro.serve.protocol import PROTOCOL_VERSION, ServeError
from repro.serve.server import ServeServer, handle_request
from repro.serve.session import ServeSession

__all__ = [
    "PROTOCOL_VERSION",
    "ServeError",
    "ServeSession",
    "SessionManager",
    "ServeServer",
    "handle_request",
    "ServeClient",
    "ServeClientError",
    "InProcessClient",
]
