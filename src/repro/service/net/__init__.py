"""Network front-end: the multi-tenant collector server and client.

The paper's deployment is a controller collecting randomized reports
from many untrusted subjects over a network. This package is that
request surface, four layers deep:

* :mod:`repro.service.net.protocol` — the sans-io session protocol:
  one CRC'd envelope around the existing wire frames plus JSON control
  messages, an incremental decoder, and the handshake/query
  validators. Unit-testable without a socket.
* :mod:`repro.service.net.storage` — :class:`LocalFSBackend`: where
  tenant and client-stream state directories live, and the root/tenant
  design pins.
* :mod:`repro.service.net.tenants` — :class:`TenantManager`: lazily
  opened, LRU-bounded collector services, one per (tenant, client)
  stream, design-fingerprint pinning, per-tenant in-flight byte
  budgets, and merged tenant-level query front-ends.
* :mod:`repro.service.net.server` / ``client`` — the asyncio
  :class:`CollectorServer` (admission control, real backpressure,
  group-commit durable acks, drain-checkpoint-close on SIGTERM) and
  the blocking :class:`CollectorClient` (windowed pipelining,
  retry-driven reconnect with exact resend).

The one invariant everything here serves: an acked frame is durable,
and after any combination of disconnects, reconnects, and resends the
tenant's merged estimates are byte-identical to a single offline
ingest of the same frames.
"""

from repro.exceptions import (
    HandshakeError,
    NetworkError,
    RemoteServiceError,
    WireProtocolError,
)
from repro.service.net.client import DEFAULT_WINDOW, CollectorClient
from repro.service.net.protocol import (
    DEFAULT_MAX_PAYLOAD,
    NET_VERSION,
    MessageDecoder,
)
from repro.service.net.server import (
    DEFAULT_MAX_CONNECTIONS,
    CollectorServer,
    ThreadedCollectorServer,
)
from repro.service.net.storage import (
    LocalFSBackend,
    load_server_meta,
    load_tenant_meta,
    save_server_meta,
    save_tenant_meta,
)
from repro.service.net.tenants import (
    DEFAULT_BUDGET_BYTES,
    DEFAULT_MAX_TENANTS,
    TenantManager,
)

__all__ = [
    "NET_VERSION",
    "DEFAULT_MAX_PAYLOAD",
    "DEFAULT_WINDOW",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_MAX_TENANTS",
    "DEFAULT_BUDGET_BYTES",
    "MessageDecoder",
    "CollectorServer",
    "ThreadedCollectorServer",
    "CollectorClient",
    "TenantManager",
    "LocalFSBackend",
    "save_server_meta",
    "load_server_meta",
    "save_tenant_meta",
    "load_tenant_meta",
    "NetworkError",
    "WireProtocolError",
    "HandshakeError",
    "RemoteServiceError",
]
