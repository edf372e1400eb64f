"""Mid-query failover — the names, at the path they have always had.

Replica routing and failover live in the cluster's one TCP transport
(:class:`repro.net.transport.TcpTransport`): replication is a
:class:`~repro.ha.placement.PlacementMap` handed to that class, and
:data:`HaTcpTransport` *is* ``TcpTransport``.
"""

from repro.net.transport import TcpTransport as HaTcpTransport
from repro.net.transport import failover_worthy

__all__ = ["HaTcpTransport", "failover_worthy"]
