"""Replication: WAL shipping, hot standbys, bounded-staleness reads.

Built entirely on the durability layer: the primary
(:class:`ReplicatedMaintainer`) ships its own WAL's committed suffix in
wire format down fault-injectable simulated links
(:class:`ReplicationLink`); each :class:`Replica` replays shipments
through the standard recovery machinery and serves reads at its
``applied_seqno`` watermark; :class:`ReplicaSet` routes ``kappa`` /
``kappa_of`` by staleness budget; :func:`promote_on_failure` elects a new
primary after a crash, and term fencing (:class:`StaleTermError`) keeps
the deposed one from corrupting the promoted timeline.  See
``docs/RESILIENCE.md`` part 6.

Everything here is loaded lazily: importing :mod:`repro` never pays for
the replication stack unless it is used.
"""

from __future__ import annotations

__all__ = [
    "Ack",
    "Nak",
    "Replica",
    "ReplicaSet",
    "ReplicatedMaintainer",
    "ReplicationDivergence",
    "ReplicationError",
    "ReplicationLink",
    "Shipment",
    "StaleTermError",
    "TauDigest",
    "primary_suspected",
    "promote_on_failure",
    "tau_fingerprint",
]

_LAZY = {
    "Ack": "repro.replication.shipment",
    "Nak": "repro.replication.shipment",
    "Shipment": "repro.replication.shipment",
    "ReplicationError": "repro.replication.shipment",
    "ReplicationDivergence": "repro.replication.shipment",
    "StaleTermError": "repro.replication.shipment",
    "tau_fingerprint": "repro.replication.shipment",
    "TauDigest": "repro.replication.shipment",
    "ReplicationLink": "repro.replication.link",
    "Replica": "repro.replication.replica",
    "ReplicatedMaintainer": "repro.replication.primary",
    "primary_suspected": "repro.replication.primary",
    "promote_on_failure": "repro.replication.primary",
    "ReplicaSet": "repro.replication.replica_set",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
