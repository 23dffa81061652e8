"""Persistent content-addressed artifact store.

The cross-request :class:`~repro.service.cache.ResidualCache` and the
compiled artifacts of :mod:`repro.backend` die with the process; this
package is the disk tier below them — one SQLite file (WAL mode)
holding JSON-round-tripped results keyed on request fingerprints,
shared across worker processes and restarts:

* :class:`ArtifactStore` (:mod:`repro.store.store`) — checksummed,
  atomically-written, corruption-quarantining, LRU-evicting key/value
  store over plain dict payloads;
* :mod:`repro.store.schema` — the DDL, SQL and pragmas in one place.

The service layer mounts it as a read-through/write-behind second cache
tier (see :class:`repro.service.scheduler.SpecializationService`),
written behind once per batch: one ``put_many`` transaction holds all
of a ``run_batch`` call's results; the
``ppe store {stats,gc,verify}`` CLI administers it; the crash and
corruption harness in ``tests/store/`` pins the never-raise contract.
"""

from repro.store.store import (
    ArtifactStore, checksum_text, encode_payload, row_checksum)

__all__ = ["ArtifactStore", "checksum_text", "encode_payload",
           "row_checksum"]
