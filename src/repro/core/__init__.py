"""Core contribution: the Encrypted M-Index client/server system.

* :mod:`repro.core.records` — the record that lives on the server: an
  object id, the pivot permutation and/or pivot distances, and the
  (encrypted or plain) payload,
* :mod:`repro.core.costs` — per-component cost accounting mirroring the
  rows of the paper's tables,
* :mod:`repro.core.server` — the untrusted similarity-cloud server
  (Algorithms 3 and 4),
* :mod:`repro.core.client` — the authorized client / data owner
  (Algorithms 1 and 2),
* :mod:`repro.core.cloud` — one-call wiring of a client/server pair over
  an in-process or TCP channel.
"""

from repro.core.client import DataOwner, EncryptedClient, Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.costs import CostReport, CostTimer
from repro.core.records import IndexedRecord
from repro.core.server import SimilarityCloudServer

__all__ = [
    "CostReport",
    "CostTimer",
    "DataOwner",
    "EncryptedClient",
    "IndexedRecord",
    "SimilarityCloud",
    "SimilarityCloudServer",
    "Strategy",
]
