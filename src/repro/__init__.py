"""repro — Encrypted M-Index: secure metric similarity search in a cloud.

A from-scratch reproduction of

    Stepan Kozak, David Novak, Pavel Zezula:
    *Secure Metric-Based Index for Similarity Cloud*,
    Secure Data Management (SDM) workshop @ VLDB 2012.

Public API highlights
---------------------

* :class:`repro.SimilarityCloud` — one-call client/server deployment,
* :class:`repro.EncryptedClient` / :class:`repro.DataOwner` — the
  authorized roles (Algorithms 1–2), including the batched engine
  (``knn_batch`` / ``range_batch``: one round trip per query batch,
  deduplicated candidate decryption, optional LRU candidate cache),
* :class:`repro.SimilarityCloudServer` — the untrusted server
  (Algorithms 3–4),
* :class:`repro.MIndex` — the underlying pivot-permutation metric index,
* :class:`repro.SecretKey` — pivots + AES key,
* :mod:`repro.baselines` — non-encrypted M-Index, Trivial, EHI, MPT, FDH,
* :mod:`repro.privacy` — the privacy taxonomy and attack simulations,
* :mod:`repro.datasets` — YEAST / HUMAN / CoPhIR stand-ins,
* :mod:`repro.evaluation` — the experiment harness behind every table.
"""

from repro.core.client import DataOwner, EncryptedClient, SearchHit, Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.costs import CostReport
from repro.core.records import IndexedRecord
from repro.core.server import SimilarityCloudServer
from repro.crypto.cipher import AesCipher
from repro.crypto.keys import SecretKey
from repro.metric.distances import (
    Distance,
    L1Distance,
    L2Distance,
    MinkowskiDistance,
    WeightedCombination,
)
from repro.metric.space import MetricSpace
from repro.mindex.index import MIndex

__version__ = "1.0.0"

__all__ = [
    "AesCipher",
    "CostReport",
    "DataOwner",
    "Distance",
    "EncryptedClient",
    "IndexedRecord",
    "L1Distance",
    "L2Distance",
    "MIndex",
    "MetricSpace",
    "MinkowskiDistance",
    "SearchHit",
    "SecretKey",
    "SimilarityCloud",
    "SimilarityCloudServer",
    "Strategy",
    "WeightedCombination",
    "__version__",
]
