"""Figures 2–5 — the paper's structural diagrams, as executable checks.

The paper's figures are schematics, not data plots; their reproducible
content is structural:

* **Figure 2** (recursive Voronoi partitioning): every indexed object
  lives in the cell identified by the prefix of its pivot permutation.
* **Figure 3** (dynamic cell tree): overflowing cells split one level
  deeper; the bench renders the real tree of a YEAST index.
* **Figure 4** (insert flow): the construction-phase request carries
  the pivot permutation and the AES token — nothing else.
* **Figure 5** (search flow): the query request carries the pivot
  permutation (approximate) or distances (precise); the response
  carries encrypted candidates; the plaintext query never appears.
"""

import numpy as np
import pytest
from conftest import save_result

from repro.core.client import Strategy
from repro.evaluation.runner import run_encrypted_construction
from repro.mindex.cell_tree import InternalCell, LeafCell
from repro.wire.encoding import Reader


@pytest.fixture(scope="module")
def cloud(yeast):
    built, _ = run_encrypted_construction(
        yeast, strategy=Strategy.APPROXIMATE, seed=0
    )
    return built


def test_figure2_recursive_voronoi_partitioning(cloud, benchmark):
    """Every stored record sits in the cell named by its permutation
    prefix — the defining property of Figures 2(a)/(b)."""
    index = cloud.server.index
    checked = 0
    for leaf in index.tree.leaves():
        for record in index.storage.load(leaf.prefix):
            perm = record.ensure_permutation()
            assert tuple(int(p) for p in perm[: leaf.level]) == leaf.prefix
            checked += 1
    assert checked == len(index)

    lines = [
        "Figure 2 (verified property): each of the "
        f"{checked} objects lives in the Voronoi cell matching its "
        "pivot-permutation prefix.",
        f"first-level cells: "
        f"{len({leaf.prefix[:1] for leaf in index.tree.leaves() if leaf.prefix})}",
        f"max partitioning depth: {index.depth}",
    ]
    save_result("figure2_partitioning", "\n".join(lines))

    record = index.storage.load(index.tree.leaves()[0].prefix)[0]
    benchmark(lambda: index.tree.locate_leaf(record.ensure_permutation()))


def _render_tree(node, depth=0, max_children=4, lines=None):
    lines = lines if lines is not None else []
    indent = "  " * depth
    if isinstance(node, LeafCell):
        lines.append(f"{indent}C{list(node.prefix)} [{node.count} objects]")
    else:
        lines.append(f"{indent}C{list(node.prefix)}")
        children = sorted(node.children.items())
        for pivot, child in children[:max_children]:
            _render_tree(child, depth + 1, max_children, lines)
        if len(children) > max_children:
            lines.append(f"{indent}  ... {len(children) - max_children} more")
    return lines


def test_figure3_dynamic_cell_tree(cloud, benchmark):
    """Render the actual cell tree (Figure 3) and verify its dynamics:
    only cells that exceeded the bucket capacity were split."""
    index = cloud.server.index
    assert isinstance(index.tree.root, InternalCell)  # YEAST splits level 1
    for node in index.tree.iter_nodes():
        if isinstance(node, LeafCell) and index.tree.can_split(node):
            assert node.count <= index.bucket_capacity
    lines = ["Figure 3: the dynamic Voronoi cell tree of the YEAST index"]
    lines.extend(_render_tree(index.tree.root))
    save_result("figure3_cell_tree", "\n".join(lines))

    benchmark(lambda: index.tree.leaves())


class _RecordingChannel:
    """Wraps the server handler and keeps every request/response."""

    def __init__(self, handler):
        self.handler = handler
        self.traffic: list[tuple[bytes, bytes]] = []

    def __call__(self, request: bytes) -> bytes:
        response = self.handler(request)
        self.traffic.append((request, response))
        return response


def test_figure4_insert_flow(yeast, benchmark):
    """The bulk insert request (Figure 4) carries permutations and
    ciphertexts only — no plaintext, no distances under the approximate
    strategy."""
    from repro.core.cloud import SimilarityCloud
    from repro.core.records import RecordBatch

    cloud = SimilarityCloud.build(
        yeast.vectors, distance=yeast.distance, n_pivots=yeast.n_pivots,
        bucket_capacity=yeast.bucket_capacity,
        strategy=Strategy.APPROXIMATE, seed=0,
    )
    recorder = _RecordingChannel(cloud.server.handle)
    cloud.owner.client.rpc.channel._handler = recorder
    cloud.owner.outsource(range(100), yeast.vectors[:100])

    assert len(recorder.traffic) == 1
    request, _response = recorder.traffic[0]
    reader = Reader(request)
    assert reader.string() == "insert_bulk"
    body = Reader(reader.blob())
    batch = RecordBatch.read_from(body)
    body.expect_end()
    assert len(batch) == 100
    assert batch.permutations.shape == (100, yeast.n_pivots)  # permutations ✔
    assert batch.distances is None                            # no distances ✔
    payloads = b"".join(batch.payloads.tolist())
    for vector in yeast.vectors[:100]:
        plaintext = np.ascontiguousarray(vector, dtype="<f8").tobytes()
        assert plaintext not in payloads                      # encrypted ✔
    save_result(
        "figure4_insert_flow",
        "Figure 4 (verified flow): one bulk insert carried 100 records "
        "of {oid, pivot permutation, AES token}; no plaintext bytes and "
        "no distances crossed the wire.",
    )
    client = cloud.new_client()
    benchmark(lambda: client.insert(10**9, yeast.vectors[0]))


def test_figure5_search_flow(cloud, yeast, benchmark):
    """The search request (Figure 5) carries the query permutation and
    CandSize; the response is a pre-ranked list of encrypted objects."""
    client = cloud.new_client()
    recorder = _RecordingChannel(cloud.server.handle)
    client.rpc.channel._handler = recorder
    query = yeast.queries[0]
    client.knn_search(query, 10, cand_size=150)

    assert len(recorder.traffic) == 1
    request, response = recorder.traffic[0]
    reader = Reader(request)
    assert reader.string() == "approx_knn"
    body = Reader(reader.blob())
    permutation = body.i32_array()
    assert sorted(permutation.tolist()) == list(range(yeast.n_pivots))
    assert body.u32() == 150  # CandSize
    # the query object itself must not be in the request
    q_bytes = np.ascontiguousarray(query, dtype="<f8").tobytes()
    assert q_bytes not in request

    envelope = Reader(response)
    assert envelope.u8() == 0  # OK
    envelope.f64()  # server time
    candidates = Reader(envelope.blob())
    assert candidates.u32() == 150
    save_result(
        "figure5_search_flow",
        "Figure 5 (verified flow): the search request carried only the "
        "query's pivot permutation and CandSize; the response carried "
        "150 pre-ranked encrypted candidates; the query object never "
        "crossed the wire.",
    )
    benchmark(lambda: client.knn_search(query, 10, cand_size=150))
