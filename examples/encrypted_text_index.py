"""Scenario: an encrypted similarity index over *strings*.

Run:  python examples/encrypted_text_index.py

The paper's method is defined for any metric space, not just vectors —
the server consumes pivot permutations and ciphertext, nothing else.
This example proves that by outsourcing a vocabulary of words under the
Levenshtein (edit) distance: the very same ``SimilarityCloudServer``
serves the index, while a ~40-line client computes permutations with a
string metric and encrypts UTF-8 payloads. Fuzzy word lookup ("find
words similar to this possibly-misspelled one") runs without the server
ever seeing a single character.
"""

import numpy as np

from repro.core.records import IndexedRecord
from repro.core.server import SimilarityCloudServer
from repro.crypto.cipher import AesCipher
from repro.metric.permutations import pivot_permutation
from repro.metric.strings import GenericMetricSpace, levenshtein
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.wire.encoding import Writer
from repro.wire.scatter import read_candidate_table

rng = np.random.default_rng(5)

# a synthetic vocabulary: roots with mutations (think: surname index,
# gene names, product codes)
_ALPHABET = list("abcdefghijklmnopqrstuvwxyz")
roots = [
    "".join(rng.choice(_ALPHABET, size=rng.integers(5, 9)))
    for _ in range(60)
]
vocabulary = []
for root in roots:
    vocabulary.append(root)
    for _ in range(rng.integers(3, 10)):
        word = list(root)
        for _ in range(rng.integers(1, 3)):
            pos = rng.integers(0, len(word))
            word[pos] = rng.choice(_ALPHABET)
        vocabulary.append("".join(word))
vocabulary = sorted(set(vocabulary))
print(f"vocabulary: {len(vocabulary)} words, metric: edit distance")

# -- the secret key: pivot WORDS + an AES key ------------------------------
space = GenericMetricSpace(levenshtein)
n_pivots = 12
pivot_words = [
    vocabulary[i]
    for i in rng.choice(len(vocabulary), size=n_pivots, replace=False)
]
cipher = AesCipher(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())

# -- the very same untrusted server as the vector experiments --------------
server = SimilarityCloudServer(n_pivots, bucket_capacity=40)
rpc = RpcClient(InProcessChannel(server.handle))

# -- construction: permutation + ciphertext per word -----------------------
writer = Writer()
writer.u32(len(vocabulary))
tokens = cipher.encrypt_many([w.encode("utf-8") for w in vocabulary])
for oid, (word, token) in enumerate(zip(vocabulary, tokens)):
    distances = space.d_batch(word, pivot_words)
    record = IndexedRecord(oid, pivot_permutation(distances), None, token)
    record.write_to(writer)
total = rpc.call("insert", writer).u64()
print(f"outsourced {total} encrypted words into "
      f"{server.index.n_cells} cells "
      f"({space.distance_count} edit-distance evaluations, all client-side)")


def fuzzy_lookup(query: str, k: int = 5, cand_size: int = 60):
    """Approximate k-NN under edit distance, Algorithm 2 for strings."""
    distances = space.d_batch(query, pivot_words)
    permutation = pivot_permutation(distances)
    request = Writer()
    request.i32_array(permutation)
    request.u32(cand_size)
    request.u32(0)
    candidates = read_candidate_table(rpc.call("approx_knn", request))
    words = [
        token.decode("utf-8")
        for token in cipher.decrypt_many(candidates.payloads.tolist())
    ]
    ranked = sorted(
        zip(words, space.d_batch(query, words)), key=lambda wd: (wd[1], wd[0])
    )
    return ranked[:k]


for query in ("mispeling-" + roots[0], roots[10][:-2] + "xx", "zzzzz"):
    results = fuzzy_lookup(query)
    print(f"\nwords similar to {query!r}:")
    for word, distance in results:
        print(f"  {word:<12} (edit distance {int(distance)})")

# sanity: the server stored no readable characters of any word
for cell in server.storage.cells():
    for record in server.storage.load(cell):
        assert not any(
            w.encode() in record.payload for w in vocabulary[:10]
        )
print("\nverified: no plaintext word bytes anywhere in the server state")
