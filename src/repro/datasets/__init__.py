"""Data sets for the reproduction.

The paper evaluates on YEAST (2,882 × 17, L1), HUMAN (4,026 × 96, L1)
and CoPhIR (1M × 280, weighted Lp combination). The originals are not
redistributable / downloadable offline, so :mod:`repro.datasets.synthetic`
generates statistical stand-ins with the same cardinality (CoPhIR's
scaled down), dimensionality and metric, each recording the
substitution in its ``info``, and :mod:`repro.datasets.registry`
exposes them under the paper's names.
"""

from repro.datasets.registry import (
    Dataset,
    cophir_distance,
    load_dataset,
    make_cophir,
    make_human,
    make_yeast,
)
from repro.datasets.synthetic import (
    clustered_gaussian,
    gene_expression_matrix,
    image_descriptor_matrix,
)

__all__ = [
    "Dataset",
    "clustered_gaussian",
    "cophir_distance",
    "gene_expression_matrix",
    "image_descriptor_matrix",
    "load_dataset",
    "make_cophir",
    "make_human",
    "make_yeast",
]
