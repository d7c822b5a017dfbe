"""lcakit: local query access to the outputs of seeded online algorithms.

A query for one item's output (an edge's matching verdict, a ball's bin, a
vertex's color) is answered by exploring the item's rank-dependency closure
and replaying the online rule inside it, so any number of queries stay
consistent with one global solution per seed.
"""

from .ranks import (
    FullPseudorandom,
    KWiseIndependent,
    Rank,
    Seed,
    derive_subseed,
    random_in_range,
    rank_of,
)

__version__ = "0.1.0"

__all__ = [
    "FullPseudorandom",
    "KWiseIndependent",
    "Rank",
    "Seed",
    "derive_subseed",
    "random_in_range",
    "rank_of",
    "__version__",
]
