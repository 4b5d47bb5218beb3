"""Shared low-level utilities: CSR arrays, validation, RNG, timing,
identity-keyed caches."""

from repro.utils.arrays import (
    CSR,
    csr_from_lists,
    csr_rows,
    invert_permutation,
    scatter_add,
    segment_sum,
)
from repro.utils.identity import IdentityKey
from repro.utils.rng import default_rng, spawn_rngs
from repro.utils.timers import Counter, Stopwatch, median_iqr
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_shape,
    require,
)

__all__ = [
    "CSR",
    "csr_from_lists",
    "csr_rows",
    "invert_permutation",
    "scatter_add",
    "segment_sum",
    "IdentityKey",
    "default_rng",
    "spawn_rngs",
    "Counter",
    "Stopwatch",
    "median_iqr",
    "check_finite",
    "check_positive",
    "check_shape",
    "require",
]
