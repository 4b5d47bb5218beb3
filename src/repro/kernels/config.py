"""Kernel tier variant configuration.

A *variant spec* names a base tier plus its compilation flags in one
string: ``"numba"``, ``"numba-parallel"``, ``"numba-fastmath"``,
``"numba-parallel-fastmath"`` (flag order in the input is free; the
canonical name always orders ``parallel`` before ``fastmath``).  The
registry resolves specs to :class:`KernelTierConfig` values and compiles
one kernel set per distinct config, lazily.  A bare base spec has no
flags; the variant spec is the only way to request them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: base tier names a variant spec may start with
BASE_NAMES = ("numpy", "numba", "auto")

#: flag tokens accepted after the base name
FLAG_NAMES = ("parallel", "fastmath")


@dataclass(frozen=True)
class KernelTierConfig:
    """One resolved tier variant: a base tier plus compilation flags.

    Hashable and frozen so the registry can key its per-config tier
    cache on it directly.
    """

    base: str = "numba"
    parallel: bool = False
    fastmath: bool = False

    def __post_init__(self) -> None:
        if self.base not in BASE_NAMES:
            raise ValueError(
                f"unknown base tier {self.base!r}; expected one of {BASE_NAMES}"
            )
        if self.base == "numpy" and (self.parallel or self.fastmath):
            raise ValueError(
                "the numpy tier has no parallel/fastmath variants; "
                "use a numba-* spec"
            )

    @property
    def name(self) -> str:
        """Canonical spec string (``base[-parallel][-fastmath]``)."""
        parts = [self.base]
        if self.parallel:
            parts.append("parallel")
        if self.fastmath:
            parts.append("fastmath")
        return "-".join(parts)

    @property
    def flags(self) -> tuple:
        """The compilation-flag key the kernel-set cache uses."""
        return (self.parallel, self.fastmath)


def parse_tier_spec(spec: str) -> KernelTierConfig:
    """Parse a variant spec string into a :class:`KernelTierConfig`.

    Raises ``ValueError`` on unknown bases, unknown or repeated flags,
    and flags on the numpy base.
    """
    tokens = spec.strip().lower().split("-")
    base = tokens[0]
    if base not in BASE_NAMES:
        raise ValueError(
            f"unknown kernel tier {spec!r}; expected a base from "
            f"{BASE_NAMES} optionally followed by flags {FLAG_NAMES} "
            '(e.g. "numba-parallel")'
        )
    flags = {"parallel": False, "fastmath": False}
    for token in tokens[1:]:
        if token not in FLAG_NAMES:
            raise ValueError(
                f"unknown kernel tier flag {token!r} in spec {spec!r}; "
                f"expected flags from {FLAG_NAMES}"
            )
        if flags[token]:
            raise ValueError(f"duplicate flag {token!r} in spec {spec!r}")
        flags[token] = True
    return KernelTierConfig(
        base=base, parallel=flags["parallel"], fastmath=flags["fastmath"]
    )
