"""Rank placement: the logical-to-physical mapping collectives run over.

The paper's key insight is that the *same* recursive halving/doubling
schedule costs very different amounts depending on which physical node each
logical rank occupies. :class:`Placement` is that mapping, kept explicit so
the baseline (adjacent block numbering) and the improved scheme (round-robin
across supernodes) are just two instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CommunicatorError


@dataclass(frozen=True)
class Placement:
    """Immutable logical-rank -> physical-node mapping.

    Attributes
    ----------
    physical:
        ``physical[logical_rank]`` is the physical node id.
    name:
        Human-readable scheme name ("block", "round-robin", ...).
    """

    physical: tuple[int, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        if sorted(self.physical) != list(range(len(self.physical))):
            raise CommunicatorError(
                "placement must be a permutation of 0..p-1 physical nodes"
            )

    @property
    def p(self) -> int:
        """Number of ranks."""
        return len(self.physical)

    def node_of(self, logical_rank: int) -> int:
        """Physical node hosting ``logical_rank``."""
        if not 0 <= logical_rank < self.p:
            raise CommunicatorError(f"rank {logical_rank} out of range [0, {self.p})")
        return self.physical[logical_rank]
