"""Per-category store of previously selected viewpoints.

Viewpoints chosen for an object are recorded under the object's category so
later rounds can reuse views that proved informative for similar shapes.
Each category keeps a bounded FIFO of recent entries; sampling draws
uniformly with replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Viewpoint

__all__ = [
    "DEFAULT_POOL_CAPACITY",
    "EmptyCategoryError",
    "ViewpointPool",
    "record",
    "sample_by_category",
]

DEFAULT_POOL_CAPACITY = 1024


class EmptyCategoryError(LookupError):
    """Raised when sampling from an unknown or empty category.

    Callers treat this as the signal to fall back to fresh selection.
    """


@dataclass
class ViewpointPool:
    """Bounded per-category FIFO of viewpoints."""

    capacity: int = DEFAULT_POOL_CAPACITY
    entries: dict[str, list[Viewpoint]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"pool capacity must be positive, got {self.capacity}")

    def categories(self) -> list[str]:
        return sorted(self.entries)

    def size(self, category: str) -> int:
        return len(self.entries.get(category, ()))


def record(pool: ViewpointPool, category: str, viewpoints: list[Viewpoint]) -> None:
    """Append viewpoints under a category, evicting oldest past capacity."""
    if not category:
        raise ValueError("category name must be non-empty")
    bucket = pool.entries.setdefault(category, [])
    bucket.extend(viewpoints)
    if len(bucket) > pool.capacity:
        del bucket[: len(bucket) - pool.capacity]


def sample_by_category(
    pool: ViewpointPool, category: str, count: int, rng: np.random.Generator
) -> list[Viewpoint]:
    """Draw ``count`` viewpoints uniformly with replacement from a category.

    Raises :class:`EmptyCategoryError` if the category is unknown or empty so
    the caller can fall back to fresh selection.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    bucket = pool.entries.get(category)
    if not bucket:
        raise EmptyCategoryError(f"no pooled viewpoints for category {category!r}")
    picks = rng.integers(0, len(bucket), size=count)
    return [bucket[int(i)] for i in picks]
