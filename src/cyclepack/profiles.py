"""Target profiles: the multiset of even cycle lengths to pack, with its degree threshold."""
from __future__ import annotations

from dataclasses import dataclass

THEOREM = "theorem"
CONJECTURE = "conjecture"
_MIN_LENGTH = {THEOREM: 6, CONJECTURE: 4}


class ProfileError(ValueError):
    """Invalid profile specification."""


@dataclass(frozen=True)
class CycleProfile:
    """k required cycle lengths, kept sorted descending (ties keep input order).

    The last entry plays the role of the cycle built in the leftover graph by
    the solver, so a deterministic ordering makes runs reproducible.
    """

    lengths: tuple[int, ...]
    mode: str = THEOREM

    def __post_init__(self):
        if self.mode not in _MIN_LENGTH:
            raise ProfileError(f"unknown mode {self.mode!r}")
        if not self.lengths:
            raise ProfileError("profile must contain at least one cycle length")
        floor = _MIN_LENGTH[self.mode]
        for idx, c in enumerate(self.lengths):
            if not isinstance(c, int) or c < floor or c % 2:
                raise ProfileError(
                    f"length {c!r} at position {idx} invalid: "
                    f"{self.mode}-mode requires even lengths >= {floor}"
                )
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, key=lambda c: -c)))

    @property
    def k(self) -> int:
        return len(self.lengths)

    @property
    def n(self) -> int:
        return sum(self.lengths)

    @property
    def threshold(self) -> int:
        """Minimum-degree bound n/2 - k + 1 that guarantees the packing exists."""
        return self.n // 2 - self.k + 1


def make_profile(lengths, mode: str = THEOREM) -> CycleProfile:
    """Validated profile from an iterable of cycle lengths."""
    return CycleProfile(tuple(lengths), mode)
