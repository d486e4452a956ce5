"""Per-structure verification reports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three-way equivalence check on one structure.

    c1 is intra-regularity, c2 the bi-ideal triple condition, c3 the
    quasi-ideal triple condition.  witnesses holds (condition, witness)
    pairs for whichever conditions failed.
    """

    c1: bool
    c2: bool
    c3: bool
    equivalence_ok: bool
    witnesses: tuple = ()

    def __post_init__(self):
        if self.equivalence_ok != (self.c1 == self.c2 == self.c3):
            raise ValueError("equivalence_ok must equal (c1 == c2 == c3)")

    @classmethod
    def of(cls, c1, r2, r3):
        """Report from c1 and the c2/c3 condition results, each True or the
        first failing witness."""
        c2, c3 = r2 is True, r3 is True
        witnesses = tuple((c, r) for c, r in (("c2", r2), ("c3", r3)) if r is not True)
        return cls(c1, c2, c3, c1 == c2 == c3, witnesses)
