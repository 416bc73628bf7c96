"""The semantics enum: standard, atom-injective, query-injective (§2.1)."""

import enum


class Semantics(enum.Enum):
    """The three CRPQ semantics studied in the paper.

    They form a hierarchy (Remark 2.1): for every query Q and database G,
    ``Q(G)q-inj ⊆ Q(G)a-inj ⊆ Q(G)st``.
    """

    STANDARD = "st"
    ATOM_INJECTIVE = "a-inj"
    QUERY_INJECTIVE = "q-inj"

    def __str__(self):
        return self.value

    @staticmethod
    def coerce(value):
        """Accept a Semantics or one of the paper's short names."""
        if isinstance(value, Semantics):
            return value
        try:
            return Semantics(value)
        except ValueError:
            pass
        aliases = {
            "standard": Semantics.STANDARD,
            "atom-injective": Semantics.ATOM_INJECTIVE,
            "query-injective": Semantics.QUERY_INJECTIVE,
            "ainj": Semantics.ATOM_INJECTIVE,
            "qinj": Semantics.QUERY_INJECTIVE,
        }
        if value in aliases:
            return aliases[value]
        raise ValueError(f"unknown semantics: {value!r}")


ALL_SEMANTICS = (
    Semantics.STANDARD,
    Semantics.ATOM_INJECTIVE,
    Semantics.QUERY_INJECTIVE,
)
