"""SPMD object model surface: the transfer-method vocabulary."""

from __future__ import annotations

import enum


class TransferMethod(enum.Enum):
    """The two distributed-argument transfer methods of paper §3."""

    CENTRALIZED = "centralized"
    MULTIPORT = "multiport"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def values(cls) -> frozenset[str]:
        """The valid spellings of a ``transfer=`` argument.

        Shared by the proxy layer and by ``repro.lint``'s
        transfer-method checks, so the accepted vocabulary has one
        home.
        """
        return frozenset(member.value for member in cls)
