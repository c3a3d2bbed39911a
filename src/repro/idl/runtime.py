"""Support objects referenced by compiler-generated Python code.

Generated modules stay declarative: the behaviour of typedefs, structs
and namespaces lives here so the emitted text is short and auditable.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cdr.typecodes import DSequenceTC, StructTC, UnionTC
from repro.dist import BlockTemplate, DistributedSequence, Proportions
from repro.dist.template import DistTemplate


def template_to_spec(template: Any) -> tuple:
    """Normalize a template object to the wire/spec tuple form —
    hashable, whatever sequence a given spec holds its weights in
    (layouts are kept per spec)."""
    if isinstance(template, tuple):
        return (template[0], *map(tuple, template[1:]))
    if isinstance(template, BlockTemplate):
        return ("block",)
    weights = getattr(template, "weights", None)
    if weights is not None:
        return ("proportions", tuple(int(w) for w in weights))
    raise TypeError(
        f"cannot express {type(template).__name__} as a template "
        f"spec; use BlockTemplate or Proportions"
    )


def template_from_spec(spec: Any) -> DistTemplate | None:
    """Decode the template tuple stored in a DSequenceTC.

    ``('block',)`` → uniform blockwise; ``('proportions', (2,4,2,4))``
    → :class:`Proportions`; ``None`` → no preset distribution.
    """
    if spec is None:
        return None
    if spec[0] == "block":
        return BlockTemplate()
    if spec[0] == "proportions":
        return Proportions(*spec[1])
    raise ValueError(f"unknown distribution spec {spec!r}")


class DSequenceFactory:
    """What a ``typedef dsequence<...> name;`` compiles to.

    Mirrors the paper's generated sequence class: construction by
    length (optionally with a distribution), the conversion constructor
    (:meth:`adopt`), and the type's metadata.  A preset distribution in
    the IDL freezes the sequence's distribution, making
    ``redistribute`` an error, per §2.2.
    """

    def __init__(self, name: str, typecode: DSequenceTC) -> None:
        self.name = name
        self.typecode = typecode

    @property
    def bound(self) -> int | None:
        return self.typecode.bound

    @property
    def preset_template(self) -> DistTemplate | None:
        return template_from_spec(self.typecode.template)

    @property
    def dtype(self) -> np.dtype:
        return self.typecode.element_dtype

    def create(
        self,
        length: int | None = None,
        comm: Any = None,
        template: DistTemplate | None = None,
    ) -> DistributedSequence:
        """Instantiate the sequence (collective when ``comm`` given).

        ``length`` defaults to the IDL bound for bounded sequences —
        the paper's fixed-length form ``dsequence<double, 1024>``.
        """
        if length is None:
            if self.bound is None:
                raise ValueError(
                    f"{self.name} is unbounded; a length is required"
                )
            length = self.bound
        applied, frozen = self._resolve_template(template, comm)
        return DistributedSequence(
            length,
            dtype=self.dtype,
            template=applied,
            comm=comm,
            bound=self.bound,
            frozen=frozen,
        )

    def _resolve_template(
        self, template: DistTemplate | None, comm: Any
    ) -> tuple[DistTemplate | None, bool]:
        """Which template applies for a group, and whether it freezes.

        The preset distribution recorded in the IDL typedef binds the
        party whose thread count it names (typically the server that
        registered it).  A group of a different size — or the serial
        non-distributed mapping — falls back to uniform blockwise and
        stays redistributable; the transfer schedule bridges the two
        sides' layouts.
        """
        preset = self.preset_template
        if template is not None and preset is not None:
            raise ValueError(
                f"{self.name} has a preset distribution; cannot override"
            )
        if comm is None:
            return template, False
        if preset is None:
            return template, False
        if preset.nranks not in (None, comm.size):
            return None, False
        return preset, True

    def adopt(
        self,
        local_data: np.ndarray,
        comm: Any = None,
        *,
        release: bool = False,
    ) -> DistributedSequence:
        """The conversion constructor of the paper's mapping."""
        return DistributedSequence.adopt(
            np.asarray(local_data, dtype=self.dtype),
            comm=comm,
            release=release,
            bound=self.bound,
        )

    def from_global(
        self, data: np.ndarray, comm: Any = None
    ) -> DistributedSequence:
        """Build from replicated global data (collective)."""
        applied, _frozen = self._resolve_template(None, comm)
        return DistributedSequence.from_global(
            np.asarray(data, dtype=self.dtype),
            comm=comm,
            template=applied,
            bound=self.bound,
        )

    def __call__(self, *args: Any, **kwargs: Any) -> DistributedSequence:
        return self.create(*args, **kwargs)

    def __repr__(self) -> str:
        return f"<dsequence typedef {self.name}>"


class StructFactory:
    """What an IDL ``struct`` compiles to: a dict constructor with
    field validation, plus the struct's typecode."""

    def __init__(self, typecode: StructTC) -> None:
        self.typecode = typecode
        self._field_names = [name for name, _ in typecode.fields]

    @property
    def name(self) -> str:
        return self.typecode.name

    def __call__(self, *args: Any, **kwargs: Any) -> dict[str, Any]:
        if len(args) > len(self._field_names):
            raise TypeError(
                f"{self.name} takes at most {len(self._field_names)} "
                f"positional fields"
            )
        value = dict(zip(self._field_names, args))
        for key, item in kwargs.items():
            if key not in self._field_names:
                raise TypeError(f"{self.name} has no field '{key}'")
            if key in value:
                raise TypeError(f"field '{key}' given twice")
            value[key] = item
        missing = [n for n in self._field_names if n not in value]
        if missing:
            raise TypeError(f"{self.name} missing fields {missing}")
        return value

    def __repr__(self) -> str:
        return f"<struct {self.name}>"


class UnionFactory:
    """What an IDL ``union`` compiles to: a constructor for
    ``{"d": discriminator, "v": value}`` dicts, validated against the
    union's cases, plus per-member helpers."""

    def __init__(self, typecode: UnionTC) -> None:
        self.typecode = typecode

    @property
    def name(self) -> str:
        return self.typecode.name

    def __call__(self, d: Any, v: Any) -> dict[str, Any]:
        value = {"d": d, "v": v}
        self.typecode.validate(value)
        return value

    def make(self, member: str, d: Any, v: Any) -> dict[str, Any]:
        """Construct while asserting which member arm is selected."""
        selected, _tc = self.typecode.arm_for(d)
        if selected != member:
            raise ValueError(
                f"{self.name}: discriminator {d!r} selects "
                f"'{selected}', not '{member}'"
            )
        return self(d, v)

    def member_of(self, value: dict[str, Any]) -> str:
        """Which member arm a value carries."""
        member, _tc = self.typecode.arm_for(value["d"])
        return member

    def __repr__(self) -> str:
        return f"<union {self.name}>"


class IdlNamespace:
    """What an IDL ``module`` compiles to: a named attribute bag."""

    def __init__(self, name: str, **members: Any) -> None:
        self._name = name
        for key, value in members.items():
            setattr(self, key, value)

    def __repr__(self) -> str:
        return f"<idl module {self._name}>"
