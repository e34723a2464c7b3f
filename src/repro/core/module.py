"""Workflow modules.

A module ``m`` (Section 2.1) takes a set ``I`` of input attributes, produces
a set ``O`` of output attributes, and is modeled as a relation over
``A = I ∪ O`` satisfying the functional dependency ``I -> O``.  Concretely a
:class:`Module` wraps a Python callable mapping an input assignment to an
output assignment, together with the two attribute schemas, a privacy class
(private or public), and a privatization cost used in Section 5.

The standalone relation of a module is obtained by enumerating its whole
input domain (``Dom = prod_a Delta_a``) and recording ``m(x)`` for every
``x``; this is the relation ``R`` of Definition 1 and the object the
standalone Secure-View machinery works on.

A module built by :meth:`Module.from_table` (as every deserialized module
is) keeps its explicit input-tuple -> output-tuple table.  Serialization,
fingerprinting and kernel compilation read that table directly, so they
never materialize the relation.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Sequence

from ..exceptions import SchemaError, WiringError
from .attributes import Attribute, Schema, Value
from .relation import Relation

__all__ = ["Module", "ModuleFunction", "tabulate_function"]


#: A module function maps an input assignment to an output assignment.
ModuleFunction = Callable[[Mapping[str, Value]], Mapping[str, Value]]


class Module:
    """A data-processing step with functionality ``m : Dom -> Range``.

    Parameters
    ----------
    name:
        Unique module name within a workflow.
    inputs, outputs:
        Input and output attributes.  Their name sets must be disjoint
        (requirement (1) of Section 2.3).
    function:
        Callable mapping a dict of input values to a dict of output values.
        The callable must be deterministic: the library relies on the
        functional dependency ``I -> O``.
    private:
        ``True`` for private (proprietary) modules whose behaviour must be
        protected, ``False`` for public modules whose behaviour is known to
        every user (Section 2.2).
    privatization_cost:
        Cost ``c(m)`` of hiding the identity of a *public* module
        (Section 5.2).  Ignored for private modules.
    """

    __slots__ = (
        "name",
        "_inputs",
        "_outputs",
        "_function",
        "private",
        "privatization_cost",
        "_relation_cache",
        "_table",
        "_fingerprint",
    )

    def __init__(
        self,
        name: str,
        inputs: Sequence[Attribute],
        outputs: Sequence[Attribute],
        function: ModuleFunction,
        private: bool = True,
        privatization_cost: float = 1.0,
    ) -> None:
        if not name:
            raise SchemaError("module name must be non-empty")
        input_schema = Schema(inputs)
        output_schema = Schema(outputs)
        overlap = set(input_schema.names) & set(output_schema.names)
        if overlap:
            raise WiringError(
                f"module {name!r}: input and output attribute names overlap: "
                f"{sorted(overlap)}"
            )
        if len(output_schema) == 0:
            raise WiringError(f"module {name!r} must have at least one output")
        if privatization_cost < 0:
            raise SchemaError(f"module {name!r} has negative privatization cost")
        self.name = name
        self._inputs = input_schema
        self._outputs = output_schema
        self._function = function
        self.private = bool(private)
        self.privatization_cost = float(privatization_cost)
        self._relation_cache: Relation | None = None
        #: Explicit functionality of a table-backed module (see from_table).
        self._table: dict[tuple[Value, ...], tuple[Value, ...]] | None = None
        #: Content-fingerprint memo, filled by
        #: :func:`repro.workloads.module_fingerprint`.  Costs and the privacy
        #: flag are not part of it, so content-preserving clones copy it.
        self._fingerprint: str | None = None

    @classmethod
    def from_table(
        cls,
        name: str,
        inputs: Sequence[Attribute],
        outputs: Sequence[Attribute],
        table: Mapping[tuple[Value, ...], Sequence[Value]],
        private: bool = True,
        privatization_cost: float = 1.0,
    ) -> "Module":
        """A module whose functionality is an explicit lookup table.

        ``table`` maps input tuples (in ``inputs`` order) to output tuples
        (in ``outputs`` order).  It is checked once against the schemas and
        kept in the enumeration order of the input domain, exactly as
        :func:`tabulate_function` lists a module's relation: every input
        assignment needs an entry with one in-domain value per output
        (:class:`SchemaError` otherwise), and entries outside the input
        domain are dropped.
        """
        input_names = tuple(attr.name for attr in inputs)
        output_names = tuple(attr.name for attr in outputs)
        checked: dict[tuple[Value, ...], tuple[Value, ...]] = {}

        def function(values: Mapping[str, Value]) -> dict[str, Value]:
            # ``apply`` validated the inputs, so the checked table has the key.
            key = tuple(values[input_name] for input_name in input_names)
            return dict(zip(output_names, checked[key]))

        module = cls(
            name,
            inputs,
            outputs,
            function,
            private=private,
            privatization_cost=privatization_cost,
        )
        output_domains = [attr.domain for attr in module.output_schema]
        for key in itertools.product(*(a.domain.values for a in module.input_schema)):
            try:
                image = tuple(table[key])
            except KeyError as exc:
                raise SchemaError(
                    f"module {name!r} has no tabulated output for {key!r}"
                ) from exc
            if len(image) != len(output_domains):
                raise SchemaError(
                    f"module {name!r} maps {key!r} to {len(image)} values, "
                    f"expected {len(output_domains)}"
                )
            for domain, value in zip(output_domains, image):
                domain.validate(value)
            checked[key] = image
        module._table = checked
        return module

    # -- schema access --------------------------------------------------------
    @property
    def input_schema(self) -> Schema:
        return self._inputs

    @property
    def output_schema(self) -> Schema:
        return self._outputs

    @property
    def input_names(self) -> tuple[str, ...]:
        return self._inputs.names

    @property
    def output_names(self) -> tuple[str, ...]:
        return self._outputs.names

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """All attribute names ``I ∪ O`` in input-then-output order."""
        return self._inputs.names + self._outputs.names

    @property
    def schema(self) -> Schema:
        """Schema over ``I ∪ O``."""
        return self._inputs.union(self._outputs)

    @property
    def public(self) -> bool:
        return not self.private

    # -- evaluation -----------------------------------------------------------
    def apply(self, inputs: Mapping[str, Value]) -> dict[str, Value]:
        """Evaluate the module on one input assignment.

        The result is validated: it must assign a legal value to every output
        attribute and nothing else.
        """
        restricted = {name: inputs[name] for name in self._inputs.names}
        self._inputs.validate_assignment(restricted)
        raw = self._function(restricted)
        try:
            result = {name: raw[name] for name in self._outputs.names}
        except (KeyError, TypeError) as exc:
            raise SchemaError(
                f"module {self.name!r} did not produce output attribute "
                f"{exc.args[0]!r}"
            ) from exc
        self._outputs.validate_assignment(result)
        return result

    def __call__(self, inputs: Mapping[str, Value]) -> dict[str, Value]:
        return self.apply(inputs)

    # -- relation materialization ----------------------------------------------
    @property
    def table(self) -> dict[tuple[Value, ...], tuple[Value, ...]] | None:
        """The explicit functionality of a table-backed module, else ``None``.

        Read-only by convention: content-preserving clones share it.
        """
        return self._table

    def relation(self) -> Relation:
        """The standalone relation ``R`` of the module (Definition 1).

        Enumerates the full input domain (a table-backed module reads its
        table instead of calling the function).  The result is cached
        because privacy checks and requirement derivation revisit it many
        times.
        """
        if self._relation_cache is None:
            if self._table is not None:
                rows = [key + image for key, image in self._table.items()]
            else:
                rows = []
                for assignment in self._inputs.iter_assignments():
                    out = self.apply(assignment)
                    row = dict(assignment)
                    row.update(out)
                    rows.append(row)
            self._relation_cache = Relation(self.schema, rows, check_domains=False)
        return self._relation_cache

    def relation_for_inputs(self, inputs: Iterable[Mapping[str, Value]]) -> Relation:
        """Relation restricted to a given set of input assignments.

        Used when a module sits inside a workflow and only sees the inputs
        produced by its predecessors (the projection ``pi_{Ii∪Oi}(R)`` of
        Section 4 may be a strict subset of the standalone relation).
        """
        rows = []
        seen: set[tuple[Value, ...]] = set()
        for assignment in inputs:
            restricted = {name: assignment[name] for name in self._inputs.names}
            key = tuple(restricted[name] for name in self._inputs.names)
            if key in seen:
                continue
            seen.add(key)
            row = dict(restricted)
            row.update(self.apply(restricted))
            rows.append(row)
        return Relation(self.schema, rows, check_domains=False)

    # -- classification helpers -------------------------------------------------
    def domain_size(self) -> int:
        """``|Dom| = prod_{a in I} |Delta_a|``."""
        return self._inputs.assignment_count()

    def range_size(self) -> int:
        """``prod_{a in O} |Delta_a|`` (size of the output value space)."""
        return self._outputs.assignment_count()

    def is_one_to_one(self) -> bool:
        """True if distinct inputs always map to distinct outputs."""
        rel = self.relation()
        outputs = {
            tuple(row[name] for name in self._outputs.names) for row in rel
        }
        return len(outputs) == len(rel)

    def is_constant(self) -> bool:
        """True if every input maps to the same output tuple."""
        rel = self.relation()
        outputs = {
            tuple(row[name] for name in self._outputs.names) for row in rel
        }
        return len(outputs) <= 1

    def is_invertible(self) -> bool:
        """True if the module is a bijection between Dom and Range.

        This is the property exploited by the public module ``m''`` of
        Example 7: seeing the outputs of an invertible public module reveals
        its inputs exactly.
        """
        return self.is_one_to_one() and self.domain_size() == self.range_size()

    def image(self) -> set[tuple[Value, ...]]:
        """Set of output tuples the module can produce."""
        rel = self.relation()
        return {tuple(row[name] for name in self._outputs.names) for row in rel}

    # -- derivation of new modules -----------------------------------------------
    def renamed(self, name: str) -> "Module":
        """Copy of the module under a new name (same function and schemas)."""
        return Module(
            name,
            self._inputs.attributes,
            self._outputs.attributes,
            self._function,
            private=self.private,
            privatization_cost=self.privatization_cost,
        )

    def as_private(self) -> "Module":
        """Copy of the module marked private (used by privatization)."""
        clone = Module(
            self.name,
            self._inputs.attributes,
            self._outputs.attributes,
            self._function,
            private=True,
            privatization_cost=self.privatization_cost,
        )
        clone._share_content(self)
        return clone

    def with_attribute_costs(self, costs: Mapping[str, float]) -> "Module":
        """Copy of the module with some attribute hiding costs overridden.

        Attributes absent from ``costs`` keep their declared cost.  Privacy
        is cost-independent, so the copy shares this module's relation,
        table and fingerprint (the engine's derivation cache relies on that
        when re-costing a workflow for a what-if solve).
        """
        clone = Module(
            self.name,
            [attr.with_cost(costs.get(attr.name, attr.cost)) for attr in self._inputs],
            [attr.with_cost(costs.get(attr.name, attr.cost)) for attr in self._outputs],
            self._function,
            private=self.private,
            privatization_cost=self.privatization_cost,
        )
        clone._share_content(self)
        return clone

    def _share_content(self, source: "Module") -> None:
        """Adopt ``source``'s functionality artifacts (same function and names)."""
        self._relation_cache = source._relation_cache
        self._table = source._table
        self._fingerprint = source._fingerprint

    def with_function(self, function: ModuleFunction) -> "Module":
        """Copy of the module with a different functionality.

        This is the redefinition ``m_j -> g_j`` used in the constructive
        proof of Lemma 1 (see :mod:`repro.core.composition`).  The copy is
        function-backed: it inherits no table, relation or fingerprint.
        """
        return Module(
            self.name,
            self._inputs.attributes,
            self._outputs.attributes,
            function,
            private=self.private,
            privatization_cost=self.privatization_cost,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "private" if self.private else "public"
        return (
            f"Module({self.name!r}, I={list(self.input_names)}, "
            f"O={list(self.output_names)}, {kind})"
        )


def tabulate_function(module: Module) -> dict[tuple[Value, ...], tuple[Value, ...]]:
    """Return the module's function as an explicit input-tuple -> output-tuple map.

    Handy for tests and for constructing flipped/redefined modules: the keys
    are input tuples in ``module.input_names`` order and the values output
    tuples in ``module.output_names`` order.  A table-backed module returns
    its own table (do not mutate it); any other module is tabulated from its
    relation.
    """
    if module.table is not None:
        return module.table
    # Relation columns are the module schema: inputs, then outputs.
    split = len(module.input_names)
    return {row[:split]: row[split:] for row in module.relation().tuples}
