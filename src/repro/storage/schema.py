"""Table schemas: columns, keys, secondary indexes, foreign keys."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.errors import SchemaError
from repro.storage.types import ColumnType


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    type: ColumnType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint: ``columns`` reference ``parent_table``'s PK.

    Deletes of referenced parent rows are restricted unless ``cascade`` is
    set, in which case child rows are deleted with the parent (the cache's
    cacheData rows cascade with their cacheInfo entry).
    """

    columns: tuple[str, ...]
    parent_table: str
    cascade: bool = False


@dataclass(frozen=True)
class TableSchema:
    """Schema of a table: column definitions plus key and index metadata.

    Attributes:
        name: table name (catalog key).
        columns: ordered column definitions.
        primary_key: column names of the clustered primary key.
        indexes: secondary index definitions, name -> indexed columns.
        foreign_keys: referential constraints on this (child) table.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    indexes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"invalid table name {self.name!r}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {self.name}")
        if not self.primary_key:
            raise SchemaError(f"table {self.name} needs a primary key")
        for key_source, cols in [
            ("primary key", self.primary_key),
            *[(f"index {n}", cols) for n, cols in self.indexes.items()],
            *[(f"foreign key", fk.columns) for fk in self.foreign_keys],
        ]:
            unknown = set(cols) - set(names)
            if unknown:
                raise SchemaError(
                    f"{self.name} {key_source} references unknown columns {unknown}"
                )
        for pk_col in self.primary_key:
            if self.column(pk_col).nullable:
                raise SchemaError(f"{self.name}: primary key column {pk_col} nullable")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name.  Raises :class:`SchemaError` if absent."""
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name} has no column {name!r}")

    def validate_row(self, row: dict[str, object]) -> dict[str, object]:
        """Validate a full row dict; returns a normalised copy.

        Missing nullable columns default to ``None``.  Raises
        :class:`SchemaError` on unknown columns, missing non-nullable
        columns, or type mismatches.
        """
        unknown = set(row) - set(self.column_names)
        if unknown:
            raise SchemaError(f"table {self.name}: unknown columns {unknown}")
        out: dict[str, object] = {}
        for col in self.columns:
            value = row.get(col.name)
            if value is None:
                if not col.nullable:
                    raise SchemaError(
                        f"table {self.name}: column {col.name} may not be null"
                    )
                out[col.name] = None
            else:
                out[col.name] = col.type.validate(value, col.name)
        return out

    def key_of(self, row: dict[str, object]) -> tuple:
        """Primary-key tuple of a (validated) row."""
        return tuple(row[c] for c in self.primary_key)

    def row_size(self, row: dict[str, object]) -> int:
        """Stored size of a row in bytes (values + 2-byte null bitmap + slot)."""
        return (
            sum(
                self.column(name).type.encoded_size(value)
                for name, value in row.items()
            )
            + 2  # null bitmap
            + 4  # slot-directory entry
        )
