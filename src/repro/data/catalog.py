"""The data lake catalog.

A :class:`DataLake` registers named data sources.  Following the paper,
non-relational collections (images, texts) are *presented as special tables*:
an image collection becomes ``table(columns=['img_path': 'str',
'image': 'IMAGE'])`` and a text collection becomes
``table(columns=['<id>': ..., '<doc>': 'TEXT'])`` so that they can take part
in regular joins.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from repro.data.memo import Memo
from repro.data.table import Table
from repro.errors import UnknownTableError


class SourceKind(enum.Enum):
    """What kind of data source a catalog entry wraps."""

    TABLE = "table"
    IMAGE_COLLECTION = "image_collection"
    TEXT_COLLECTION = "text_collection"


@dataclass
class DataSource:
    """One named entry of the data lake."""

    name: str
    table: Table
    kind: SourceKind = SourceKind.TABLE
    description: str = ""

    @property
    def is_multimodal(self) -> bool:
        return self.kind is not SourceKind.TABLE

    def prompt_repr(self) -> str:
        """Schema line for a CAESURA prompt (Figure 3 format), memoised
        on the table (:meth:`~repro.data.table.Table.prompt_line`)."""
        return self.table.prompt_line(self.name)


@dataclass
class DataLake:
    """A registry of data sources plus lake-level metadata.

    A lake is one picklable object, however it was built: process lanes
    ship it to their workers as it is (:mod:`repro.exec.lanes`).
    """

    name: str = "lake"
    sources: dict[str, DataSource] = field(default_factory=dict)
    #: bumped by every :meth:`add`, the only way a lake changes; a
    #: process lane restarts its worker when it moves, so no lane answers
    #: over an older lake.
    version: int = field(default=0, init=False, compare=False, repr=False)
    #: what is derived from this version's sources; every :meth:`add`
    #: installs a fresh one (not pickled)
    memo: Memo = field(default_factory=lambda: Memo("lake"), init=False,
                       compare=False, repr=False)

    def add(self, source: DataSource) -> "DataLake":
        self.sources[source.name] = source
        self.version += 1
        self.memo = Memo("lake")
        return self

    def add_table(self, name: str, table: Table, description: str = "",
                  kind: SourceKind = SourceKind.TABLE) -> "DataLake":
        return self.add(DataSource(name, table, kind=kind,
                                   description=description))

    def __contains__(self, name: str) -> bool:
        return name in self.sources

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def source_names(self) -> list[str]:
        return list(self.sources)

    def source(self, name: str) -> DataSource:
        if name not in self.sources:
            raise UnknownTableError(name, self.source_names)
        return self.sources[name]

    def table(self, name: str) -> Table:
        return self.source(name).table

    def subset(self, names: list[str]) -> "DataLake":
        """A lake restricted to *names* (used after discovery)."""
        lake = DataLake(name=self.name)
        for name in names:
            lake.add(self.source(name))
        return lake

    def prompt_digest(self, name: str) -> str:
        """Source *name*'s :meth:`~repro.data.table.Table.prompt_digest`
        under that name, once per :attr:`version`."""
        return self.memo.get("prompt_digest", name, lambda:
                             self.table(name).prompt_digest(name))

    def prompt_repr(self) -> str:
        """All schema lines, one per source, for prompt construction."""
        return self.memo.get("lake_prompt", (), lambda: "\n".join(
            f" - {s.prompt_repr()}" for s in self.sources.values()))

    def fingerprint(self) -> str:
        """Stable digest of the lake's shape (names, schemas, row counts).

        Two lakes with the same sources, schemas, and cardinalities share a
        fingerprint; plans stored under it (before plans were keyed by
        lake name) are re-keyed by :class:`~repro.session.Session`.
        Hashes the memoised schema lines, once per :attr:`version`.
        """
        return self.memo.get("lake_fingerprint", (), self._shape_digest)

    def _shape_digest(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.sources):
            source = self.sources[name]
            digest.update(source.prompt_repr().encode("utf-8"))
            digest.update(source.kind.value.encode("utf-8"))
        return digest.hexdigest()[:16]

    def content_fingerprint(self) -> str:
        """Digest of the lake's shape *and* every cell value.

        :meth:`fingerprint` is deliberately shape-only (two seeds of the
        same dataset share plans), so it cannot tell two same-shaped
        lakes apart; this digest folds in each table's content hash
        (:meth:`repro.data.table.Table.fingerprint`, memoized per
        table).  It pins the dataset generators' determinism: the same
        ``(dataset, seed, scale)`` must give the same digest on every
        host.  It renders and hashes every image, so no query path
        calls it.
        """
        digest = hashlib.sha256()
        digest.update(self.fingerprint().encode("ascii"))
        for name in sorted(self.sources):
            digest.update(self.sources[name].table.fingerprint()
                          .encode("ascii"))
        return digest.hexdigest()[:16]
