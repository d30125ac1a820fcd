"""IP-geolocation database with block-granularity records.

Commercial geo databases store one record per address block, so every
IP in a block resolves identically and block-level mistakes are
correlated across its users — an effect the paper's error filter has to
cope with.  Lookups are longest-prefix matches over the block table;
addresses without a city-level record return ``None`` (the paper drops
those peers).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..net.ip import Prefix, PrefixTable
from ..net.lpm import FlatLPMIndex, flatten_entries
from .records import GeoRecord


class GeoDatabase:
    """A named IP→:class:`GeoRecord` mapping.

    ``None`` values are meaningful: they mark blocks known to the
    database but lacking city-level resolution.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._table: PrefixTable[Optional[GeoRecord]] = PrefixTable()
        self._record_count = 0
        self._missing_count = 0
        self._flat: Optional[Tuple[FlatLPMIndex, List[Optional[GeoRecord]]]] = None

    def __len__(self) -> int:
        return self._record_count + self._missing_count

    @property
    def record_count(self) -> int:
        """Blocks with a city-level record."""
        return self._record_count

    @property
    def missing_count(self) -> int:
        """Blocks present but without city-level resolution."""
        return self._missing_count

    def add_block(self, prefix: Prefix, record: Optional[GeoRecord]) -> None:
        if prefix in self._table:
            raise ValueError(f"block {prefix} already present in {self.name}")
        self._table.insert(prefix, record)
        self._flat = None
        if record is None:
            self._missing_count += 1
        else:
            self._record_count += 1

    def lookup(self, address: int) -> Optional[GeoRecord]:
        """City-level record for an address, or ``None``."""
        return self._table.lookup(address)

    def lookup_block(
        self, address: int
    ) -> Optional[Tuple[Prefix, Optional[GeoRecord]]]:
        """The covering block and its record (record may be ``None`` for
        blocks without city-level resolution)."""
        return self._table.lookup_entry(address)

    def blocks(self) -> List[Tuple[Prefix, Optional[GeoRecord]]]:
        return list(self._table.items())

    def flat_index(self) -> Tuple[FlatLPMIndex, List[Optional[GeoRecord]]]:
        """The block table as disjoint intervals plus a record list.

        The interval payload is a row into the returned record list
        (``-1`` marks uncovered addresses).  Blocks *without* city-level
        resolution keep their row — a ``None`` entry in the list — so
        they shadow any enclosing block exactly as the trie does.  Built
        lazily and cached until the next :meth:`add_block`; this is the
        vectorised lookup behind the columnar mapping stage.
        """
        if self._flat is None:
            records: List[Optional[GeoRecord]] = []
            triples = []
            for prefix, record in self._table.items():
                triples.append((prefix.first, prefix.last, len(records)))
                records.append(record)
            self._flat = (flatten_entries(triples), records)
        return self._flat


def paired_lookup(
    databases: Iterable[GeoDatabase], address: int
) -> Optional[List[GeoRecord]]:
    """Look an address up in several databases at once.

    Returns the records in database order, or ``None`` if *any* database
    lacks a city-level record — the paper's elimination rule ("we
    eliminated roughly 2.4M peers for which at least one of the
    databases did not provide city-level location").
    """
    records: List[GeoRecord] = []
    for database in databases:
        record = database.lookup(address)
        if record is None:
            return None
        records.append(record)
    return records
