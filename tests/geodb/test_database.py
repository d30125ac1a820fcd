"""Tests for repro.geodb.records and repro.geodb.database."""

import pytest

from repro.geodb.database import GeoDatabase, paired_lookup
from repro.geodb.records import GeoRecord
from repro.net.ip import Prefix, ip_to_int


def record(city="Rome", lat=41.9, lon=12.5):
    return GeoRecord(city=city, state="IT-LAZ", country="IT", continent="EU",
                     lat=lat, lon=lon)


class TestGeoRecord:
    def test_city_key(self):
        assert record().city_key == "IT/IT-LAZ/Rome"

    def test_distance(self):
        rome = record()
        milan = record("Milan", 45.4642, 9.19)
        assert 450 < rome.distance_km(milan) < 500
        assert rome.distance_km(rome) == pytest.approx(0.0)


class TestGeoDatabase:
    def test_lookup_hits_block(self):
        database = GeoDatabase("test")
        database.add_block(Prefix.parse("10.0.0.0/24"), record())
        assert database.lookup(ip_to_int("10.0.0.7")).city == "Rome"
        assert database.lookup(ip_to_int("10.0.1.0")) is None

    def test_missing_record_blocks(self):
        database = GeoDatabase("test")
        database.add_block(Prefix.parse("10.0.0.0/24"), None)
        assert database.lookup(ip_to_int("10.0.0.7")) is None
        assert database.missing_count == 1
        assert database.record_count == 0

    def test_counts(self):
        database = GeoDatabase("test")
        database.add_block(Prefix.parse("10.0.0.0/24"), record())
        database.add_block(Prefix.parse("10.0.1.0/24"), None)
        assert len(database) == 2
        assert database.record_count == 1
        assert database.missing_count == 1

    def test_duplicate_block_rejected(self):
        database = GeoDatabase("test")
        prefix = Prefix.parse("10.0.0.0/24")
        database.add_block(prefix, record())
        with pytest.raises(ValueError, match="already present"):
            database.add_block(prefix, record("Milan"))

    def test_duplicate_block_without_record_rejected(self):
        # A block present with a None record is still present.
        database = GeoDatabase("test")
        prefix = Prefix.parse("10.0.0.0/24")
        database.add_block(prefix, None)
        with pytest.raises(ValueError, match="already present"):
            database.add_block(prefix, None)
        with pytest.raises(ValueError, match="already present"):
            database.add_block(prefix, record())
        assert len(database) == 1
        assert database.missing_count == 1
        assert database.record_count == 0
        assert database.blocks() == [(prefix, None)]

    def test_lookup_block_returns_prefix(self):
        database = GeoDatabase("test")
        prefix = Prefix.parse("10.0.0.0/26")
        database.add_block(prefix, record())
        found_prefix, found = database.lookup_block(ip_to_int("10.0.0.63"))
        assert found_prefix == prefix
        assert found.city == "Rome"

    def test_blocks_listing(self):
        database = GeoDatabase("test")
        database.add_block(Prefix.parse("10.0.0.0/24"), record())
        database.add_block(Prefix.parse("10.0.1.0/24"), None)
        assert len(database.blocks()) == 2


class TestPairedLookup:
    def make_pair(self):
        db1 = GeoDatabase("a")
        db2 = GeoDatabase("b")
        prefix = Prefix.parse("10.0.0.0/24")
        db1.add_block(prefix, record())
        db2.add_block(prefix, record("Milan", 45.46, 9.19))
        return db1, db2

    def test_both_present(self):
        db1, db2 = self.make_pair()
        records = paired_lookup([db1, db2], ip_to_int("10.0.0.1"))
        assert [r.city for r in records] == ["Rome", "Milan"]

    def test_one_missing_drops_peer(self):
        db1, db2 = self.make_pair()
        db1.add_block(Prefix.parse("10.0.1.0/24"), record())
        # db2 has no row for 10.0.1.0/24 at all.
        assert paired_lookup([db1, db2], ip_to_int("10.0.1.1")) is None

    def test_none_record_drops_peer(self):
        db1 = GeoDatabase("a")
        db2 = GeoDatabase("b")
        prefix = Prefix.parse("10.0.0.0/24")
        db1.add_block(prefix, record())
        db2.add_block(prefix, None)
        assert paired_lookup([db1, db2], ip_to_int("10.0.0.1")) is None
