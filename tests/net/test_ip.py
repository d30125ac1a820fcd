"""Tests for repro.net.ip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ip import (
    MAX_IPV4,
    Prefix,
    PrefixAllocator,
    PrefixTable,
    int_to_ip,
    ip_to_int,
    prefix_length_for_hosts,
)

address_strategy = st.integers(min_value=0, max_value=MAX_IPV4)


class TestAddressText:
    def test_parse_basic(self):
        assert ip_to_int("10.0.0.1") == (10 << 24) + 1

    def test_parse_extremes(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("255.255.255.255") == MAX_IPV4

    @pytest.mark.parametrize("bad", [
        "10.0.0", "10.0.0.0.1", "10.0.0.256", "10.0.0.-1", "a.b.c.d",
        "10.0.0.01", "10.0.0.1 ", "1e1.0.0.1", "",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_format_basic(self):
        assert int_to_ip(ip_to_int("192.168.1.42")) == "192.168.1.42"

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_ip(MAX_IPV4 + 1)
        with pytest.raises(ValueError):
            int_to_ip(-1)

    @given(address_strategy)
    def test_roundtrip(self, address):
        assert ip_to_int(int_to_ip(address)) == address


class TestPrefix:
    def test_basic_properties(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert prefix.size == 65536
        assert prefix.first == ip_to_int("10.1.0.0")
        assert prefix.last == ip_to_int("10.1.255.255")
        assert str(prefix) == "10.1.0.0/16"

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError, match="host bits"):
            Prefix(ip_to_int("10.0.0.1"), 24)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_contains(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert prefix.contains(ip_to_int("10.1.200.3"))
        assert not prefix.contains(ip_to_int("10.2.0.0"))

    def test_contains_prefix(self):
        parent = Prefix.parse("10.0.0.0/8")
        child = Prefix.parse("10.3.0.0/16")
        assert parent.contains_prefix(child)
        assert not child.contains_prefix(parent)
        assert parent.contains_prefix(parent)

    def test_split(self):
        left, right = Prefix.parse("10.0.0.0/8").split()
        assert str(left) == "10.0.0.0/9"
        assert str(right) == "10.128.0.0/9"
        assert left.size + right.size == Prefix.parse("10.0.0.0/8").size

    def test_split_host_route_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.1/32").split()

    def test_nth(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert [prefix.nth(i) for i in range(4)] == list(prefix.addresses())
        with pytest.raises(IndexError):
            prefix.nth(4)

    def test_zero_length(self):
        everything = Prefix(0, 0)
        assert everything.contains(MAX_IPV4)
        assert everything.mask == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0")
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0/8/9")

    def test_ordering(self):
        assert Prefix.parse("10.0.0.0/8") < Prefix.parse("11.0.0.0/8")

    @given(address_strategy, st.integers(min_value=0, max_value=32))
    @settings(max_examples=100)
    def test_mask_consistency(self, address, length):
        network = address & (((MAX_IPV4 << (32 - length)) & MAX_IPV4) if length else 0)
        prefix = Prefix(network, length)
        assert prefix.contains(address)
        assert prefix.first <= address <= prefix.last


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "short")
        table.insert(Prefix.parse("10.1.0.0/16"), "long")
        assert table.lookup(ip_to_int("10.1.2.3")) == "long"
        assert table.lookup(ip_to_int("10.2.0.1")) == "short"

    def test_miss_returns_none(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "x")
        assert table.lookup(ip_to_int("11.0.0.0")) is None

    def test_default_route(self):
        table = PrefixTable()
        table.insert(Prefix(0, 0), "default")
        table.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert table.lookup(ip_to_int("1.1.1.1")) == "default"
        assert table.lookup(ip_to_int("10.1.1.1")) == "ten"

    def test_replace_value(self):
        table = PrefixTable()
        prefix = Prefix.parse("10.0.0.0/8")
        table.insert(prefix, "a")
        table.insert(prefix, "b")
        assert table.lookup_exact(prefix) == "b"
        assert len(table) == 1

    def test_lookup_exact_miss(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "a")
        assert table.lookup_exact(Prefix.parse("10.0.0.0/9")) is None

    def test_contains_tests_presence_not_value(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), None)
        assert Prefix.parse("10.0.0.0/8") in table
        assert Prefix.parse("10.0.0.0/9") not in table
        assert Prefix.parse("11.0.0.0/8") not in table

    def test_lookup_entry_returns_prefix(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.1.0.0/16"), "x")
        entry = table.lookup_entry(ip_to_int("10.1.2.3"))
        assert entry == (Prefix.parse("10.1.0.0/16"), "x")

    def test_lookup_entry_miss(self):
        assert PrefixTable().lookup_entry(0) is None

    def test_lookup_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PrefixTable().lookup(MAX_IPV4 + 1)

    def test_items_network_order(self):
        table = PrefixTable()
        prefixes = [
            Prefix.parse("10.2.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.1.0.0/16"),
            Prefix.parse("192.168.0.0/24"),
        ]
        for i, prefix in enumerate(prefixes):
            table.insert(prefix, i)
        listed = [p for p, _ in table.items()]
        assert listed == sorted(listed)
        assert len(listed) == 4

    def test_host_route(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.5/32"), "host")
        assert table.lookup(ip_to_int("10.0.0.5")) == "host"
        assert table.lookup(ip_to_int("10.0.0.6")) is None

    @given(st.lists(st.tuples(address_strategy,
                              st.integers(min_value=8, max_value=28)),
                    min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_lookup_matches_linear_scan(self, raw):
        table = PrefixTable()
        prefixes = []
        for address, length in raw:
            mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4
            prefix = Prefix(address & mask, length)
            table.insert(prefix, str(prefix))
            prefixes.append(prefix)
        probe = raw[0][0]
        expected = None
        best_len = -1
        for prefix in prefixes:
            if prefix.contains(probe) and prefix.length > best_len:
                expected = str(prefix)
                best_len = prefix.length
        assert table.lookup(probe) == expected


class TestPrefixAllocator:
    def test_allocations_disjoint_and_aligned(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        allocated = [allocator.allocate(length) for length in (24, 20, 26, 16)]
        for prefix in allocated:
            assert prefix.network % prefix.size == 0
        for i, a in enumerate(allocated):
            for b in allocated[i + 1:]:
                assert a.last < b.first or b.last < a.first

    def test_stays_in_pool(self):
        pool = Prefix.parse("10.0.0.0/24")
        allocator = PrefixAllocator(pool)
        prefix = allocator.allocate(26)
        assert pool.contains_prefix(prefix)

    def test_exhaustion(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        allocator.allocate(25)
        allocator.allocate(25)
        with pytest.raises(MemoryError):
            allocator.allocate(25)

    def test_rejects_oversized_request(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        with pytest.raises(ValueError):
            allocator.allocate(16)

    def test_allocate_for_hosts(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        prefix = allocator.allocate_for_hosts(1000)
        assert prefix.size >= 1000
        assert prefix.size < 2048

    def test_allocate_for_hosts_rejects_zero(self):
        with pytest.raises(ValueError):
            PrefixAllocator().allocate_for_hosts(0)


class TestPrefixLengthForHosts:
    @pytest.mark.parametrize("hosts,length", [
        (1, 32), (2, 31), (3, 30), (64, 26), (65, 25), (1 << 32, 0),
    ])
    def test_values(self, hosts, length):
        assert prefix_length_for_hosts(hosts) == length

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prefix_length_for_hosts(0)
