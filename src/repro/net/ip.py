"""IPv4 addresses and prefixes, built from scratch on integers.

The pipeline handles millions of addresses, so the representation is a
plain ``int`` (0 .. 2**32-1) with helpers for dotted-quad text, and
prefixes are ``(network_int, length)`` pairs.  A radix-style longest-
prefix-match table (:class:`PrefixTable`) provides the Routeviews-table
lookup used to group peers by AS (paper Section 2, "Grouping Users by
AS").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

MAX_IPV4 = 2**32 - 1

T = TypeVar("T")


def ip_to_int(text: str) -> int:
    """Parse dotted-quad text into an integer address.

    Strict: exactly four decimal octets, each 0-255, no leading/trailing
    whitespace.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0") or len(part) > 3:
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format an integer address as dotted-quad text."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"address {value} out of IPv4 range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix ``network/length`` with host bits forced to zero."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"invalid prefix length {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise ValueError("network out of IPv4 range")
        if self.network & ~self.mask & MAX_IPV4:
            raise ValueError(
                f"{int_to_ip(self.network)}/{self.length} has host bits set"
            )

    @property
    def mask(self) -> int:
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network + self.size - 1

    def contains(self, address: int) -> bool:
        return (address & self.mask) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        return other.length >= self.length and self.contains(other.network)

    def split(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two child prefixes of length+1."""
        if self.length >= 32:
            raise ValueError("cannot split a /32")
        child_len = self.length + 1
        half = 1 << (32 - child_len)
        return (
            Prefix(self.network, child_len),
            Prefix(self.network + half, child_len),
        )

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the prefix (careful with short ones)."""
        return iter(range(self.first, self.last + 1))

    def nth(self, index: int) -> int:
        """The ``index``-th address inside the prefix."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside /{self.length}")
        return self.network + index

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` text."""
        try:
            addr_text, len_text = text.split("/")
        except ValueError:
            raise ValueError(f"invalid prefix {text!r}") from None
        return cls(ip_to_int(addr_text), int(len_text))


class _TrieNode(Generic[T]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode[T]"]] = [None, None]
        self.value: Optional[T] = None
        self.has_value = False


class PrefixTable(Generic[T]):
    """Binary-trie longest-prefix-match table mapping prefixes to values.

    Mirrors a BGP RIB's forwarding view: :meth:`lookup` returns the value
    of the most specific prefix covering an address, or ``None``.
    """

    def __init__(self) -> None:
        self._root: _TrieNode[T] = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, prefix: Prefix, value: T) -> None:
        """Insert or replace the value for an exact prefix."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._count += 1
        node.value = value
        node.has_value = True

    def lookup(self, address: int) -> Optional[T]:
        """Longest-prefix-match lookup; ``None`` if nothing covers it."""
        if not 0 <= address <= MAX_IPV4:
            raise ValueError("address out of IPv4 range")
        node = self._root
        best: Optional[T] = node.value if node.has_value else None
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = node.value
        return best

    def lookup_entry(self, address: int) -> Optional[Tuple[Prefix, T]]:
        """Like :meth:`lookup`, but also return the matched prefix."""
        if not 0 <= address <= MAX_IPV4:
            raise ValueError("address out of IPv4 range")
        node = self._root
        best: Optional[Tuple[Prefix, T]] = (
            (Prefix(0, 0), node.value) if node.has_value else None  # type: ignore[arg-type]
        )
        network = 0
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            network |= bit << (31 - depth)
            node = child
            if node.has_value:
                best = (Prefix(network, depth + 1), node.value)  # type: ignore[arg-type]
        return best

    def _exact_node(self, prefix: Prefix) -> Optional[_TrieNode[T]]:
        """The node holding exactly this prefix's entry, if any."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node if node.has_value else None

    def __contains__(self, prefix: Prefix) -> bool:
        """Whether this exact prefix has an entry, whatever its value
        (``None`` included)."""
        return self._exact_node(prefix) is not None

    def lookup_exact(self, prefix: Prefix) -> Optional[T]:
        """Value stored for exactly this prefix, or ``None``."""
        node = self._exact_node(prefix)
        return node.value if node is not None else None

    def items(self) -> Iterator[Tuple[Prefix, T]]:
        """Iterate all (prefix, value) pairs in network order."""
        stack: List[Tuple[_TrieNode[T], int, int]] = [(self._root, 0, 0)]
        while stack:
            node, network, length = stack.pop()
            if node.has_value:
                yield Prefix(network, length), node.value  # type: ignore[misc]
            # Push right child first so left (0 bit) pops first.
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    child_net = network | (bit << (31 - length))
                    stack.append((child, child_net, length + 1))


class PrefixAllocator:
    """Sequential allocator carving disjoint prefixes out of a pool.

    The synthetic RIR: hands each AS address space sized to its user
    base.  Allocations are aligned and never overlap.
    """

    def __init__(self, pool: Prefix = Prefix(ip_to_int("10.0.0.0"), 8)) -> None:
        self._pool = pool
        self._cursor = pool.first

    @property
    def pool(self) -> Prefix:
        return self._pool

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free prefix of the given length."""
        if length < self._pool.length:
            raise ValueError("requested prefix larger than the pool")
        size = 1 << (32 - length)
        start = (self._cursor + size - 1) & ~(size - 1) & MAX_IPV4  # align up
        if start + size - 1 > self._pool.last:
            raise MemoryError("address pool exhausted")
        self._cursor = start + size
        return Prefix(start, length)

    def allocate_for_hosts(self, host_count: int) -> Prefix:
        """Allocate the smallest prefix holding ``host_count`` addresses."""
        if host_count < 1:
            raise ValueError("host count must be positive")
        length = 32
        while (1 << (32 - length)) < host_count and length > self._pool.length:
            length -= 1
        return self.allocate(length)


def aggregate_prefixes(prefixes: List[Prefix]) -> List[Prefix]:
    """Minimal prefix list covering exactly the same address set.

    Classic route aggregation: drop prefixes covered by another, then
    repeatedly merge sibling pairs into their parent.  The result is
    sorted by network address.
    """
    if not prefixes:
        return []
    # Sort by (network, length): a covering prefix precedes its
    # more-specifics, so one sweep removes all covered entries.
    ordered = sorted(set(prefixes), key=lambda p: (p.network, p.length))
    kept: List[Prefix] = []
    for prefix in ordered:
        if kept and kept[-1].contains_prefix(prefix):
            continue
        kept.append(prefix)
    # Merge siblings until a fixed point.
    merged = True
    while merged:
        merged = False
        result: List[Prefix] = []
        i = 0
        while i < len(kept):
            current = kept[i]
            if (
                i + 1 < len(kept)
                and current.length == kept[i + 1].length
                and current.length > 0
            ):
                parent = Prefix(
                    current.network & ~(1 << (32 - current.length)) & MAX_IPV4,
                    current.length - 1,
                )
                if (
                    parent.network == current.network
                    and kept[i + 1].network == current.network + current.size
                ):
                    result.append(parent)
                    i += 2
                    merged = True
                    continue
            result.append(current)
            i += 1
        kept = result
    return kept


def range_to_prefixes(start: int, end: int) -> List[Prefix]:
    """Minimal list of prefixes exactly covering ``[start, end]``.

    The classic greedy: repeatedly emit the largest aligned prefix that
    starts at ``start`` and fits within the range.  Needed to ingest
    range-based data (e.g. MaxMind-legacy CSV blocks) into prefix
    tries.
    """
    if not 0 <= start <= end <= MAX_IPV4:
        raise ValueError("invalid address range")
    prefixes: List[Prefix] = []
    current = start
    while current <= end:
        # Largest block size allowed by alignment of `current` ...
        align = current & -current if current else 1 << 32
        # ... and by the remaining span.
        span = end - current + 1
        size = min(align, 1 << (span.bit_length() - 1))
        length = 32 - (size.bit_length() - 1)
        prefixes.append(Prefix(current, length))
        current += size
    return prefixes


def prefix_length_for_hosts(host_count: int) -> int:
    """Smallest prefix length whose block holds ``host_count`` addresses."""
    if host_count < 1:
        raise ValueError("host count must be positive")
    length = 32
    while (1 << (32 - length)) < host_count and length > 0:
        length -= 1
    return length
