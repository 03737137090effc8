"""Cache simulator unit tests."""

import pytest

from repro.mem.cache import Cache, CacheConfig


def make(size=256, line=16, assoc=2, penalty=8):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line,
                             associativity=assoc, miss_penalty=penalty))


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_geometry():
    cfg = CacheConfig(size_bytes=1024, line_bytes=16, associativity=2)
    assert cfg.num_sets == 32
    assert cfg.line_words == 4
    assert cfg.offset_bits == 4
    assert cfg.index_bits == 5
    assert cfg.tag_bits == 24 - 5 - 4


def test_direct_mapped_geometry():
    cfg = CacheConfig(size_bytes=512, line_bytes=32, associativity=1)
    assert cfg.num_sets == 16


def test_single_set_cache():
    cfg = CacheConfig(size_bytes=64, line_bytes=16, associativity=4)
    assert cfg.num_sets == 1
    cache = Cache(cfg)
    assert not cache.access(0x0)
    assert cache.access(0x0)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=0)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=100, line_bytes=16, associativity=2)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1024, line_bytes=12, associativity=2)


def test_non_power_of_two_sets_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=96, line_bytes=16, associativity=2)


# ---------------------------------------------------------------------------
# Hit/miss behaviour
# ---------------------------------------------------------------------------

def test_cold_miss_then_hit():
    cache = make()
    assert cache.access(0x100) is False
    assert cache.access(0x100) is True
    assert cache.read_misses == 1
    assert cache.reads == 2


def test_same_line_different_word_hits():
    cache = make(line=16)
    cache.access(0x100)
    assert cache.access(0x10C) is True


def test_adjacent_lines_are_independent():
    cache = make(line=16)
    cache.access(0x100)
    assert cache.access(0x110) is False


def test_lru_eviction_order():
    # 2-way: fill both ways, touch the first, then insert a third line --
    # the second (LRU) way must be the victim.
    cache = make(size=64, line=16, assoc=2)  # 2 sets
    set_stride = 32  # lines mapping to set 0: addresses 0, 32, 64...
    a, b, c = 0x0, 0x40, 0x80  # all map to set 0 (offset 4 bits, index 1 bit)
    cache.access(a)
    cache.access(b)
    cache.access(a)          # a becomes MRU
    cache.access(c)          # evicts b
    assert cache.access(a) is True
    assert cache.access(b) is False


def test_write_through_hit_updates_lru():
    cache = make(size=64, line=16, assoc=2)
    a, b, c = 0x0, 0x40, 0x80
    cache.access(a)
    cache.access(b)
    cache.access(a, is_write=True)   # write hit promotes a
    cache.access(c)                  # evicts b, not a
    assert cache.access(a) is True


def test_write_miss_does_not_allocate():
    cache = make()
    assert cache.access(0x200, is_write=True) is False
    assert cache.access(0x200) is False  # still not cached
    assert cache.write_misses == 1
    assert cache.fills == 1  # only the read allocated


def test_associativity_respected():
    # 4 distinct lines in a 2-way set always conflict.
    cache = make(size=64, line=16, assoc=2)
    lines = [0x0, 0x40, 0x80, 0xC0]
    for _ in range(3):
        for addr in lines:
            cache.access(addr)
    # With LRU and a cyclic pattern of 4 lines in 2 ways: all misses.
    assert cache.read_misses == 12


def test_hit_rate_and_counters():
    cache = make()
    for _ in range(10):
        cache.access(0x0)
    assert cache.hit_rate == pytest.approx(0.9)
    assert cache.accesses == 10
    assert cache.misses == 1


def test_hit_rate_empty_cache_is_one():
    assert make().hit_rate == 1.0


def test_reset_clears_contents_and_stats():
    cache = make()
    cache.access(0x0)
    cache.reset()
    assert cache.accesses == 0
    assert cache.access(0x0) is False  # contents gone


def test_sequential_scan_miss_rate_matches_line_size():
    cache = make(size=8192, line=16)
    for addr in range(0, 4096, 4):
        cache.access(addr)
    # One miss per 16-byte line.
    assert cache.read_misses == 4096 // 16


# ---------------------------------------------------------------------------
# Geometry validation: address width must cover index + offset + tag
# ---------------------------------------------------------------------------

def test_address_bits_too_small_rejected():
    # 8 KiB direct-mapped with 16-byte lines = 512 sets: 9 index + 4
    # offset bits.  A 12-bit address cannot even index the cache, and a
    # 13-bit one leaves no tag bit -- both used to silently clamp
    # tag_bits to 1 (undercounting tag energy) instead of erroring.
    for address_bits in (12, 13):
        with pytest.raises(ValueError, match="address_bits"):
            CacheConfig(size_bytes=8192, line_bytes=16, associativity=1,
                        address_bits=address_bits)


def test_tag_bits_exact_not_clamped():
    cfg = CacheConfig(size_bytes=8192, line_bytes=16, associativity=1,
                      address_bits=14)
    assert cfg.tag_bits == 1  # exactly one tag bit, by arithmetic
    default = CacheConfig()
    assert default.tag_bits == (default.address_bits - default.index_bits
                                - default.offset_bits)
