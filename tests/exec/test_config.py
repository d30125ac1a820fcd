"""ParallelConfig: validation, chunk-size policy, deterministic chunking."""

import pytest

from repro.exec import MAX_WORKERS, ParallelConfig
from repro.exec.config import AUTO_CHUNKS_PER_WORKER


class TestValidation:
    def test_defaults_are_serial_and_uncached(self):
        config = ParallelConfig()
        assert config.workers == 1
        assert config.is_serial
        assert config.cache_dir is None

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-2)

    def test_rejects_absurd_worker_count(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=MAX_WORKERS + 1)

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=2, chunk_size=0)

    def test_caching_orthogonal_to_parallelism(self):
        assert ParallelConfig(workers=4).is_serial is False
        assert ParallelConfig(workers=4).cache_dir is None
        assert ParallelConfig(cache_dir="x").is_serial is True
        assert ParallelConfig(cache_dir="x").cache_dir == "x"


class TestChunkSizePolicy:
    def test_explicit_chunk_size_wins(self):
        config = ParallelConfig(workers=4, chunk_size=7)
        assert config.resolved_chunk_size(1000) == 7

    def test_auto_targets_several_chunks_per_worker(self):
        config = ParallelConfig(workers=2)
        size = config.resolved_chunk_size(80)
        assert size == 80 // (2 * AUTO_CHUNKS_PER_WORKER)

    def test_auto_never_below_one(self):
        config = ParallelConfig(workers=8)
        assert config.resolved_chunk_size(3) == 1
        assert config.resolved_chunk_size(0) == 1


class TestChunking:
    def test_chunks_are_contiguous_and_complete(self):
        config = ParallelConfig(workers=2, chunk_size=3)
        items = list(range(10))
        chunks = config.chunk(items)
        assert chunks == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9,)]
        assert [x for chunk in chunks for x in chunk] == items

    def test_chunking_is_deterministic(self):
        config = ParallelConfig(workers=3)
        items = list(range(100))
        assert config.chunk(items) == config.chunk(items)

    def test_empty_input_yields_no_chunks(self):
        assert ParallelConfig(workers=2).chunk([]) == []

    def test_single_item(self):
        assert ParallelConfig(workers=2).chunk(["only"]) == [("only",)]


class TestProfileHz:
    def test_defaults_to_off(self):
        assert ParallelConfig().profile_hz is None

    def test_accepts_positive_rate(self):
        assert ParallelConfig(workers=2, profile_hz=10.0).profile_hz == 10.0

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            ParallelConfig(profile_hz=0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ParallelConfig(profile_hz=-5.0)


class TestFlameHz:
    def test_defaults_to_off(self):
        assert ParallelConfig().flame_hz is None

    def test_accepts_positive_rate(self):
        assert ParallelConfig(workers=2, flame_hz=97.0).flame_hz == 97.0

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            ParallelConfig(flame_hz=0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ParallelConfig(flame_hz=-97.0)
