"""Machine units, RNG derivation, and error hierarchy."""

import pytest

from repro.common.errors import (
    CatalogError,
    ExecutionError,
    OptimizationError,
    PlanError,
    ReproError,
)
from repro.common.rng import derive_seed, make_rng
from repro.common.units import (
    CATALOG_VALIDATION_SECONDS,
    IO_TIME_PER_PAGE,
    PLAN_NODE_BYTES,
    RECORDS_PER_PAGE,
    SEQ_IO_TIME_PER_PAGE,
    access_module_read_seconds,
    pages_for_records,
)


class TestUnits:
    def test_four_records_per_page(self):
        # 512-byte records in 2,048-byte pages (paper Section 6).
        assert RECORDS_PER_PAGE == 4

    def test_pages_for_records(self):
        assert pages_for_records(0) == 0
        assert pages_for_records(1) == 1
        assert pages_for_records(4) == 1
        assert pages_for_records(5) == 2
        assert pages_for_records(1000) == 250

    def test_pages_never_negative(self):
        assert pages_for_records(-5) == 0

    def test_access_module_read_rate(self):
        # Paper: about 16,000 nodes per second at 128 B/node, 2 MB/s.
        seconds = access_module_read_seconds(16384)
        assert seconds == pytest.approx(1.0)

    def test_random_io_slower_than_sequential(self):
        assert IO_TIME_PER_PAGE > SEQ_IO_TIME_PER_PAGE

    def test_catalog_validation_matches_paper(self):
        assert CATALOG_VALIDATION_SECONDS == pytest.approx(0.1)

    def test_plan_node_bytes(self):
        assert PLAN_NODE_BYTES == 128


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(0, "a", "b") == derive_seed(0, "a", "b")

    def test_derive_seed_label_sensitivity(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_label_path_not_concatenation_ambiguous(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_make_rng_streams_independent(self):
        rng_a = make_rng(0, "x")
        rng_b = make_rng(0, "y")
        assert [rng_a.random() for _ in range(3)] != [
            rng_b.random() for _ in range(3)
        ]

    def test_make_rng_reproducible(self):
        assert make_rng(5, "z").random() == make_rng(5, "z").random()


class TestErrors:
    def test_hierarchy_roots_at_repro_error(self):
        for exc in (
            CatalogError,
            OptimizationError,
            PlanError,
            ExecutionError,
        ):
            assert issubclass(exc, ReproError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise CatalogError("boom")
