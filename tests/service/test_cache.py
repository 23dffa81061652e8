"""Unit tests for the cross-request residual LRU and request
fingerprints."""

from __future__ import annotations

import json

import pytest

from repro.observability import ServiceStats
from repro.service import ResidualCache, SpecRequest, SpecResult, \
    load_manifest

SRC = "(define (f x) (+ x 1))"


def result(tag: str) -> SpecResult:
    return SpecResult(residual=f"; {tag}", goal_params=("x",))


class TestLRU:
    def test_miss_then_hit(self):
        cache = ResidualCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", result("a"))
        assert cache.get("a").residual == "; a"
        assert cache.stats.cache_misses == 1
        assert cache.stats.cache_hits == 1

    def test_eviction_is_least_recently_used(self):
        cache = ResidualCache(capacity=2)
        cache.put("a", result("a"))
        cache.put("b", result("b"))
        cache.get("a")             # refresh a: b is now the LRU entry
        cache.put("c", result("c"))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.cache_evictions == 1

    def test_eviction_counter_accumulates(self):
        cache = ResidualCache(capacity=1)
        for tag in "abcd":
            cache.put(tag, result(tag))
        assert len(cache) == 1
        assert cache.stats.cache_evictions == 3

    def test_capacity_zero_disables(self):
        cache = ResidualCache(capacity=0)
        cache.put("a", result("a"))
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_capacity_zero_skips_stats_entirely(self):
        """A disabled cache short-circuits before the counters: no
        miss churn per lookup, so the raw-throughput benchmark
        configuration reports no cache traffic at all."""
        stats = ServiceStats()
        cache = ResidualCache(capacity=0, stats=stats)
        for index in range(50):
            assert cache.get(f"k{index}") is None
        cache.put("a", result("a"))
        assert cache.get("a") is None
        assert stats.cache_misses == 0
        assert stats.cache_hits == 0
        assert stats.cache_evictions == 0
        assert stats.cache_hit_rate == 0.0

    def test_degraded_results_are_never_cached(self):
        cache = ResidualCache(capacity=4)
        degraded = SpecResult(residual=SRC, degraded=True,
                              reason="deadline")
        cache.put("a", degraded)
        assert "a" not in cache

    def test_peek_does_not_count_or_refresh(self):
        stats = ServiceStats()
        cache = ResidualCache(capacity=2, stats=stats)
        cache.put("a", result("a"))
        cache.put("b", result("b"))
        cache.peek("a")            # no recency refresh: a stays LRU
        cache.put("c", result("c"))
        assert "a" not in cache
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResidualCache(capacity=-1)


class TestFingerprint:
    def test_identical_requests_collide(self):
        a = SpecRequest.create(source=SRC, specs=["dyn"])
        b = SpecRequest.create(source=SRC, specs=["dyn"])
        assert a.fingerprint() == b.fingerprint()

    def test_id_and_deadline_do_not_matter(self):
        plain = SpecRequest.create(source=SRC, specs=["dyn"])
        decorated = SpecRequest.create(
            source=SRC, specs=["dyn"], id="r7", deadline=1.5)
        assert plain.fingerprint() == decorated.fingerprint()

    @pytest.mark.parametrize("other", [
        dict(source=SRC + " "),
        dict(specs=["3"]),
        dict(engine="simple"),
        dict(config={"unfold_fuel": 7}),
    ])
    def test_semantic_fields_matter(self, other):
        base = dict(source=SRC, specs=["dyn"], engine="online")
        changed = {**base, **other}
        assert SpecRequest.create(**base).fingerprint() \
            != SpecRequest.create(**changed).fingerprint()

    def test_config_order_is_canonical(self):
        a = SpecRequest.create(
            source=SRC, config={"unfold_fuel": 9, "max_variants": 3})
        b = SpecRequest.create(
            source=SRC, config={"max_variants": 3, "unfold_fuel": 9})
        assert a.fingerprint() == b.fingerprint()


class TestResultRoundTrip:
    """``SpecResult.to_dict`` → ``from_dict`` is the persistent
    store's wire format; it must be a fixed point."""

    def test_full_round_trip(self):
        original = SpecResult(
            residual="(define (f n) (* n 2))", goal_params=("n",),
            engine="offline", id="r1", attempts=2,
            stats={"facet_evaluations": 5}, seconds=0.125,
            compiled={"fingerprint": "abc", "python": "pass",
                      "goal": "f", "entries": {"f": ["_f", 1]}})
        rebuilt = SpecResult.from_dict(original.to_dict())
        assert rebuilt == original
        assert rebuilt.to_dict() == original.to_dict()

    def test_defaults_fill_missing_bookkeeping(self):
        rebuilt = SpecResult.from_dict({"residual": "(define (f) 1)"})
        assert rebuilt.residual == "(define (f) 1)"
        assert rebuilt.goal_params == ()
        assert rebuilt.attempts == 1
        assert rebuilt.compiled is None

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"residual": 7},
        {"residual": "r", "goal_params": "xy"},
        {"residual": "r", "compiled": "zip"},
        {"residual": "r", "stats": [1, 2]},
    ])
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            SpecResult.from_dict(payload)


class TestRequestValidation:
    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SpecRequest.create(source=SRC, engine="quantum")

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown PEConfig"):
            SpecRequest.create(source=SRC, config={"warp": 9})

    def test_unfold_strategy_decodes_from_string(self):
        request = SpecRequest.create(
            source=SRC, config={"unfold_strategy": "never"})
        from repro.online.config import UnfoldStrategy
        assert request.pe_config().unfold_strategy \
            is UnfoldStrategy.NEVER

    def test_bad_unfold_strategy(self):
        with pytest.raises(ValueError, match="unfold_strategy"):
            SpecRequest.create(source=SRC,
                               config={"unfold_strategy": "sometimes"})

    @pytest.mark.parametrize("config", [
        {"unfold_strategy": "always"}, {"unfold_strategy": None},
        {"unfold_strategy": 5}, {"unfold_strategy": True},
        {"max_steps": "5000"}, {"max_steps": True}, {"max_steps": 5e3},
        {"max_variants": None}, {"unfold_fuel": 3.0},
        {"simplify": "no"}, {"lenient": 1},
        {"max_wall_seconds": True}, {"max_wall_seconds": "2"}])
    def test_config_values_take_pe_config_types(self, config):
        """Each value must fit ``PEConfig``'s annotation of its field:
        an int is neither a bool nor a float, ``null`` fits only a
        ``| None`` field, and a strategy is one of the strategy
        names."""
        [name] = config
        with pytest.raises(ValueError, match=name):
            SpecRequest.create(source=SRC, config=config)

    def test_config_values_of_the_right_type_pass(self):
        request = SpecRequest.create(source=SRC, config={
            "max_steps": None, "max_wall_seconds": 2, "simplify": False,
            "max_variants": 3})
        config = request.pe_config()
        assert config.max_steps is None and config.max_variants == 3
        assert config.max_wall_seconds == 2 and not config.simplify

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request field"):
            SpecRequest.from_dict({"source": SRC, "sauce": "secret"})

    @pytest.mark.parametrize("field", ["file", "fault"])
    def test_from_dict_rejects_manifest_and_fault_fields(self, field):
        """``file`` belongs to :func:`load_manifest`, and faults come
        only from a FaultPlan: on the wire both are unknown fields."""
        with pytest.raises(ValueError, match="unknown request field"):
            SpecRequest.from_dict({"source": SRC, field: "x"})

    @pytest.mark.parametrize("deadline", [
        float("nan"), float("inf"), float("-inf"), 0, -1, 1e10])
    def test_deadline_must_be_finite_and_positive(self, deadline):
        with pytest.raises(ValueError, match="deadline"):
            SpecRequest.create(source=SRC, deadline=deadline)


class TestManifest:
    def test_load_manifest_needs_source_or_file(self):
        with pytest.raises(ValueError, match="exactly one"):
            load_manifest('[{"specs": ["dyn"]}]')
        with pytest.raises(ValueError, match="exactly one"):
            load_manifest(json.dumps(
                [{"source": SRC, "file": "f.ppe"}]))

    def test_load_manifest_reads_file(self, tmp_path):
        path = tmp_path / "f.ppe"
        path.write_text(SRC)
        [request] = load_manifest('[{"file": "f.ppe", "id": "f"}]',
                                  base_dir=tmp_path)
        assert request.source == SRC
        assert request.id == "f"
