"""FaultPlan decoding: strict validation, wire round-trip, env/spec
loading."""

import json

import pytest

from repro.faults import FAULT_KINDS, FAULT_PLAN_ENV, FaultPlan, SEAMS


def test_minimal_plan_round_trips():
    plan = FaultPlan.from_dict({
        "seed": 7,
        "seams": {"store.read": {"kinds": ["error"],
                                 "probability": 0.5}},
    })
    assert plan.seed == 7
    again = FaultPlan.from_dict(plan.as_dict())
    assert again.as_dict() == plan.as_dict()
    assert again.digest() == plan.digest()


def test_every_declared_seam_decodes():
    for seam, kinds in SEAMS.items():
        plan = FaultPlan.from_dict({
            "seed": 1,
            "seams": {seam: {"kinds": list(kinds), "at": [1]}}})
        assert seam in plan.seams


def test_unknown_seam_rejected():
    with pytest.raises(ValueError, match="unknown fault seam"):
        FaultPlan.from_dict(
            {"seed": 1, "seams": {"nonsense.seam": {"kinds": ["error"]}}})


def test_unsupported_kind_for_seam_rejected():
    # store.read supports error/hang/latency, never corrupt.
    with pytest.raises(ValueError):
        FaultPlan.from_dict(
            {"seed": 1, "seams": {"store.read": {"kinds": ["corrupt"]}}})


def test_unknown_kind_rejected():
    assert "melt" not in FAULT_KINDS
    with pytest.raises(ValueError):
        FaultPlan.from_dict(
            {"seed": 1, "seams": {"store.read": {"kinds": ["melt"]}}})


def test_probability_out_of_range_rejected():
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"seed": 1, "seams": {
            "store.read": {"kinds": ["error"], "probability": 1.5}}})


def test_unknown_field_rejected():
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"seed": 1, "oops": True, "seams": {}})
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"seed": 1, "seams": {
            "store.read": {"kinds": ["error"], "oops": 1}}})


def test_bad_json_rejected():
    with pytest.raises(ValueError, match="not valid JSON"):
        FaultPlan.from_json("{nope")


def test_from_spec_inline_and_file(tmp_path):
    document = {"seed": 3, "seams": {
        "worker.execute": {"kinds": ["crash"], "at": [1]}}}
    inline = FaultPlan.from_spec(json.dumps(document))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document))
    from_file = FaultPlan.from_spec(str(path))
    assert inline.digest() == from_file.digest()
    with pytest.raises(ValueError, match="cannot read fault plan"):
        FaultPlan.from_spec(str(tmp_path / "missing.json"))


def test_from_env(tmp_path):
    assert FaultPlan.from_env({}) is None
    assert FaultPlan.from_env({FAULT_PLAN_ENV: "  "}) is None
    document = json.dumps({"seed": 9, "seams": {}})
    plan = FaultPlan.from_env({FAULT_PLAN_ENV: document})
    assert plan is not None and plan.seed == 9


def test_digest_is_order_insensitive():
    a = FaultPlan.from_dict({"seed": 2, "seams": {
        "store.read": {"kinds": ["error"], "at": [1]},
        "store.write": {"kinds": ["error"], "at": [2]}}})
    b = FaultPlan.from_dict({"seed": 2, "seams": {
        "store.write": {"kinds": ["error"], "at": [2]},
        "store.read": {"kinds": ["error"], "at": [1]}}})
    assert a.digest() == b.digest()


def test_keys_round_trip_and_must_be_strings():
    plan = FaultPlan.from_dict({"seed": 1, "seams": {
        "worker.execute": {"kinds": ["crash"], "every": 1,
                           "keys": ["r1", "r2"]}}})
    assert plan.seams["worker.execute"].keys == ("r1", "r2")
    assert FaultPlan.from_dict(plan.as_dict()).digest() == plan.digest()
    for bad in ("r1", [1], [None]):
        with pytest.raises(ValueError, match="'keys'"):
            FaultPlan.from_dict({"seed": 1, "seams": {
                "worker.execute": {"kinds": ["crash"], "keys": bad}}})
