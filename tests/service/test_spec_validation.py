"""A spec that does not parse, or that no value satisfies, is a request
error: :func:`repro.service.specs.parse_spec` raises
:class:`~repro.service.specs.SpecError` for it, and
:meth:`SpecRequest.create` rejects it before the request is queued, so
``ppe serve`` answers an error line (the gateway's 400 is pinned in
``tests/gateway/test_server.py``)."""

from __future__ import annotations

import io
import json

import pytest

from repro.facets.vector import FacetSuite
from repro.service import SpecializationService, serve
from repro.service.results import SpecRequest
from repro.service.specs import SpecError, check_spec, parse_spec
from repro.service.worker import default_suite
from repro.workloads import WORKLOADS

SIGN_PIPELINE = WORKLOADS["sign_pipeline"].source

#: Specs that do not parse.
MALFORMED = ("interval=3:1", "size=x", "colour=red", "#(1 a)",
             "sign=foo", "parity=2", "size=3,sign=pos",
             "sign=pos,sign=neg")

#: Facet specs that parse but describe no value (Definition 6).
UNSATISFIABLE = ("sign=pos,interval=-3:-1", "sign=neg,interval=0:",
                 "sign=zero,parity=odd", "interval=4:4,parity=odd",
                 "sign=zero,interval=1:5", "size=-1")

BAD = MALFORMED + UNSATISFIABLE


class TestParseSpec:
    @pytest.mark.parametrize("text", BAD)
    def test_bad_spec_is_a_spec_error(self, text):
        with pytest.raises(SpecError):
            parse_spec(default_suite(), text)
        with pytest.raises(SpecError):
            check_spec(text)

    @pytest.mark.parametrize("text", [
        "dyn", "3", "-2.5", "true", "#(1 2)", "size=0", "sign=zero",
        "sign=zero,parity=even", "interval=3:4,parity=odd",
        "sign=neg,interval=-1:", "interval=:", "sign=pos,parity=odd"])
    def test_satisfiable_specs_parse(self, text):
        check_spec(text)
        parse_spec(default_suite(), text)

    def test_check_builds_no_suite(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("check_spec built a facet suite")
        monkeypatch.setattr(FacetSuite, "__init__", refuse)
        check_spec("sign=pos,parity=odd,interval=1:9")
        check_spec("size=4")
        with pytest.raises(SpecError):
            check_spec("sign=pos,interval=-3:-1")


class TestRequestErrors:
    @pytest.mark.parametrize("text", BAD)
    def test_create_rejects_the_spec(self, text):
        with pytest.raises(SpecError):
            SpecRequest.create(SIGN_PIPELINE, ["dyn", text],
                               engine="offline")

    def test_serve_answers_an_error_line(self):
        lines = [json.dumps({"id": text, "source": SIGN_PIPELINE,
                             "specs": ["dyn", text],
                             "engine": "genext"})
                 for text in BAD]
        out = io.StringIO()
        with SpecializationService(workers=0) as service:
            serve(service, io.StringIO("\n".join(lines) + "\n"), out)
            stats = service.stats
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == list(BAD)
        for response in responses:
            assert response["ok"] is False
            assert response["id"] in response["error"]
        # Rejected at the door: nothing reached an engine.
        assert stats.submitted == 0
        assert stats.errors_by_category == {}
