"""Response processing, grid snapping and the oracle backends."""

import pytest

import topkset.oracle as oracle_mod
from topkset import (LlmOracle, LlmOracleConfig, OracleError, OracleResponse,
                     Question, TableOracle, ValidationError, process_responses,
                     snap_to_grid)
from topkset.oracle import ResponseKind

from .conftest import HIDDEN_TRUTH, hotel_spec

GRID = (0.0, 0.5, 1.0)


class TestOracleResponse:
    def test_point(self):
        r = OracleResponse.point(0.5)
        assert r.kind is ResponseKind.POINT
        assert r.bounds() == (0.5, 0.5)

    def test_range(self):
        r = OracleResponse.score_range(0.3, 0.6)
        assert r.kind is ResponseKind.RANGE
        assert r.bounds() == (0.3, 0.6)

    def test_range_needs_lo_below_hi(self):
        with pytest.raises(ValidationError):
            OracleResponse.score_range(0.6, 0.6)


class TestProcessResponses:
    def test_two_overlapping_ranges(self):
        """(0.4, 1.0) hits {0.5, 1} and (0.3, 0.6) hits {0.5}."""
        pdf = process_responses(
            [OracleResponse.score_range(0.4, 1.0),
             OracleResponse.score_range(0.3, 0.6)], GRID)
        assert pdf.over == GRID
        assert pdf.masses == pytest.approx((0.0, 2 / 3, 1 / 3))

    def test_single_point_becomes_point_mass(self):
        pdf = process_responses([OracleResponse.point(1.0)], GRID)
        assert pdf.masses == (0.0, 0.0, 1.0)
        assert pdf.support_min() == pdf.support_max() == 1.0

    def test_point_on_grid_boundary(self):
        pdf = process_responses([OracleResponse.point(0.0)], GRID)
        assert pdf.masses == (1.0, 0.0, 0.0)

    def test_support_bounds_skip_zero_mass(self):
        pdf = process_responses(
            [OracleResponse.score_range(0.4, 1.0)], GRID)
        assert pdf.support_min() == 0.5
        assert pdf.support_max() == 1.0

    def test_range_missing_the_grid_rejected(self):
        with pytest.raises(OracleError):
            process_responses([OracleResponse.score_range(0.1, 0.4)], GRID)

    def test_no_responses_rejected(self):
        with pytest.raises(ValidationError):
            process_responses([], GRID)


class TestSnapToGrid:
    @pytest.mark.parametrize("raw,snapped", [
        (0.7, 0.5),
        (0.75, 0.5),
        (0.25, 0.0),
        (0.8, 1.0),
        (1.4, 1.0),
        (-3.0, 0.0),
        (0.5, 0.5),
        (1.0, 1.0),
    ])
    def test_values(self, raw, snapped):
        assert snap_to_grid(raw, hotel_spec()) == snapped

    def test_non_finite_rejected(self):
        with pytest.raises(OracleError):
            snap_to_grid(float("nan"), hotel_spec())
        with pytest.raises(OracleError):
            snap_to_grid(float("inf"), hotel_spec())


class TestTableOracle:
    def test_lookup(self):
        oracle = TableOracle(HIDDEN_TRUTH)
        got = oracle.ask(Question("div", ("MLN", "HYN")))
        assert got.kind is ResponseKind.POINT
        assert got.value == 1.0

    def test_missing_entry(self):
        oracle = TableOracle({})
        with pytest.raises(OracleError):
            oracle.ask(Question("rel", ("HNY",)))


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(oracle_mod, "RETRY_BACKOFF_S", 0.001)


def make_llm(chat_server, **overrides) -> LlmOracle:
    cfg = LlmOracleConfig(endpoint_url=chat_server.url, **overrides)
    return LlmOracle(cfg, hotel_spec(),
                     query_text="affordable hotels in midtown Manhattan",
                     entity_context={"HNY": "midtown high-rise"})


class TestLlmOracle:
    def test_plain_numeric_reply(self, chat_server):
        chat_server.default_reply = "0.5"
        got = make_llm(chat_server).ask(Question("rel", ("HNY",)))
        assert got == OracleResponse.point(0.5)

    def test_number_in_prose_is_used(self, chat_server):
        chat_server.default_reply = "Score: 1 (the hotels differ a lot)"
        got = make_llm(chat_server).ask(Question("div", ("MLN", "HYN")))
        assert got.value == 1.0

    @pytest.mark.parametrize("reply, value", [
        ("On a 0-1 scale: 0.8", 1.0),
        ("On a 0-1 scale: 0.7", 0.5),
        ("Between 0 and 1 I would give it 0.9", 1.0),
        ("-2 is too low; 0.6", 0.5),
    ])
    def test_last_number_in_the_reply_is_the_score(self, chat_server, reply,
                                                   value):
        chat_server.default_reply = reply
        got = make_llm(chat_server).ask(Question("rel", ("HNY",)))
        assert got.value == value

    def test_off_grid_reply_is_snapped(self, chat_server):
        chat_server.default_reply = "I would say roughly 0.68."
        got = make_llm(chat_server).ask(Question("rel", ("HNY",)))
        assert got.value == 0.5

    def test_prompt_carries_query_and_context(self, chat_server):
        make_llm(chat_server).ask(Question("rel", ("HNY",)))
        prompt = chat_server.requests[0]["body"]["messages"][0]["content"]
        assert "affordable hotels in midtown Manhattan" in prompt
        assert "midtown high-rise" in prompt
        assert "HNY" in prompt

    def test_binary_prompt_names_both_entities(self, chat_server):
        make_llm(chat_server).ask(Question("div", ("MLN", "HYN")))
        prompt = chat_server.requests[0]["body"]["messages"][0]["content"]
        assert "HYN" in prompt and "MLN" in prompt

    def test_api_key_header(self, chat_server, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "sekrit")
        make_llm(chat_server, api_key_env="STUB_KEY").ask(
            Question("rel", ("HNY",)))
        assert chat_server.requests[0]["headers"]["Authorization"] == \
            "Bearer sekrit"

    def test_retries_after_server_errors(self, chat_server, fast_retries):
        chat_server.script = [(500, "boom"), (500, "boom")]
        llm = make_llm(chat_server)
        got = llm.ask(Question("rel", ("HNY",)))
        assert got.value == 0.5
        assert llm.last_retries == 2
        assert len(chat_server.requests) == 3

    def test_gives_up_after_budget(self, chat_server, fast_retries):
        chat_server.script = [(500, "boom")] * 10
        llm = make_llm(chat_server, max_retries=2)
        with pytest.raises(OracleError, match="3 attempts"):
            llm.ask(Question("rel", ("HNY",)))
        assert len(chat_server.requests) == 3

    def test_non_numeric_reply_keeps_raw_text(self, chat_server, fast_retries):
        chat_server.script = [
            (200, {"choices": [{"message": {"content": "no idea"}}]})] * 5
        llm = make_llm(chat_server, max_retries=1)
        with pytest.raises(OracleError) as err:
            llm.ask(Question("rel", ("HNY",)))
        assert err.value.raw_reply == "no idea"

    def test_malformed_json_is_retried_then_fails(self, chat_server,
                                                  fast_retries):
        chat_server.script = [(200, "not json")] * 5
        llm = make_llm(chat_server, max_retries=1)
        with pytest.raises(OracleError):
            llm.ask(Question("rel", ("HNY",)))

    def test_template_must_mention_both_slots(self, chat_server):
        llm = make_llm(chat_server, prompt_template="{entityA} only: {query}")
        # Unary works, binary cannot be rendered.
        llm.ask(Question("rel", ("HNY",)))
        with pytest.raises(OracleError):
            llm.ask(Question("div", ("MLN", "HYN")))
