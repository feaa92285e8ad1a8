"""Response processing, grid snapping and the oracle backends."""

import os
import re
import socket
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import topkset
import topkset.oracle as oracle_mod
from topkset import (Construct, LlmOracle, LlmOracleConfig, OracleError,
                     Question, ScoringSpec, TableOracle, ValidationError,
                     process_responses, snap_to_grid)

from .conftest import HIDDEN_TRUTH, hotel_spec

GRID = (0.0, 0.5, 1.0)


class TestProcessResponses:
    def test_two_overlapping_ranges(self):
        """(0.4, 1.0) hits {0.5, 1} and (0.3, 0.6) hits {0.5}."""
        pdf = process_responses([(0.4, 1.0), (0.3, 0.6)], GRID)
        assert pdf.over == GRID
        assert pdf.masses == pytest.approx((0.0, 2 / 3, 1 / 3))

    def test_single_point_becomes_point_mass(self):
        pdf = process_responses([(1.0, 1.0)], GRID)
        assert pdf.masses == (0.0, 0.0, 1.0)

    def test_point_on_grid_boundary(self):
        pdf = process_responses([(0.0, 0.0)], GRID)
        assert pdf.masses == (1.0, 0.0, 0.0)

    def test_range_missing_the_grid_rejected(self):
        with pytest.raises(OracleError):
            process_responses([(0.1, 0.4)], GRID)

    @pytest.mark.parametrize("bad", [(0.6, 0.5), (float("nan"), 0.5)],
                             ids=["reversed", "nan"])
    def test_range_needs_lo_at_most_hi(self, bad):
        with pytest.raises(ValidationError, match="lo <= hi"):
            process_responses([(0.0, 1.0), bad], GRID)

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
        assert type(got) is float and got == 1.0

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
        assert type(got) is float and got == 0.5

    def test_number_in_prose_is_used(self, chat_server):
        chat_server.default_reply = "Score: 1 (the hotels differ a lot)"
        got = make_llm(chat_server).ask(Question("div", ("MLN", "HYN")))
        assert got == 1.0

    @pytest.mark.parametrize("reply, value", [
        ("On a 0-1 scale: 0.8", 1.0),
        ("On a 0-1 scale: 0.7", 0.5),
        ("Between 0 and 1 I would give it 0.9", 1.0),
        ("-2 is too low; 0.6", 0.5),
        ("Score: .5", 0.5),
        ("5e-1", 0.5),
    ])
    def test_last_number_in_the_reply_is_the_score(self, chat_server, reply,
                                                   value):
        chat_server.default_reply = reply
        got = make_llm(chat_server).ask(Question("rel", ("HNY",)))
        assert got == value

    @pytest.mark.parametrize("reply, value", [
        ("<score>0.5</score> (confidence 0.9)", 0.5),
        ("I lean high. <score> 1 </score>", 1.0),
        ("<SCORE>.5</SCORE>", 0.5),
        ("<score>0.9</score> on reflection <score>0.2</score>", 0.0),
    ])
    def test_score_tag_beats_the_last_number(self, chat_server, reply, value):
        chat_server.default_reply = reply
        got = make_llm(chat_server).ask(Question("rel", ("HNY",)))
        assert got == value

    @pytest.mark.parametrize("tag", ["<score>high</score>",
                                     "<score></score> 0.5",
                                     "<score>0.5 or 1</score>"])
    def test_score_tag_without_one_number_is_retried(self, chat_server,
                                                     fast_retries, tag):
        chat_server.script = [
            (200, {"choices": [{"message": {"content": tag}}]})]
        chat_server.default_reply = "<score>1</score>"
        llm = make_llm(chat_server, max_retries=1)
        assert llm.ask(Question("rel", ("HNY",))) == 1.0
        assert llm.last_retries == 1
        assert len(chat_server.requests) == 2

    def test_off_grid_reply_is_snapped(self, chat_server):
        chat_server.default_reply = "I would say roughly 0.68."
        got = make_llm(chat_server).ask(Question("rel", ("HNY",)))
        assert got == 0.5

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
        assert got == 0.5
        assert llm.last_retries == 2
        assert len(chat_server.requests) == 3
        # Each retry sends the whole request again, headers and body.
        first = chat_server.requests[0]
        assert first["body"]["messages"][0]["content"]
        assert all(r == first for r in chat_server.requests[1:])

    @pytest.mark.parametrize("jar", [{}, {"seen": "1"}],
                             ids=["empty-jar", "cookie-before"])
    def test_requests_on_the_wire_match_session_post(
            self, chat_server, monkeypatch, jar):
        """A session's headers, the API key and the jar as it is at each
        ask reach the wire as `session.post` sends them: same headers in
        the same order, same body, and a cookie set between two asks."""
        import requests
        monkeypatch.setenv("STUB_KEY", "sekrit")

        def session():
            s = requests.Session()
            s.headers["X-Extra"] = "kept"
            s.cookies.update(jar)
            return s

        theirs = session()
        llm = LlmOracle(
            LlmOracleConfig(endpoint_url=chat_server.url,
                            api_key_env="STUB_KEY"),
            hotel_spec(), query_text="affordable hotels",
            entity_context={"HNY": "midtown high-rise"}, session=session())
        llm.ask(Question("rel", ("HNY",)))
        llm.session.cookies.set("late", "2")
        llm.ask(Question("div", ("MLN", "HYN")))
        ours = chat_server.requests[:]
        assert len(ours) == 2
        assert ours[0]["body"] != ours[1]["body"]
        headers = {"Content-Type": "application/json",
                   "Authorization": "Bearer sekrit"}
        theirs.post(chat_server.url, json=ours[0]["body"], headers=headers)
        theirs.cookies.set("late", "2")
        theirs.post(chat_server.url, json=ours[1]["body"], headers=headers)
        for got, want in zip(ours, chat_server.requests[2:]):
            assert got["body"] == want["body"]
            assert list(got["headers"].items()) == \
                list(want["headers"].items())
        first, second = (r["headers"] for r in ours)
        assert "late=2" in second["Cookie"]
        assert first["Content-Length"] != second["Content-Length"]

    @pytest.mark.parametrize("status", [429, 500])
    def test_rate_limit_and_server_error_take_one_retry(
            self, chat_server, fast_retries, status):
        chat_server.script = [(status, "busy")]
        chat_server.default_reply = "1"
        llm = make_llm(chat_server)
        assert llm.ask(Question("rel", ("HNY",))) == 1.0
        assert llm.last_retries == 1
        assert len(chat_server.requests) == 2

    @pytest.mark.parametrize("status", [401, 404])
    def test_status_no_retry_can_change_ends_at_once(
            self, chat_server, fast_retries, status):
        chat_server.script = [(status, "no")] * 5
        llm = make_llm(chat_server, max_retries=6)
        with pytest.raises(OracleError,
                           match=f"after 1 attempt: HTTP {status}$"):
            llm.ask(Question("rel", ("HNY",)))
        assert llm.last_retries == 0
        assert len(chat_server.requests) == 1

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

    def test_overflowing_number_is_retried(self, chat_server, fast_retries):
        chat_server.script = [
            (200, {"choices": [{"message": {"content": "1e999"}}]})]
        llm = make_llm(chat_server, max_retries=1)
        assert llm.ask(Question("rel", ("HNY",))) == 0.5
        assert len(chat_server.requests) == 2

    def test_malformed_json_is_retried_then_fails(self, chat_server,
                                                  fast_retries):
        chat_server.script = [(200, "not json")] * 5
        llm = make_llm(chat_server, max_retries=1)
        with pytest.raises(OracleError):
            llm.ask(Question("rel", ("HNY",)))

    @pytest.mark.parametrize("payload", [
        [], {"choices": None}, {"choices": [{"message": {"content": None}}]},
    ], ids=["list-body", "null-choices", "null-content"])
    def test_wrong_shaped_reply_is_retried(self, chat_server, fast_retries,
                                           payload):
        chat_server.script = [(200, payload)]
        llm = make_llm(chat_server, max_retries=1)
        assert llm.ask(Question("rel", ("HNY",))) == 0.5
        assert len(chat_server.requests) == 2

    @pytest.mark.parametrize("payload", [
        [], {"choices": None}, {"choices": [{"message": {"content": None}}]},
    ], ids=["list-body", "null-choices", "null-content"])
    def test_wrong_shaped_reply_fails_like_a_malformed_one(
            self, chat_server, fast_retries, payload):
        text = {"choices": [{"message": {"content": "no idea"}}]}
        chat_server.script = [(200, text)] + [(200, payload)] * 5
        llm = make_llm(chat_server, max_retries=2)
        with pytest.raises(OracleError, match="malformed reply") as err:
            llm.ask(Question("rel", ("HNY",)))
        assert err.value.raw_reply == "no idea"
        assert len(chat_server.requests) == 3

    def test_refused_connection_is_retried_then_fails(self, fast_retries):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        cfg = LlmOracleConfig(endpoint_url=f"http://127.0.0.1:{port}",
                              max_retries=1)
        llm = LlmOracle(cfg, hotel_spec())
        with pytest.raises(OracleError, match="2 attempts: request failed"):
            llm.ask(Question("rel", ("HNY",)))
        assert llm.last_retries == 1

    @pytest.mark.parametrize("url", ["http://", "localhost:9/v1",
                                     "ftp://x/y"])
    def test_url_no_request_can_go_to_is_rejected_up_front(
            self, chat_server, url):
        with pytest.raises(ValidationError,
                           match=f"^endpointUrl {re.escape(repr(url))} "):
            LlmOracle(LlmOracleConfig(endpoint_url=url), hotel_spec())
        assert chat_server.requests == []

    def test_template_must_mention_both_slots(self, chat_server):
        # The spec has a binary construct, so the template is rejected
        # when the oracle is built, before any request.
        with pytest.raises(ValidationError, match="entityB"):
            make_llm(chat_server, prompt_template="{entityA} only: {query}")
        assert chat_server.requests == []
        # A unary-only spec needs no {entityB}.
        cfg = LlmOracleConfig(endpoint_url=chat_server.url,
                              prompt_template="{entityA} only: {query}")
        unary = ScoringSpec((Construct("rel", 1),), 0.0, 1.0, 0.5)
        LlmOracle(cfg, unary).ask(Question("rel", ("HNY",)))

    @pytest.mark.parametrize("template", [
        "{entityA}{entityB} {nope}", "{entityA}{entityB} {}",
        "{entityA}{entityB} {0}", "{entityA}{entityB} }", "{entityA}{entityB} {query",
        "{entityA}{entityB} {query.real}",
    ], ids=["unknown-name", "auto-positional", "positional", "lone-brace",
            "unclosed", "attribute"])
    def test_template_that_cannot_format_is_rejected_up_front(
            self, chat_server, template):
        with pytest.raises(ValidationError, match="does not format"):
            make_llm(chat_server, prompt_template=template)
        assert chat_server.requests == []


def test_llm_config_reads_an_integral_float_as_the_retry_count(tmp_path):
    path = tmp_path / "llm.json"
    path.write_text('{"endpointUrl": "http://localhost:9", "maxRetries": 2.0}')
    cfg = LlmOracleConfig.from_json(path)
    assert cfg.max_retries == 2 and type(cfg.max_retries) is int


def test_llm_config_built_in_code_keeps_its_values():
    """A URL, a template and a timeout given in code, as a benchmark
    harness passes them, build unchanged; the rest keep their defaults."""
    cfg = LlmOracleConfig("http://127.0.0.1:9", prompt_template="{entityA}",
                          timeout_s=10.0)
    assert (cfg.endpoint_url, cfg.prompt_template, cfg.timeout_s) == \
        ("http://127.0.0.1:9", "{entityA}", 10.0)
    assert (cfg.api_key_env, cfg.model, cfg.max_retries, cfg.temperature) \
        == ("", "", 3, 0.0)


def test_llm_config_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "llm.json"
    path.write_text('\ufeff{"endpointUrl": "http://localhost:9", '
                    '"maxRetries": 4}', encoding="utf-8")
    cfg = LlmOracleConfig.from_json(path)
    assert (cfg.endpoint_url, cfg.max_retries) == ("http://localhost:9", 4)


DATASET_F1 = Path(__file__).resolve().parent.parent / "datasets" / "f1"


def fresh_python(code: str) -> str:
    """Run code in a new interpreter importing this topkset; its stdout."""
    src = str(Path(topkset.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["topkset", "topkset.cli"])
def test_import_leaves_the_http_stack_unloaded(module):
    assert fresh_python(f"""
        import sys, {module}
        print("requests" in sys.modules)""") == "False"


def test_import_leaves_the_worker_pool_unloaded():
    """Only `run_experiment` with workers > 1 needs concurrent.futures."""
    assert fresh_python("""
        import sys, topkset
        print("concurrent.futures" in sys.modules)""") == "False"


def test_table_oracle_solve_never_loads_the_http_stack():
    assert fresh_python(f"""
        import contextlib, io, sys
        from topkset.cli import entrypoint
        with contextlib.redirect_stdout(io.StringIO()):
            code = entrypoint(["solve", "--dataset", {str(DATASET_F1)!r},
                               "--k", "3"])
        print(code, "requests" in sys.modules)""") == "0 False"


def test_llm_oracle_loads_the_http_stack_when_built(chat_server):
    assert fresh_python(f"""
        import sys
        from topkset import LlmOracle, LlmOracleConfig, Question
        from topkset.harness import default_spec
        before = "requests" in sys.modules
        llm = LlmOracle(LlmOracleConfig(endpoint_url={chat_server.url!r}),
                        default_spec())
        print(before, "requests" in sys.modules,
              llm.ask(Question("rel", ("A",))))""") == "False True 0.5"
    assert len(chat_server.requests) == 1
