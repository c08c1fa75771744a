import base64
import dataclasses
import http.client
import json
import os
import socket
import ssl
import threading
import time
from contextlib import closing
from datetime import date
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from litminer import (
    ClientConfig,
    DateRange,
    EpmcCountClient,
    EpmcCountProvider,
    InvalidPhraseError,
    ProtocolError,
    TransportError,
    build_query,
)
from litminer.epmc import (
    DEFAULT_COUNT_PARAMS,
    DEFAULT_ENDPOINT,
    CountCache,
    HttpResponse,
    HttpSession,
    RateLimiter,
    format_date_clause,
)
from remote_stub import CountingStubServer

RANGE_2004 = DateRange(date(1900, 1, 1), date(2004, 12, 31))
GOLDEN = '"NANOG" AND "embryonic stem cell" AND (FIRST_PDATE:[1900-01-01 TO 2004-12-31])'

FIXTURE = Path(__file__).parent / "fixtures" / "epmc_count_response.json"


class FakeResponse:
    def __init__(self, status_code=200, payload=None, body=None):
        self.status_code = status_code
        self._payload = payload
        self._body = body

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    """Replays a scripted list of responses/exceptions and logs each call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []
        self._lock = threading.Lock()

    def get(self, url, params=None, timeout=None):
        with self._lock:
            self.calls.append({"url": url, "params": dict(params or {}), "timeout": timeout})
            step = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(step, Exception):
            raise step
        return step


def fast_config(**overrides):
    defaults = dict(
        requests_per_second=10_000.0,
        backoff_base=0.001,
        backoff_cap=0.002,
    )
    defaults.update(overrides)
    return ClientConfig(**defaults)


def ok_response(count=7):
    return FakeResponse(payload={"hitCount": count, "version": "6.9"})


class TestBuildQuery:
    def test_golden_two_phrase_query(self):
        assert build_query("NANOG", "embryonic stem cell", date_range=RANGE_2004) == GOLDEN

    def test_single_phrase(self):
        query = build_query("NANOG", date_range=RANGE_2004)
        assert query == '"NANOG" AND (FIRST_PDATE:[1900-01-01 TO 2004-12-31])'

    def test_no_phrases_counts_every_article(self):
        query = build_query(date_range=RANGE_2004)
        assert query == "(FIRST_PDATE:[1900-01-01 TO 2004-12-31])"

    def test_count_only_params(self):
        # The query is the string alone; the client adds its count parameters.
        session = FakeSession([ok_response(1)])
        client = EpmcCountClient(fast_config(), session=session)
        query = build_query("NANOG", date_range=RANGE_2004)
        client.fetch_count(query)
        assert session.calls[0]["params"] == {"query": query, **DEFAULT_COUNT_PARAMS}
        assert session.calls[0]["params"]["pageSize"] == "0"

    def test_configured_count_params_are_sent(self):
        session = FakeSession([ok_response(1)])
        client = EpmcCountClient(fast_config(count_params={"rows": "0"}), session=session)
        client.fetch_count(build_query("NANOG", date_range=RANGE_2004))
        assert session.calls[0]["params"] == {"query": build_query("NANOG", date_range=RANGE_2004), "rows": "0"}

    def test_rejects_empty_phrase(self):
        with pytest.raises(InvalidPhraseError):
            build_query("", date_range=RANGE_2004)

    def test_rejects_embedded_quote(self):
        with pytest.raises(InvalidPhraseError):
            build_query('stem "cell"', date_range=RANGE_2004)

    def test_date_clause(self):
        assert format_date_clause(RANGE_2004) == "(FIRST_PDATE:[1900-01-01 TO 2004-12-31])"


class TestExtractCount:
    def fetch(self, payload, **config_overrides):
        session = FakeSession([FakeResponse(payload=payload)])
        client = EpmcCountClient(fast_config(**config_overrides), session=session)
        return client.fetch_count(build_query("x", date_range=RANGE_2004))

    def test_plain_field(self):
        assert self.fetch({"hitCount": 12}) == 12

    def test_digit_string_accepted(self):
        assert self.fetch({"hitCount": "12"}) == 12

    def test_dotted_path(self):
        assert self.fetch({"outer": {"total": 3}}, count_field="outer.total") == 3

    def test_missing_field(self):
        with pytest.raises(ProtocolError, match="hitCount"):
            self.fetch({"other": 1})

    @pytest.mark.parametrize("bad", [True, -1, 1.5, None, "12a"])
    def test_non_count_values_rejected(self, bad):
        with pytest.raises(ProtocolError):
            self.fetch({"hitCount": bad})

    @pytest.mark.parametrize("digits", ["\u00b2", "1\u00b2"])
    def test_superscript_digit_strings_rejected(self, digits):
        # "²" passes str.isdigit(), but int() cannot read it.
        with pytest.raises(ProtocolError, match="non-integer"):
            self.fetch({"hitCount": digits})

    @pytest.mark.parametrize(
        "bad", [["x" * 50] * 2000, -(10**4000)], ids=["long list", "long negative"]
    )
    def test_bad_value_is_shortened_and_names_the_field(self, bad):
        with pytest.raises(ProtocolError, match="count field 'hitCount' ") as info:
            self.fetch({"hitCount": bad})
        assert len(str(info.value)) < 400  # 108,092 unshortened

    def test_count_with_more_digits_than_int_reads_names_the_field(self):
        with pytest.raises(ProtocolError, match="'hitCount' has a 5000-digit value") as info:
            self.fetch({"hitCount": "9" * 5000})
        assert "9" * 100 not in str(info.value)

    def test_recorded_response_fixture(self):
        payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
        session = FakeSession([FakeResponse(payload=payload)])
        client = EpmcCountClient(fast_config(), session=session)
        query = build_query("NANOG", "embryonic stem cell", date_range=RANGE_2004)
        assert client.fetch_count(query) == payload["hitCount"]
        assert session.calls[0]["params"]["query"] == GOLDEN


class TestRetry:
    def test_retries_500_then_succeeds(self):
        session = FakeSession([FakeResponse(500), FakeResponse(500), ok_response(5)])
        client = EpmcCountClient(fast_config(), session=session)
        assert client.fetch_count(build_query("x", date_range=RANGE_2004)) == 5
        assert len(session.calls) == 3

    def test_retries_429(self):
        session = FakeSession([FakeResponse(429), ok_response(2)])
        client = EpmcCountClient(fast_config(), session=session)
        assert client.fetch_count(build_query("x", date_range=RANGE_2004)) == 2
        assert len(session.calls) == 2

    @pytest.mark.parametrize(
        "error",
        [
            ConnectionRefusedError("refused"),
            http.client.RemoteDisconnected("closed"),
            TimeoutError("timed out"),
        ],
        ids=["refused", "remote disconnected", "timeout"],
    )
    def test_retries_connection_errors(self, error):
        session = FakeSession([error, ok_response(9)])
        client = EpmcCountClient(fast_config(), session=session)
        assert client.fetch_count(build_query("x", date_range=RANGE_2004)) == 9

    @pytest.mark.parametrize(
        "error",
        [
            ssl.SSLCertVerificationError("certificate verify failed"),
            http.client.InvalidURL("http_proxy is not a proxy URL"),
        ],
        ids=["certificate", "proxy variable"],
    )
    def test_errors_no_retry_can_mend_fail_at_once(self, error, caplog):
        session = FakeSession([error, ok_response(9)])
        client = EpmcCountClient(fast_config(max_attempts=5), session=session)
        with caplog.at_level("WARNING", logger="litminer.epmc"):
            with pytest.raises(TransportError, match=type(error).__name__):
                client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert len(session.calls) == 1
        assert caplog.text == ""

    def test_client_errors_do_not_retry(self):
        session = FakeSession([FakeResponse(404)])
        client = EpmcCountClient(fast_config(), session=session)
        with pytest.raises(TransportError, match="HTTP 404"):
            client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert len(session.calls) == 1

    def test_bad_json_does_not_retry(self):
        session = FakeSession([FakeResponse(200, payload=None, body="<html>")])
        client = EpmcCountClient(fast_config(), session=session)
        with pytest.raises(ProtocolError, match="not JSON"):
            client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert len(session.calls) == 1

    @pytest.mark.parametrize(
        "body, message",
        [(b"[" * 100_000, "maximum recursion depth"), (b"9" * 5000, "Exceeds the limit")],
        ids=["nested too deep", "integer too long"],
    )
    def test_json_no_parser_reads_is_a_protocol_error(self, body, message):
        session = FakeSession([HttpResponse(200, body, {})])
        client = EpmcCountClient(fast_config(), session=session)
        with pytest.raises(ProtocolError, match=f"not JSON: {message}"):
            client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert len(session.calls) == 1

    def test_exhaustion_reports_attempts_and_query(self):
        session = FakeSession([FakeResponse(503)])
        client = EpmcCountClient(fast_config(max_attempts=3), session=session)
        with pytest.raises(TransportError) as info:
            client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert "3 attempts" in str(info.value)
        assert '"x"' in str(info.value)
        assert len(session.calls) == 3

    def test_a_thousand_retries_do_not_overflow_the_backoff(self):
        session = FakeSession([FakeResponse(503)])
        config = fast_config(max_attempts=1100, backoff_base=0.001, backoff_cap=0)
        client = EpmcCountClient(config, session=session)
        with pytest.raises(TransportError, match="gave up after 1100 attempts"):
            client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert len(session.calls) == 1100

    def test_api_key_sent_when_configured(self):
        session = FakeSession([ok_response(1)])
        client = EpmcCountClient(fast_config(api_key="sesame"), session=session)
        client.fetch_count(build_query("x", date_range=RANGE_2004))
        assert session.calls[0]["params"]["apiKey"] == "sesame"


class TestCache:
    def query(self, text="x"):
        return build_query(text, date_range=RANGE_2004)

    def test_second_fetch_is_served_from_cache(self, tmp_path):
        session = FakeSession([ok_response(4)])
        config = fast_config(cache_path=str(tmp_path / "counts.jsonl"))
        client = EpmcCountClient(config, session=session)
        assert client.fetch_count(self.query()) == 4
        assert client.fetch_count(self.query()) == 4
        assert len(session.calls) == 1

    def test_cache_survives_restart(self, tmp_path):
        cache_path = str(tmp_path / "counts.jsonl")
        first = EpmcCountClient(
            fast_config(cache_path=cache_path), session=FakeSession([ok_response(4)])
        )
        first.fetch_count(self.query())

        failing = FakeSession([FakeResponse(500)])
        second = EpmcCountClient(fast_config(cache_path=cache_path), session=failing)
        assert second.fetch_count(self.query()) == 4
        assert failing.calls == []

    def test_bypass_refetches_and_refreshes(self, tmp_path):
        cache_path = str(tmp_path / "counts.jsonl")
        warm = EpmcCountClient(
            fast_config(cache_path=cache_path), session=FakeSession([ok_response(4)])
        )
        warm.fetch_count(self.query())

        bypass = EpmcCountClient(
            fast_config(cache_path=cache_path, bypass_cache=True),
            session=FakeSession([ok_response(11)]),
        )
        assert bypass.fetch_count(self.query()) == 11

        reread = EpmcCountClient(
            fast_config(cache_path=cache_path), session=FakeSession([FakeResponse(500)])
        )
        assert reread.fetch_count(self.query()) == 11

    def test_later_lines_win(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        lines = [
            {"query": "q", "count": 1, "fetched_at": "2020-01-01T00:00:00+00:00", "source": "a"},
            {"query": "q", "count": 2, "fetched_at": "2020-01-02T00:00:00+00:00", "source": "a"},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        assert CountCache(path).get("q") == 2

    def test_unreadable_lines_skipped(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        good = {"query": "q", "count": 3, "fetched_at": "2020-01-01T00:00:00+00:00", "source": "a"}
        path.write_text("{torn line\n\n" + json.dumps(good) + "\n", encoding="utf-8")
        cache = CountCache(path)
        assert cache.get("q") == 3
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"query": "q", "count": True},
            {"query": "q", "count": False},
            {"query": "q", "count": -1},
            {"query": "q", "count": "3"},
            {"query": ["q"], "count": 3},
            {"count": 3},
            ["q", 3],
        ],
    )
    def test_malformed_records_skipped(self, tmp_path, caplog, bad):
        path = tmp_path / "counts.jsonl"
        good = {"query": "r", "count": 3, "fetched_at": "2020-01-01T00:00:00+00:00", "source": "a"}
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="litminer.epmc"):
            cache = CountCache(path)
        assert cache.get("q") is None
        assert cache.get("r") == 3
        assert len(cache) == 1
        assert "unreadable cache line 1" in caplog.text

    def test_bool_count_in_cache_is_refetched(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        query = build_query("x", date_range=RANGE_2004)
        record = {"query": query, "count": True, "fetched_at": "2020-01-01T00:00:00+00:00"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        session = FakeSession([ok_response(6)])
        client = EpmcCountClient(fast_config(cache_path=str(path)), session=session)
        count = client.fetch_count(query)
        assert count == 6 and type(count) is int
        assert len(session.calls) == 1

    def test_directory_is_made_once(self, tmp_path, monkeypatch):
        made = []
        real_mkdir = Path.mkdir

        def mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        path = tmp_path / "new" / "dir" / "counts.jsonl"
        cache = CountCache(path)
        cache.put("q", 1, "test")
        assert path.parent.is_dir()
        assert made[0] == path.parent
        first = len(made)
        for i in range(20):
            cache.put(f"q{i}", i, "test")
        assert len(made) == first
        assert len(CountCache(path)) == 21

    def test_no_path_is_memory_only(self):
        cache = CountCache(None)
        cache.put("q", 5, "test")
        assert cache.get("q") == 5

    @pytest.mark.parametrize(
        "setting, asks_again",
        [
            ({"endpoint": "http://other.example/search"}, True),
            ({"count_field": "resultList.hitCount"}, True),
            ({"count_params": {"format": "json"}}, True),
            ({"api_key": "sesame"}, False),
        ],
        ids=["endpoint", "count field", "count params", "api key"],
    )
    def test_cached_count_answers_only_for_its_service(self, tmp_path, setting, asks_again):
        """Answers depend on the endpoint and on how its count is read, not on the key."""
        cache_path = str(tmp_path / "counts.jsonl")
        EpmcCountClient(
            fast_config(cache_path=cache_path), session=FakeSession([ok_response(5)])
        ).fetch_count(self.query())
        payload = {"hitCount": 7, "resultList": {"hitCount": 7}}
        session = FakeSession([FakeResponse(payload=payload)])
        client = EpmcCountClient(fast_config(cache_path=cache_path, **setting), session=session)
        assert client.fetch_count(self.query()) == (7 if asks_again else 5)
        assert len(session.calls) == (1 if asks_again else 0)

    def test_file_of_an_older_litminer_is_asked_again(self, tmp_path, caplog):
        path = tmp_path / "counts.jsonl"
        lines = [
            {"query": self.query(text), "count": 1, "fetched_at": "2020-01-01T00:00:00+00:00"}
            for text in ("x", "y")
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        session = FakeSession([ok_response(4)])
        with caplog.at_level("WARNING", logger="litminer.epmc"):
            client = EpmcCountClient(fast_config(cache_path=str(path)), session=session)
        assert client.fetch_count(self.query()) == 4
        assert len(session.calls) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: skipping 2 cache lines of another service or of an older litminer"
        ]

    def test_file_holds_a_digest_of_the_service(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        config = fast_config(
            endpoint="http://host.example/search?token=t0ken",
            api_key="s3cret",
            cache_path=str(path),
        )
        client = EpmcCountClient(config, session=FakeSession([ok_response(4)]))
        client.fetch_count(self.query())
        client.fetch_count(self.query("y"))
        text = path.read_text(encoding="utf-8")
        for secret in ("host.example", "t0ken", "s3cret"):
            assert secret not in text
        services = {json.loads(line)["service"] for line in text.splitlines()}
        assert len(services) == 1
        assert all(c in "0123456789abcdef" for c in services.pop())


class TestRateLimiter:
    def test_caps_concurrency(self):
        limiter = RateLimiter(per_second=100_000, max_in_flight=3)
        active = 0
        peak = 0
        lock = threading.Lock()

        def work():
            nonlocal active, peak
            with limiter:
                with lock:
                    active += 1
                    peak = max(peak, active)
                time.sleep(0.01)
                with lock:
                    active -= 1

        threads = [threading.Thread(target=work) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak <= 3

    def test_paces_request_starts(self):
        limiter = RateLimiter(per_second=50, max_in_flight=4)
        begun = time.monotonic()
        for _ in range(5):
            with limiter:
                pass
        elapsed = time.monotonic() - begun
        assert elapsed >= 4 * 0.02 - 0.01

    def test_queued_start_waits_no_longer_than_time_sleep_allows(self, monkeypatch):
        # At the slowest pace a config allows, the third start is booked two
        # intervals ahead, past what time.sleep accepts.
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)
        limiter = RateLimiter(per_second=1 / threading.TIMEOUT_MAX, max_in_flight=2)
        for _ in range(3):
            with limiter:
                pass
        assert len(waits) == 2
        assert max(waits) <= threading.TIMEOUT_MAX

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(per_second=0, max_in_flight=1)
        with pytest.raises(ValueError):
            RateLimiter(per_second=1, max_in_flight=0)


class TestClientConfig:
    def test_defaults(self):
        config = ClientConfig()
        assert config.endpoint == DEFAULT_ENDPOINT
        assert config.count_field == "hitCount"
        assert config.max_attempts == 5

    def test_from_file(self, tmp_path):
        path = tmp_path / "client.json"
        path.write_text(
            json.dumps({"endpoint": "http://example.test/s", "max_attempts": 2}),
            encoding="utf-8",
        )
        config = ClientConfig.from_file(path)
        assert config.endpoint == "http://example.test/s"
        assert config.max_attempts == 2
        assert config.count_field == "hitCount"

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "client.json"
        path.write_text(json.dumps({"endpoiint": "x"}), encoding="utf-8")
        with pytest.raises(ValueError, match="endpoiint"):
            ClientConfig.from_file(path)

    def test_file_sets_every_field_but_bypass_cache(self, tmp_path):
        settings = {
            "endpoint": "http://example.test/s",
            "count_field": "a.b",
            "count_params": {"format": "json"},
            "api_key": "k",
            "api_key_param": "key",
            "requests_per_second": 2,
            "max_in_flight": 3,
            "max_attempts": 4,
            "backoff_base": 0.25,
            "backoff_cap": 9,
            "timeout": 1.5,
            "cache_path": "c.jsonl",
            "source_label": "test",
        }
        assert set(settings) == {f.name for f in dataclasses.fields(ClientConfig)} - {
            "bypass_cache"
        }
        path = tmp_path / "client.json"
        path.write_text(json.dumps(settings), encoding="utf-8")
        config = ClientConfig.from_file(path)
        assert {name: getattr(config, name) for name in settings} == settings
        for refused in ("bypass_cache", "no_such_key"):
            path.write_text(json.dumps({refused: True}), encoding="utf-8")
            with pytest.raises(ValueError, match=refused):
                ClientConfig.from_file(path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("endpoint", None),
            ("count_params", {"pageSize": 0}),
            ("count_params", ["format", "json"]),
            ("api_key", 7),
            ("requests_per_second", 0),
            ("requests_per_second", float("nan")),
            ("requests_per_second", 1e-300),
            ("max_in_flight", 2.0),
            ("max_in_flight", True),
            ("max_attempts", 0),
            ("backoff_base", -0.1),
            ("backoff_base", float("inf")),
            ("backoff_cap", "1"),
            ("backoff_cap", float("inf")),
            ("backoff_cap", 1e10),
            ("timeout", -1),
            ("timeout", float("inf")),
            ("timeout", 1e10),
            ("cache_path", 1),
            ("bypass_cache", "yes"),
            ("source_label", None),
            ("endpoint", "example.org/search"),
            ("endpoint", "ftp://host/x"),
            ("endpoint", "http://u:p@host/x"),
            ("endpoint", "http://host:70000/x"),
            ("count_field", "hit\udcff"),
            ("count_params", {"format": "\udcff"}),
            ("api_key", "k\udcff"),
            ("api_key_param", "\udcff"),
            ("cache_path", "c\udcff.jsonl"),
            ("source_label", "\udcff"),
        ],
    )
    def test_bad_setting_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            ClientConfig(**{name: value})

    @pytest.mark.parametrize("key", [7, "s3cret\udcff"])
    def test_api_key_stays_out_of_the_refusal(self, key):
        with pytest.raises(ValueError, match="'api_key' must be UTF-8 text or null$"):
            ClientConfig(api_key=key)

    def test_config_file_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "client.json"
        path.write_bytes(b'{"source_label": "\xff"}')
        with pytest.raises(ValueError, match="client config is not valid JSON"):
            ClientConfig.from_file(path)

    def test_longest_timeout_a_request_can_wait(self):
        assert ClientConfig(timeout=threading.TIMEOUT_MAX).timeout == threading.TIMEOUT_MAX

    def test_env_overrides(self):
        config = ClientConfig().with_env_overrides(
            env={
                "LITMINER_ENDPOINT": "http://env.test/s",
                "LITMINER_RATE_LIMIT": "2.5",
                "LITMINER_MAX_IN_FLIGHT": "7",
                "LITMINER_RETRY_ATTEMPTS": "9",
                "LITMINER_TIMEOUT": "1.5",
                "LITMINER_CACHE": "/tmp/c.jsonl",
                "LITMINER_COUNT_FIELD": "a.b",
                "LITMINER_API_KEY": "k",
            }
        )
        assert config.endpoint == "http://env.test/s"
        assert config.requests_per_second == 2.5
        assert config.max_in_flight == 7
        assert config.max_attempts == 9
        assert config.timeout == 1.5
        assert config.cache_path == "/tmp/c.jsonl"
        assert config.count_field == "a.b"
        assert config.api_key == "k"

    def test_env_overrides_reject_bad_numbers(self):
        with pytest.raises(ValueError, match="LITMINER_RATE_LIMIT"):
            ClientConfig().with_env_overrides(env={"LITMINER_RATE_LIMIT": "fast"})

    def test_empty_env_changes_nothing(self):
        config = ClientConfig()
        assert config.with_env_overrides(env={}) is config


class TestProviderQueries:
    def test_query_strings_for_each_operation(self):
        session = FakeSession([ok_response(1)])
        provider = EpmcCountProvider(EpmcCountClient(fast_config(), session=session))
        provider.article_total(RANGE_2004)
        provider.count_with("NANOG", RANGE_2004)
        provider.count_with_both("NANOG", "embryonic stem cell", RANGE_2004)
        queries = [c["params"]["query"] for c in session.calls]
        assert queries == [
            "(FIRST_PDATE:[1900-01-01 TO 2004-12-31])",
            '"NANOG" AND (FIRST_PDATE:[1900-01-01 TO 2004-12-31])',
            GOLDEN,
        ]


class TestAgainstStubServer:
    def test_counts_and_traffic(self, tmp_path):
        with CountingStubServer(default_count=21) as server:
            config = fast_config(
                endpoint=server.url, cache_path=str(tmp_path / "c.jsonl")
            )
            with closing(EpmcCountClient(config)) as client:
                query = build_query("NANOG", date_range=RANGE_2004)
                assert client.fetch_count(query) == 21
                assert client.fetch_count(query) == 21
            assert server.request_count == 1
            assert server.requests[0]["format"] == "json"
            assert server.requests[0]["pageSize"] == "0"

    def test_retry_against_real_http(self, tmp_path):
        with CountingStubServer(default_count=8) as server:
            server.plan_failures(500, 503)
            with closing(EpmcCountClient(fast_config(endpoint=server.url))) as client:
                assert client.fetch_count(build_query("x", date_range=RANGE_2004)) == 8
            assert server.request_count == 3

    def test_specific_query_responses(self):
        with CountingStubServer(responses={GOLDEN: 15}, default_count=0) as server:
            with closing(EpmcCountClient(fast_config(endpoint=server.url))) as client:
                query = build_query("NANOG", "embryonic stem cell", date_range=RANGE_2004)
                assert client.fetch_count(query) == 15


def closed_port() -> int:
    """A localhost port nothing listens on."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


@pytest.fixture
def offline(monkeypatch):
    """No proxy variables, and every name lookup but 127.0.0.1 refused and recorded."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    looked_up = []
    real_getaddrinfo = socket.getaddrinfo

    def getaddrinfo(host, *args, **kwargs):
        if host != "127.0.0.1":
            looked_up.append(host)
            raise socket.gaierror(socket.EAI_NONAME, "lookups are refused in this test")
        return real_getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    return looked_up


class TestHttpSession:
    """The default transport against the keep-alive stub."""

    def query(self, text="x"):
        return build_query(text, date_range=RANGE_2004)

    def test_sequential_fetches_share_one_connection(self, offline):
        with CountingStubServer(default_count=3) as server:
            with closing(EpmcCountClient(fast_config(endpoint=server.url))) as client:
                for i in range(20):
                    assert client.fetch_count(self.query(f"t{i}")) == 3
            assert server.request_count == 20
            assert server.connection_count == 1

    def test_close_closes_the_idle_connection(self, offline):
        with CountingStubServer(default_count=5) as server:
            with closing(EpmcCountClient(fast_config(endpoint=server.url))) as client:
                assert client.fetch_count(self.query("a")) == 5
                client.close()
                assert client.fetch_count(self.query("b")) == 5
            assert server.connection_count == 2

    def test_sends_json_accept_and_user_agent(self, offline):
        with CountingStubServer() as server:
            with closing(EpmcCountClient(fast_config(endpoint=server.url))) as client:
                client.fetch_count(self.query())
            (headers,) = server.request_headers
        assert headers["Accept"] == "application/json"
        assert headers["User-Agent"].startswith("litminer/")
        assert "gzip" not in headers.get("Accept-Encoding", "")

    def test_idle_connection_closed_by_server_is_reopened(self, offline, caplog):
        with CountingStubServer(default_count=4) as server:
            config = fast_config(endpoint=server.url, max_attempts=1)
            with closing(EpmcCountClient(config)) as client:
                assert client.fetch_count(self.query("a")) == 4
                server.drop_connections()
                with caplog.at_level("WARNING", logger="litminer.epmc"):
                    assert client.fetch_count(self.query("b")) == 4
            assert caplog.text == ""
            assert server.connection_count == 2

    def test_connection_above_descriptor_1024_is_reused(self, offline):
        # select() refuses a descriptor at or above 1024; the check that an
        # idle connection is still open must not.
        resource = pytest.importorskip("resource")
        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft != resource.RLIM_INFINITY and soft < 1100:
            pytest.skip(f"open-file limit {soft} is below 1100")
        devnull = os.open(os.devnull, os.O_RDONLY)
        duplicates = [devnull]
        try:
            # Descriptors are allocated lowest first, so the next is above 1024.
            while duplicates[-1] < 1024:
                duplicates.append(os.dup(devnull))
            with CountingStubServer(default_count=9) as server:
                with closing(HttpSession()) as session:
                    for text in ("a", "b"):
                        response = session.get(server.url, params={"query": text})
                        assert response.json()["hitCount"] == 9
                assert server.request_count == 2
                assert server.connection_count == 1
        finally:
            for fd in duplicates:
                os.close(fd)

    def test_redirect_is_not_followed(self, offline):
        with CountingStubServer() as server:
            server.plan_failures(301)
            with closing(EpmcCountClient(fast_config(endpoint=server.url))) as client:
                with pytest.raises(TransportError) as info:
                    client.fetch_count(self.query())
            assert server.request_count == 1
        # The Location's own query is left out of the message.
        assert str(info.value).startswith("HTTP 301 to http://moved.invalid/search [query:")

    def test_endpoint_query_is_kept(self, offline):
        with CountingStubServer(default_count=2) as server:
            with closing(EpmcCountClient(fast_config(endpoint=server.url + "?db=x"))) as client:
                assert client.fetch_count(self.query()) == 2
            (params,) = server.requests
        assert params == {"db": "x", "query": self.query(), **DEFAULT_COUNT_PARAMS}

    def test_api_key_stays_out_of_messages(self, offline, caplog):
        config = fast_config(
            endpoint=f"http://127.0.0.1:{closed_port()}/search",
            api_key="SECRET123",
            max_attempts=2,
        )
        with caplog.at_level("WARNING", logger="litminer.epmc"):
            with pytest.raises(TransportError) as info:
                EpmcCountClient(config).fetch_count(self.query())
        assert "SECRET123" not in caplog.text
        assert "SECRET123" not in str(info.value)
        first, last = caplog.messages
        assert first.endswith("retrying")
        assert not last.endswith("retrying")

    @pytest.mark.parametrize("user_info", ["", "ann:p%40ss@"])
    def test_http_proxy_gets_the_absolute_url(self, offline, monkeypatch, user_info):
        with CountingStubServer(default_count=6) as server:
            monkeypatch.setenv("http_proxy", f"http://{user_info}{urlsplit(server.url).netloc}")
            config = fast_config(endpoint="http://litminer.invalid/search")
            with closing(EpmcCountClient(config)) as client:
                assert client.fetch_count(self.query()) == 6
            (headers,) = server.request_headers
        assert offline == []
        assert headers["Host"] == "litminer.invalid"
        if user_info:
            assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(
                b"ann:p@ss"
            ).decode()
        else:
            assert "Proxy-Authorization" not in headers

    @pytest.mark.parametrize("proxy", ["http://127.0.0.1:abc", "http://"])
    def test_malformed_proxy_variable_is_a_transport_error(self, offline, monkeypatch, proxy):
        monkeypatch.setenv("http_proxy", proxy)
        config = fast_config(endpoint="http://litminer.invalid/search", max_attempts=1)
        with pytest.raises(TransportError, match="http_proxy is not a proxy URL"):
            EpmcCountClient(config).fetch_count(self.query())
        assert offline == []

    def test_malformed_proxy_variable_fails_at_once(self, offline, monkeypatch, caplog):
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:abc")
        config = fast_config(endpoint="http://litminer.invalid/search", max_attempts=5)
        with caplog.at_level("WARNING", logger="litminer.epmc"):
            with pytest.raises(TransportError, match="http_proxy is not a proxy URL"):
                EpmcCountClient(config).fetch_count(self.query())
        # Each failed attempt that is retried logs a warning.
        assert caplog.text == ""

    def test_no_proxy_host_goes_direct(self, offline, monkeypatch):
        with CountingStubServer() as server:
            monkeypatch.setenv("http_proxy", f"http://{urlsplit(server.url).netloc}")
            monkeypatch.setenv("no_proxy", "litminer.invalid")
            config = fast_config(endpoint="http://litminer.invalid/search", max_attempts=1)
            with pytest.raises(TransportError, match="gaierror"):
                EpmcCountClient(config).fetch_count(self.query())
            assert server.request_count == 0
        assert offline == ["litminer.invalid"]

    def test_https_proxy_is_asked_for_a_tunnel(self, offline, monkeypatch):
        received = []
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_once():
                conn, _ = listener.accept()
                with conn:
                    received.append(conn.recv(65536))
                    conn.sendall(b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")

            proxy = threading.Thread(target=answer_once)
            proxy.start()
            port = listener.getsockname()[1]
            monkeypatch.setenv("https_proxy", f"http://ann:pw@127.0.0.1:{port}")
            config = fast_config(endpoint="https://litminer.invalid/search", max_attempts=1)
            with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
                EpmcCountClient(config).fetch_count(self.query())
            proxy.join(timeout=5)
        (request,) = received
        assert request.startswith(b"CONNECT litminer.invalid:443 ")
        assert b"\r\nProxy-Authorization: Basic " + base64.b64encode(b"ann:pw") in request
        assert offline == []
