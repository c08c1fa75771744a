"""Count provider backed by a Europe PMC style literature search API.

The service answers boolean phrase queries over its own article store, so
this backend delegates all counting to it: each pipeline count becomes a
search request asking for the hit total only, with no records returned.
Responses are cached on disk keyed by the exact query string, because
live corpora grow over time and a run should be reproducible afterwards.
A cached answer is used only by a client of the same service: the same
endpoint, count field and count parameters.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import os
import random
import reprlib
import selectors
import ssl
import threading
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Mapping
from urllib.parse import SplitResult, unquote, urlencode, urlsplit
from urllib.request import getproxies, proxy_bypass

from . import ConfigError, LitminerError, __version__
from .index import DateRange
from .tokenizer import InvalidPhraseError, is_utf8

logger = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://www.ebi.ac.uk/europepmc/webservices/rest/search"
DEFAULT_COUNT_FIELD = "hitCount"
# Ask for the hit total only: JSON body, no article records.
DEFAULT_COUNT_PARAMS: Mapping[str, str] = {
    "format": "json",
    "resultType": "lite",
    "pageSize": "0",
}

_HEADERS = {"Accept": "application/json", "User-Agent": f"litminer/{__version__}"}


class TransportError(LitminerError, RuntimeError):
    """Request never produced a usable HTTP response."""

    def __init__(self, query_string: str, message: str):
        self.query_string = query_string
        super().__init__(f"{message} [query: {query_string}]")


class ProtocolError(LitminerError, RuntimeError):
    """The service answered, but not in the shape this client expects."""

    def __init__(self, query_string: str, message: str):
        self.query_string = query_string
        super().__init__(f"{message} [query: {query_string}]")


def format_date_clause(date_range: DateRange) -> str:
    return (
        f"(FIRST_PDATE:[{date_range.start.isoformat()}"
        f" TO {date_range.end.isoformat()}])"
    )


def build_query(*phrases: str, date_range: DateRange) -> str:
    """Compose the service's boolean query for the given phrases and range.

    Each phrase is wrapped in double quotes for exact matching and the
    clauses are joined with `` AND ``, the date clause last.  With no
    phrases the query counts every article in the range.
    """
    parts = []
    for phrase in phrases:
        if not phrase:
            raise InvalidPhraseError("empty phrase in remote query")
        if '"' in phrase:
            raise InvalidPhraseError(
                f"phrase {phrase!r} contains a double quote, which cannot be"
                " expressed in the query grammar"
            )
        parts.append(f'"{phrase}"')
    parts.append(format_date_clause(date_range))
    return " AND ".join(parts)


class CountCache:
    """Append-only JSON Lines store of count answers; later lines win.

    Each line is one object: {"query", "count", "fetched_at", "source",
    "service"}, where ``service`` names the service that gave the count.
    Only lines of this cache's ``service`` are read: lines of another one,
    and lines an older litminer wrote with none, are skipped with one
    warning, so their queries are asked again.  The file is an expendable
    cache: deleting it wholesale is always safe.  Unreadable lines are
    skipped with a warning so a torn final write cannot brick the store.
    """

    def __init__(self, path: str | Path | None, service: str | None = None):
        self._path = Path(path) if path is not None else None
        self._service = service
        self._lock = threading.Lock()
        self._entries: dict[str, int] = {}
        self._dir_made = False
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        # Bytes, so a line torn inside a character fails to decode, a
        # ValueError, and is skipped like any other unreadable line.
        other_service = 0
        with open(self._path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    query_string, count = record["query"], record["count"]
                    if not isinstance(query_string, str) or isinstance(count, bool):
                        raise ValueError("bad record")
                    if not isinstance(count, int) or count < 0:
                        raise ValueError("bad count")
                except (RecursionError, ValueError, KeyError, TypeError):
                    logger.warning("%s: skipping unreadable cache line %d", self._path, line_no)
                    continue
                if record.get("service") != self._service:
                    other_service += 1
                    continue
                self._entries[query_string] = count
        if other_service:
            logger.warning(
                "%s: skipping %d cache lines of another service or of an older litminer",
                self._path,
                other_service,
            )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query_string: str) -> int | None:
        with self._lock:
            return self._entries.get(query_string)

    def put(self, query_string: str, count: int, source: str) -> None:
        line = json.dumps(
            {
                "query": query_string,
                "count": count,
                "fetched_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "source": source,
                "service": self._service,
            },
            ensure_ascii=False,
        )
        with self._lock:
            self._entries[query_string] = count
            if self._path is not None:
                if not self._dir_made:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    self._dir_made = True
                # One whole line per write keeps concurrent appends intact.
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")


class RateLimiter:
    """Paces request starts and caps how many run at once."""

    def __init__(self, per_second: float, max_in_flight: int):
        if per_second <= 0:
            raise ValueError("per_second must be positive")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._interval = 1.0 / per_second
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._clock_lock = threading.Lock()
        self._next_start = 0.0

    def __enter__(self) -> "RateLimiter":
        self._slots.acquire()
        with self._clock_lock:
            now = time.monotonic()
            wait = self._next_start - now
            self._next_start = max(now, self._next_start) + self._interval
        if wait > 0:
            # Queued starts are booked up to max_in_flight intervals ahead,
            # which can exceed the longest wait time.sleep takes.
            time.sleep(min(wait, threading.TIMEOUT_MAX))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._slots.release()


@dataclass(frozen=True)
class HttpResponse:
    """A response read whole: status, headers and body."""

    status_code: int
    body: bytes
    headers: Mapping[str, str]

    def json(self) -> Any:
        return json.loads(self.body)


class HttpSession:
    """Keep-alive GET requests over ``http.client``; the client's default session.

    A finished request's connection waits for the next one, so a session
    holds no more connections than requests it has run at once.  Redirects
    are returned, not followed.  See README "Remote counting" for TLS and
    proxies.  No error message carries the request's URL.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[tuple]] = {}

    def get(
        self, url: str, params: Mapping[str, str] | None = None, timeout: float | None = None
    ) -> HttpResponse:
        parts = urlsplit(url)
        query = "&".join(filter(None, (parts.query, urlencode(params or {}))))
        key = (parts.scheme, parts.netloc, timeout)
        with self._lock:
            idle = self._idle.get(key)
            entry = idle.pop() if idle else None
        conn, prefix, headers = entry or self._open(parts, timeout)
        if entry and conn.sock is not None:
            with selectors.DefaultSelector() as probe:  # select.select stops at fd 1023
                probe.register(conn.sock, selectors.EVENT_READ)
                if probe.select(0):
                    conn.close()  # readable while idle: the server closed it; reconnect
        target = prefix + (parts.path or "/") + (f"?{query}" if query else "")
        try:
            conn.request("GET", target, headers=headers)
            response = conn.getresponse()
            result = HttpResponse(response.status, response.read(), response.headers)
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.setdefault(key, []).append((conn, prefix, headers))
        return result

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for entries in idle.values():
            for conn, _prefix, _headers in entries:
                conn.close()

    def _open(self, parts: SplitResult, timeout: float | None) -> tuple:
        """(new connection, request-target prefix, headers) for ``parts``' origin."""
        https = parts.scheme == "https"
        connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        route = _proxy_route(parts)
        if route is None:
            return connection(parts.hostname, parts.port, timeout=timeout), "", _HEADERS
        address, auth = route
        conn = connection(*address, timeout=timeout)
        if https:  # a tunnel, so TLS runs end to end with the origin
            conn.set_tunnel(parts.hostname, parts.port, headers=auth)
            return conn, "", _HEADERS
        # Plain http goes to the proxy with the absolute URL as its target.
        return conn, f"http://{parts.netloc}", {**_HEADERS, **auth}


def _proxy_route(parts: SplitResult) -> tuple[tuple[str, int], dict[str, str]] | None:
    """The proxy's address and credential headers for ``parts``' origin, or None.

    None means the request goes direct.  A proxy variable that is not a
    proxy URL raises ``http.client.InvalidURL`` naming the variable, never
    its value, which may hold credentials.
    """
    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(parts.netloc):
        return None
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        address = (via.hostname, via.port or 80)
    except ValueError:  # a port that is not a number
        address = (None, 0)
    if not address[0]:  # name the spelling getproxies read: lower case wins
        variable = f"{parts.scheme}_proxy"
        variable = variable if os.environ.get(variable) else variable.upper()
        raise http.client.InvalidURL(f"{variable} is not a proxy URL")
    auth = {}
    if via.username is not None:
        user = f"{unquote(via.username)}:{unquote(via.password or '')}"
        auth["Proxy-Authorization"] = f"Basic {base64.b64encode(user.encode()).decode()}"
    return address, auth


def check_proxy(url: str) -> None:
    """Raise ``ConfigError`` when the proxy variable for ``url`` is not a proxy URL.

    The message names the variable, never its value.
    """
    try:
        _proxy_route(urlsplit(url))
    except http.client.InvalidURL as exc:
        raise ConfigError(str(exc)) from None


def _str(value: Any) -> bool:
    return isinstance(value, str) and is_utf8(value)


def _optional_str(value: Any) -> bool:
    return value is None or _str(value)


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _wait(value: Any) -> bool:
    return _number(value) and 0 <= value <= threading.TIMEOUT_MAX


def _str_mapping(value: Any) -> bool:
    return isinstance(value, Mapping) and all(map(_str, chain.from_iterable(value.items())))


def _http_url(value: Any) -> bool:
    # http.client refuses these characters, some with the URL in its message.
    if not (isinstance(value, str) and value.isascii() and value.isprintable()) or " " in value:
        return False
    try:
        parts = urlsplit(value)
        parts.port  # raises ValueError when out of range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname) and "@" not in parts.netloc


def _setting(
    default: Any,
    valid: Callable[[Any], bool],
    expected: str,
    env: str | None = None,
    cli_only: bool = False,
) -> Any:
    """A ClientConfig field declaring its default, its test and the test's wording in errors,
    the variable that sets it (its text read as the default's type, or as a string for None),
    and whether only the command line sets it.
    """
    rule = {"valid": valid, "expected": expected, "env": env, "cli_only": cli_only}
    if isinstance(default, Mapping):  # copied for each config
        return field(default_factory=lambda: dict(default), metadata=rule)
    return field(default=default, metadata=rule)


@dataclass(frozen=True)
class ClientConfig:
    """Remote backend settings; see README for the config file keys.

    Every setting's type and range is checked on construction, so a bad
    value fails with a ``ConfigError`` naming it before any request is made.
    """

    endpoint: str = _setting(
        DEFAULT_ENDPOINT,
        _http_url,
        "an ASCII http or https URL with a host, no user info and no blanks",
        "LITMINER_ENDPOINT",
    )
    count_field: str = _setting(DEFAULT_COUNT_FIELD, _str, "UTF-8 text", "LITMINER_COUNT_FIELD")
    count_params: Mapping[str, str] = _setting(
        DEFAULT_COUNT_PARAMS, _str_mapping, "an object of UTF-8 string values"
    )
    api_key: str | None = _setting(None, _optional_str, "UTF-8 text or null", "LITMINER_API_KEY")
    api_key_param: str = _setting("apiKey", _str, "UTF-8 text")
    # Above TIMEOUT_MAX seconds a wait overflows the platform's time_t, so
    # the pacing interval, the backoffs and the timeout are bounded by it.
    requests_per_second: float = _setting(
        5.0,
        lambda v: _number(v) and v >= 1 / threading.TIMEOUT_MAX,
        f"a number >= 1/{threading.TIMEOUT_MAX:.0f}",
        "LITMINER_RATE_LIMIT",
    )
    max_in_flight: int = _setting(2, _positive_int, "an integer >= 1", "LITMINER_MAX_IN_FLIGHT")
    max_attempts: int = _setting(5, _positive_int, "an integer >= 1", "LITMINER_RETRY_ATTEMPTS")
    backoff_base: float = _setting(0.5, _wait, f"a number >= 0 and <= {threading.TIMEOUT_MAX:.0f}")
    backoff_cap: float = _setting(30.0, _wait, f"a number >= 0 and <= {threading.TIMEOUT_MAX:.0f}")
    timeout: float = _setting(
        30.0,
        lambda v: _wait(v) and v > 0,
        f"a number > 0 and <= {threading.TIMEOUT_MAX:.0f}",
        "LITMINER_TIMEOUT",
    )
    cache_path: str | None = _setting(None, _optional_str, "UTF-8 text or null", "LITMINER_CACHE")
    bypass_cache: bool = _setting(
        False, lambda v: isinstance(v, bool), "true or false", cli_only=True
    )
    source_label: str = _setting("europepmc", _str, "UTF-8 text")

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.metadata["valid"](value):
                # The API key is a credential, so its value stays out of errors.
                got = "" if f.name == "api_key" else f", got {value!r}"
                expected = f.metadata["expected"]
                raise ConfigError(f"client setting {f.name!r} must be {expected}{got}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ClientConfig":
        """Read a JSON config file, which may set every field but a ``cli_only`` one."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (RecursionError, ValueError) as exc:  # not JSON or UTF-8, too deep or too long
                raise ConfigError(f"{path}: client config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: client config must be a JSON object")
        accepted = {f.name for f in fields(cls) if not f.metadata["cli_only"]}
        unknown = sorted(set(data) - accepted)
        if unknown:
            raise ConfigError(f"{path}: unknown client config keys: {unknown}")
        try:
            return cls(**data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def with_env_overrides(self, env: Mapping[str, str] | None = None) -> "ClientConfig":
        """Apply LITMINER_* environment variables on top of this config, in field order."""
        env = os.environ if env is None else env
        config = self
        for setting in fields(self):
            variable = setting.metadata["env"]
            value = env.get(variable) if variable else None
            if value is not None:
                parse = str if setting.default is None else type(setting.default)
                try:
                    config = replace(config, **{setting.name: parse(value)})
                except ValueError as exc:  # it shows the value, unless that is the API key
                    raise ConfigError(f"{variable}: {exc}") from exc
        return config


class EpmcCountClient:
    """Issues count-only search requests with caching, pacing and retry."""

    def __init__(self, config: ClientConfig | None = None, session: Any = None):
        self.config = config = config or ClientConfig()
        self._session = session if session is not None else HttpSession()
        # A digest of what the answers depend on: neither the API key nor a
        # token in the endpoint's own query string reaches the cache file.
        service = [config.endpoint, config.count_field, sorted(config.count_params.items())]
        digest = hashlib.sha256(json.dumps(service).encode()).hexdigest()[:16]
        self.cache = CountCache(config.cache_path, digest)
        self._limiter = RateLimiter(
            self.config.requests_per_second, self.config.max_in_flight
        )

    def close(self) -> None:
        """Close the session's idle connections."""
        self._session.close()

    def fetch_count(self, query_string: str) -> int:
        """Hit count for ``query_string``, from cache when possible.

        Cache lookups are keyed by the exact query string, among this
        service's answers.  With ``bypass_cache`` the service is always
        asked, and the fresh answer still refreshes the cache for later runs.
        """
        if not self.config.bypass_cache:
            cached = self.cache.get(query_string)
            if cached is not None:
                return cached
        payload = self._request(query_string)
        count = self._extract_count(payload, query_string)
        self.cache.put(query_string, count, self.config.source_label)
        return count

    def _request(self, query_string: str) -> Any:
        params = {"query": query_string, **self.config.count_params}
        if self.config.api_key:
            params[self.config.api_key_param] = self.config.api_key
        attempts = self.config.max_attempts
        last_failure = "no attempts made"
        # Doubled per retry: base * 2 ** n no longer fits a float after 1,025 attempts.
        backoff = self.config.backoff_base
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                time.sleep(min(self.config.backoff_cap, backoff) * random.uniform(0.5, 1.0))
                backoff *= 2
            try:
                with self._limiter:
                    response = self._session.get(
                        self.config.endpoint, params=params, timeout=self.config.timeout
                    )
            except (ssl.SSLCertVerificationError, http.client.InvalidURL) as exc:
                # A certificate or a proxy variable no retry can mend.
                raise TransportError(query_string, f"{type(exc).__name__}: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
            else:
                status = response.status_code
                if status == 200:
                    try:
                        return response.json()
                    except (RecursionError, ValueError) as exc:
                        raise ProtocolError(
                            query_string, f"response body is not JSON: {exc}"
                        ) from exc
                last_failure = f"HTTP {status}"
                if 300 <= status < 400:
                    # Not followed: the cache would file another URL's answer
                    # under this endpoint.  The Location's query may echo the
                    # API key, so it is left out.
                    location = response.headers.get("Location", "").split("?")[0]
                    raise TransportError(query_string, f"{last_failure} to {location}")
                if not (status == 429 or 500 <= status < 600):
                    raise TransportError(query_string, last_failure)
            retrying = ", retrying" if attempt < attempts else ""
            logger.warning(
                "attempt %d of %d failed (%s)%s", attempt, attempts, last_failure, retrying
            )
        raise TransportError(
            query_string,
            f"gave up after {attempts} attempts; last failure: {last_failure}",
        )

    def _extract_count(self, payload: Any, query_string: str) -> int:
        name = f"count field {self.config.count_field!r}"
        node = payload
        for part in self.config.count_field.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ProtocolError(query_string, f"{name} missing from response")
            node = node[part]
        if isinstance(node, str) and node.isdecimal():
            try:
                node = int(node)
            except ValueError:  # more digits than int() reads
                message = f"{name} has a {len(node)}-digit value"
                raise ProtocolError(query_string, message) from None
        # reprlib bounds the echoed value, which the service may make any size.
        if isinstance(node, bool) or not isinstance(node, int):
            raise ProtocolError(query_string, f"{name} has non-integer value {reprlib.repr(node)}")
        if node < 0:
            raise ProtocolError(query_string, f"{name} is negative: {reprlib.repr(node)}")
        return node


class EpmcCountProvider:
    """Adapts :class:`EpmcCountClient` to the pipeline's count interface."""

    def __init__(self, client: EpmcCountClient):
        self._client = client

    def _fetch(self, *phrases: str, date_range: DateRange) -> int:
        return self._client.fetch_count(build_query(*phrases, date_range=date_range))

    def article_total(self, date_range: DateRange) -> int:
        return self._fetch(date_range=date_range)

    def count_with(self, phrase: str, date_range: DateRange) -> int:
        return self._fetch(phrase, date_range=date_range)

    def count_with_both(self, phrase_a: str, phrase_b: str, date_range: DateRange) -> int:
        return self._fetch(phrase_a, phrase_b, date_range=date_range)
