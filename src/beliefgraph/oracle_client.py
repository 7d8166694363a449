"""HTTP oracle client with an append-only on-disk response cache.

Wire protocol: POST a JSON object to the endpoint, one of

    {"op": "generate_premises", "statement": ...} -> {"premises": [...]}
    {"op": "score_statement",   "statement": ...} -> {"score": 0.98}
    {"op": "score_entailment",  "premises": [...], "hypothesis": ...} -> {"score": ...}
    {"op": "negate",            "statement": ...} -> {"statement": ...}

Transport is stdlib `http.client` over `http:` or `https:`, with one
keep-alive connection per thread.  Proxy environment variables
(`HTTP_PROXY`, `HTTPS_PROXY`) are not honoured.  A query makes up to
`MAX_ATTEMPTS` attempts, with exponential backoff between them; a request
sent on a kept-alive connection that the server closed while idle is
re-sent once on a fresh connection, without a pause and without using up
an attempt.

The cache is a JSONL file keyed by the canonicalized request: each miss
appends one ``[key, document]`` line in a single write, and nothing ever
rewrites the file, so repeated runs never re-query the backend.  On load a
torn last line (one with no terminating newline, left by an interrupted
append) is dropped and cut off; any other malformed line raises
`OracleDecodeError`.  One lock guards the writes to the in-memory cache,
the counter, the connection table and the append, so a client may be
shared by threads; the HTTP round trip runs outside the lock.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit

from .construction import canonicalize
from .errors import OracleDecodeError, OracleTransportError

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 0.2

_HEADERS = {"Content-Type": "application/json"}
_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}


def _load_cache(path: Path) -> dict[str, dict]:
    """Read a JSONL cache file, dropping and cutting off a torn last line."""
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    # One parse over the joined lines; the line-by-line parse runs only to
    # name a bad line.
    try:
        cache = dict(json.loads(b"[" + data[: max(end - 1, 0)].replace(b"\n", b",") + b"]"))
    except (TypeError, ValueError):
        cache = None
    if cache is None or set(map(type, cache)) - {str} or set(map(type, cache.values())) - {dict}:
        cache = _parse_lines(path, data[:end].split(b"\n")[:-1])
    if end < len(data):
        # Cut the torn line off, so that the next append starts a line.
        with open(path, "r+b") as handle:
            handle.truncate(end)
    return cache


def _parse_lines(path: Path, lines: list[bytes]) -> dict[str, dict]:
    cache = {}
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise OracleDecodeError(f"{path}: line {number}: {exc}") from exc
        if not (
            isinstance(record, list)
            and len(record) == 2
            and isinstance(record[0], str)
            and isinstance(record[1], dict)
        ):
            raise OracleDecodeError(f"{path}: line {number}: record must be [key, object]")
        cache[record[0]] = record[1]
    return cache


class RemoteOracle:
    """BeliefOracle backed by an HTTP endpoint, with a persistent cache."""

    def __init__(
        self,
        endpoint: str,
        cache_path: str | Path | None = None,
        timeout: float = 30.0,
        backoff: float = BACKOFF_SECONDS,
    ):
        url = urlsplit(endpoint)
        try:
            self._connection_class = _CONNECTION_CLASSES[url.scheme]
            self._port = url.port
        except (KeyError, ValueError) as exc:
            raise OracleTransportError(
                f"oracle endpoint must be an http: or https: URL, got {endpoint!r}"
            ) from exc
        if not url.hostname:
            raise OracleTransportError(f"oracle endpoint {endpoint!r} names no host")
        self._host = url.hostname
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self.endpoint = endpoint
        self.cache_path = Path(cache_path) if cache_path else None
        self.timeout = timeout
        self.backoff = backoff
        self.calls = 0
        self._lock = threading.Lock()
        # One keep-alive connection per thread that has queried.
        self._connections: dict[threading.Thread, http.client.HTTPConnection] = {}
        self._cache: dict[str, dict] = {}
        if self.cache_path and self.cache_path.exists():
            self._cache = _load_cache(self.cache_path)

    def close(self) -> None:
        """Close every thread's connection; a later query reconnects."""
        with self._lock:
            for connection in self._connections.values():
                connection.close()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One round trip on this thread's keep-alive connection."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            connection = self._connection_class(self._host, self._port, timeout=self.timeout)
            with self._lock:
                for finished in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(finished).close()
                self._connections[thread] = connection
        reused = connection.sock is not None
        while True:
            try:
                connection.request("POST", self._path, body, _HEADERS)
                response = connection.getresponse()
                return response.status, response.read()
            except BaseException as exc:
                # A half-finished exchange leaves the connection unusable.
                connection.close()
                if not (reused and isinstance(exc, ConnectionError)):
                    raise
                # The server closed the idle connection before reading the
                # request: re-send it once on a fresh connection.
                reused = False

    def _request(self, payload: dict) -> dict:
        key = json.dumps(payload, sort_keys=True)
        # One dict read is atomic; the lock orders the writers in `_store`.
        document = self._cache.get(key)
        if document is not None:
            return document
        body = json.dumps(payload).encode()
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            with self._lock:
                self.calls += 1
            try:
                status, content = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = OracleTransportError(
                    f"server error {status} from {self.endpoint}"
                )
                continue
            if status != 200:
                raise OracleTransportError(
                    f"unexpected status {status} from {self.endpoint}"
                )
            try:
                document = json.loads(content)
            except ValueError as exc:
                raise OracleDecodeError(f"non-JSON oracle response: {exc}") from exc
            if not isinstance(document, dict):
                raise OracleDecodeError("oracle response root must be an object")
            return self._store(key, document)
        raise OracleTransportError(
            f"oracle at {self.endpoint} failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def _store(self, key: str, document: dict) -> dict:
        line = (json.dumps([key, document], separators=(",", ":")) + "\n").encode()
        with self._lock:
            if key in self._cache:  # another thread answered it first
                return self._cache[key]
            if self.cache_path:
                with open(self.cache_path, "ab", buffering=0) as handle:
                    handle.write(line)
            self._cache[key] = document
        return document

    @staticmethod
    def _field(document: dict, key: str, kind: type | tuple[type, ...], expected: str):
        """A response field of the JSON type ``kind``; nothing is coerced."""
        value = document.get(key)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise OracleDecodeError(f"oracle field {key!r} must be {expected}, got {value!r}")
        return value

    @classmethod
    def _score(cls, document: dict) -> float:
        """The ``score`` field as a float; an integer too large for one is malformed."""
        try:
            return float(cls._field(document, "score", (int, float), "a number"))
        except OverflowError as exc:
            raise OracleDecodeError("oracle field 'score' is too large for a float") from exc

    def generate_premises(self, statement: str) -> list[str]:
        document = self._request(
            {"op": "generate_premises", "statement": canonicalize(statement)}
        )
        premises = self._field(document, "premises", list, "a list of strings")
        if not all(isinstance(p, str) for p in premises):
            raise OracleDecodeError("premises must be a list of strings")
        return list(premises)

    def score_statement(self, statement: str) -> float:
        document = self._request(
            {"op": "score_statement", "statement": canonicalize(statement)}
        )
        return self._score(document)

    def score_entailment(self, premises: Sequence[str], hypothesis: str) -> float:
        document = self._request(
            {
                "op": "score_entailment",
                "premises": [canonicalize(p) for p in premises],
                "hypothesis": canonicalize(hypothesis),
            }
        )
        return self._score(document)

    def negate(self, statement: str) -> str:
        document = self._request({"op": "negate", "statement": canonicalize(statement)})
        return self._field(document, "statement", str, "a string")
