"""HTTP oracle client with an append-only on-disk response cache.

Wire protocol: POST a JSON object to the endpoint, one of

    {"op": "generate_premises", "statement": ...} -> {"premises": [...]}
    {"op": "score_statement",   "statement": ...} -> {"score": 0.98}
    {"op": "score_entailment",  "premises": [...], "hypothesis": ...} -> {"score": ...}
    {"op": "negate",            "statement": ...} -> {"statement": ...}

Transport is a minimal HTTP/1.1 client on `socket` (and `ssl` for
`https:`), with one keep-alive connection per thread.  Each request goes
out in a single write: the request line, `Host`, `Content-Type`,
`Accept-Encoding: identity`, `Content-Length` and the body.  A response is
read by `Content-Length`, by chunked transfer coding or to the end of the
stream; interim 1xx responses are skipped, and `Connection: close` (or
HTTP/1.0 without keep-alive) ends the connection, so the next query
reconnects.  A malformed or truncated response is a failed attempt.  Proxy
environment variables (`HTTP_PROXY`, `HTTPS_PROXY`) are not honoured.  A
query makes up to `MAX_ATTEMPTS` attempts, with exponential backoff between
them; a request sent on a kept-alive connection that the server closed
while idle is re-sent once on a fresh connection, without a pause and
without using up an attempt.

The cache is a JSONL file keyed by the canonicalized request: each miss
appends one ``[key, document]`` line in a single write, to a handle opened
on the first miss and kept until `close`, and nothing ever rewrites the
file, so repeated runs never re-query the backend.  On load a
torn last line (one with no terminating newline, left by an interrupted
append) is dropped and cut off; any other malformed line raises
`OracleDecodeError`.  One lock guards the writes to the in-memory cache,
the counter, the connection table and the append, so a client may be
shared by threads; the HTTP round trip runs outside the lock.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit

from .construction import canonicalize
from .errors import OracleDecodeError, OracleTransportError

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 0.2

_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) (\d{3})(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
_LINE_BREAKS = (b"\r\n", b"\n")


class _BadResponse(Exception):
    """A response that breaks HTTP/1.1 framing or a size cap."""


class _Connection:
    """One keep-alive HTTP/1.1 connection; it connects on first use."""

    def __init__(self, address: tuple[str, int], tls_host: str | None, timeout: float):
        self.address, self.tls_host, self.timeout = address, tls_host, timeout
        self.sock: socket.socket | None = None

    def close(self) -> None:
        if self.sock is not None:
            self.file.close()
            self.sock.close()
            self.sock = None

    def post(self, request: bytes) -> tuple[int, bytes]:
        """Send a complete request in one write; return the status and body."""
        if self.sock is None:
            sock = socket.create_connection(self.address, self.timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self.tls_host is not None:
                    import ssl

                    context = ssl.create_default_context()
                    sock = context.wrap_socket(sock, server_hostname=self.tls_host)
            except BaseException:
                sock.close()
                raise
            self.sock, self.file = sock, sock.makefile("rb")
        self.sock.sendall(request)
        status = 100
        while status < 200:  # a 1xx is interim; the final response follows
            line = self._line()
            if not line:
                raise ConnectionResetError("oracle closed the connection without a response")
            match = _STATUS_LINE.fullmatch(line)
            if match is None:
                raise _BadResponse(f"bad status line {line[:80]!r}")
            status, headers = int(match[2]), self._headers()
        tokens = {t.strip() for t in headers.get(b"connection", b"").lower().split(b",")}
        close = b"close" in tokens or (match[1] == b"0" and b"keep-alive" not in tokens)
        if status in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding", b"").lower().endswith(b"chunked"):
            body = self._chunked()
        elif b"content-length" in headers:
            length = headers[b"content-length"]
            if not length.isdigit():
                raise _BadResponse(f"bad Content-Length {length[:80]!r}")
            body = self._read(int(length))
        else:
            body, close = self.file.read(), True
        if close:
            self.close()
        return status, body

    def _line(self) -> bytes:
        line = self.file.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _BadResponse(f"response line longer than {_MAX_LINE} bytes")
        return line

    def _read(self, size: int) -> bytes:
        data = self.file.read(size)
        if len(data) < size:
            raise _BadResponse(f"response truncated after {len(data)} of {size} bytes")
        return data

    def _headers(self) -> dict[bytes, bytes]:
        """Header fields by lowercased name; a repeated field is comma-joined."""
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if line in _LINE_BREAKS:
                return headers
            name, colon, value = line.partition(b":")
            if not (colon and line.endswith(b"\n")):
                raise _BadResponse(f"bad header line {line[:80]!r}")
            name, value = name.strip().lower(), value.strip()
            headers[name] = headers[name] + b", " + value if name in headers else value
        raise _BadResponse(f"more than {_MAX_HEADERS} header lines")

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line()
            match = _CHUNK_SIZE.fullmatch(line)
            if match is None:
                raise _BadResponse(f"bad chunk size line {line[:80]!r}")
            size = int(match[1], 16)
            if not size:
                self._headers()  # the trailer section
                return b"".join(chunks)
            chunks.append(self._read(size))
            if self._line() not in _LINE_BREAKS:
                raise _BadResponse("chunk data not followed by a line break")


def _load_cache(path: Path) -> dict[str, dict]:
    """Read a JSONL cache file, dropping and cutting off a torn last line."""
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    # One parse over the joined lines; the line-by-line parse runs only to
    # name a bad line.
    try:
        cache = dict(json.loads(b"[" + data[: max(end - 1, 0)].replace(b"\n", b",") + b"]"))
    except (TypeError, ValueError, RecursionError):
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
        except (ValueError, RecursionError) as exc:
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
            https = {"http": False, "https": True}[url.scheme]
            port = url.port
        except (KeyError, ValueError) as exc:
            raise OracleTransportError(
                f"oracle endpoint must be an http: or https: URL, got {endpoint!r}"
            ) from exc
        host = url.hostname
        if not host:
            raise OracleTransportError(f"oracle endpoint {endpoint!r} names no host")
        # `urlsplit` drops tabs and line breaks, so check the text as given.
        if any(c.isspace() or not c.isprintable() for c in endpoint):
            raise OracleTransportError(
                f"oracle endpoint {endpoint!r} holds whitespace or a control character"
            )
        self._address = (host, port or (443 if https else 80))
        self._tls_host = host if https else None
        host_field = host if host.isascii() else host.encode("idna").decode()
        host_field = f"[{host_field}]" if ":" in host else host_field
        host_field += "" if port is None else f":{port}"
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        try:
            # A request is this head, the body's length, a blank line and the body.
            self._head = (
                f"POST {path} HTTP/1.1\r\nHost: {host_field}\r\n"
                "Content-Type: application/json\r\nAccept-Encoding: identity\r\n"
                "Content-Length: "
            ).encode("ascii")
        except UnicodeEncodeError as exc:
            raise OracleTransportError(f"oracle endpoint {endpoint!r} is not ASCII") from exc
        self.endpoint = endpoint
        self.cache_path = Path(cache_path) if cache_path else None
        self.timeout = timeout
        self.backoff = backoff
        self.calls = 0
        self._lock = threading.Lock()
        # One keep-alive connection per thread that has queried.
        self._connections: dict[threading.Thread, _Connection] = {}
        # Opened by the first miss that is stored, closed by `close`.
        self._cache_file = None
        self._cache: dict[str, dict] = {}
        if self.cache_path and self.cache_path.exists():
            self._cache = _load_cache(self.cache_path)

    def __enter__(self) -> RemoteOracle:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection and the cache file; a later query reopens them."""
        with self._lock:
            for connection in self._connections.values():
                connection.close()
            if self._cache_file is not None:
                self._cache_file.close()
                self._cache_file = None

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One round trip on this thread's keep-alive connection."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            connection = _Connection(self._address, self._tls_host, self.timeout)
            with self._lock:
                for finished in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(finished).close()
                self._connections[thread] = connection
        reused = connection.sock is not None
        request = self._head + b"%d\r\n\r\n" % len(body) + body
        while True:
            try:
                return connection.post(request)
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
            except (OSError, _BadResponse) as exc:
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
            # A response nested too deeply to parse, or to write back as a
            # cache line, is malformed as well.
            try:
                document = json.loads(content)
                line = (json.dumps([key, document], separators=(",", ":")) + "\n").encode()
            except (ValueError, RecursionError) as exc:
                raise OracleDecodeError(f"non-JSON oracle response: {exc}") from exc
            if not isinstance(document, dict):
                raise OracleDecodeError("oracle response root must be an object")
            return self._store(key, document, line)
        raise OracleTransportError(
            f"oracle at {self.endpoint} failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def _store(self, key: str, document: dict, line: bytes) -> dict:
        with self._lock:
            if key in self._cache:  # another thread answered it first
                return self._cache[key]
            if self.cache_path:
                if self._cache_file is None:
                    self._cache_file = open(self.cache_path, "ab", buffering=0)
                self._cache_file.write(line)
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
