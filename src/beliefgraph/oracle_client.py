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
reconnects.  A malformed or truncated response is a failed attempt, and so
is a body over `_MAX_BODY` bytes, which is not read past the cap.  Proxy
environment variables (`HTTP_PROXY`, `HTTPS_PROXY`) are not honoured.  A
query makes up to `MAX_ATTEMPTS` attempts, with exponential backoff between
them; a request sent on a kept-alive connection that the server closed
while idle is re-sent once on a fresh connection, without a pause and
without using up an attempt.

The cache is a JSONL file keyed by the canonicalized request, whose sorted-key
JSON text (``json.dumps(request, sort_keys=True)``, written directly rather
than through an encoder) is also the request body.  It holds checked answers,
so a hit is one dict read (premises come back as a fresh list).  `_ANSWERS`
gives each op's answer field and its rule, one that `MockOracle` applies to
its tables: a score is a number in [0, 1], not a bool, and a premise or
negation a string that UTF-8 can encode and `canonicalize` accepts.  A miss is
checked once, so a malformed answer (a score of 1.5 or NaN, an empty text, a
lone surrogate) is an `OracleDecodeError` and is never stored.  Each stored
miss appends one ``[key, document]`` line in a single write, to a handle
opened on the first stored miss and kept until `close`, and nothing ever
rewrites the file, so repeated runs never re-query the backend.  A write that
fails, or that a file-size limit or a full disk cuts short, leaves no partial
line and raises `OSError`, and the answer is not kept.  The file is read when
the client is made: each newline-terminated line must hold exactly one
``[key, object]`` record and nothing else, whose key is a request with an op
in `_ANSWERS` and whose answer passes that op's rule, and the first record of
a key is kept, as `_store` keeps the first answer.  A torn last line (without
a terminating newline, left by an interrupted append) is dropped and cut off;
any other line that breaks these raises `OracleDecodeError` naming its number.
One lock guards the writes to the in-memory cache, the counter, the connection
table and the append, so a client may be shared by threads; the HTTP round
trip runs outside the lock, and threads that miss one key at once all get the
answer stored first.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from .construction import canonicalize, statement_text, statement_texts
from .errors import OracleDecodeError, OracleTransportError, score

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 0.2

_MAX_LINE = 65536
# An answer is a few hundred bytes; a body over this is a failed attempt.
_MAX_BODY = 16 * 2**20
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) (\d{3})(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
_LINE_BREAKS = (b"\r\n", b"\n")
# Unlike `json.loads`, it neither skips whitespace nor detects an encoding.
_raw_decode = json.JSONDecoder().raw_decode


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
            body = self._read(_capped(int(length)))
        else:
            body, close = self.file.read(_MAX_BODY + 1), True
            _capped(len(body))
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
        chunks, total = [], 0
        while True:
            line = self._line()
            match = _CHUNK_SIZE.fullmatch(line)
            if match is None:
                raise _BadResponse(f"bad chunk size line {line[:80]!r}")
            size = int(match[1], 16)
            if not size:
                self._headers()  # the trailer section
                return b"".join(chunks)
            total = _capped(total + size)
            chunks.append(self._read(size))
            if self._line() not in _LINE_BREAKS:
                raise _BadResponse("chunk data not followed by a line break")


def _capped(size: int) -> int:
    """``size``, the bytes a response body holds so far, if within `_MAX_BODY`."""
    if size > _MAX_BODY:
        raise _BadResponse(f"response body of at least {size} bytes, over {_MAX_BODY}")
    return size


# By request op: the answer's field, its rule, and its name in the rule's error.
_ANSWERS: dict[str, tuple[str, Callable[[object, str], object], str]] = {
    "generate_premises": ("premises", statement_texts, "oracle field 'premises'"),
    "score_statement": ("score", score, "oracle field 'score'"),
    "score_entailment": ("score", score, "oracle field 'score'"),
    "negate": ("statement", statement_text, "oracle field 'statement'"),
}


def _load_cache(path: Path) -> dict[str, object]:
    """The checked answers in a JSONL cache file by key; a torn last line is cut off."""
    data = path.read_bytes()
    cache: dict[str, object] = {}
    # `split` leaves the text after the last newline, empty or torn, last.
    for number, line in enumerate(data.split(b"\n")[:-1], 1):
        try:
            text = line.decode()
            record, stop = _raw_decode(text)
        except (ValueError, RecursionError) as exc:
            raise OracleDecodeError(f"{path}: line {number}: {exc}") from exc
        if not (stop == len(text) and isinstance(record, list) and len(record) == 2
                and isinstance(record[0], str) and isinstance(record[1], dict)):
            raise OracleDecodeError(
                f"{path}: line {number}: a line must hold one [key, object] record"
            )
        key, document = record
        try:
            field, rule, name = _ANSWERS[json.loads(key)["op"]]
        except (ValueError, RecursionError, TypeError, LookupError) as exc:
            raise OracleDecodeError(f"{path}: line {number}: the key is not a request") from exc
        try:  # a later record of a key is checked too, but not kept
            cache.setdefault(key, rule(document.get(field), name))
        except (TypeError, ValueError) as exc:
            raise OracleDecodeError(f"{path}: line {number}: {exc}") from exc
    end = data.rfind(b"\n") + 1
    if end < len(data):
        # Cut the torn line off, so that the next append starts a line.
        with open(path, "r+b") as handle:
            handle.truncate(end)
    return cache


class RemoteOracle:
    """BeliefOracle backed by an HTTP endpoint, with a persistent cache."""

    def __init__(
        self,
        endpoint: str,
        cache_path: str | Path | None = None,
        timeout: float = 30.0,
    ):
        url = urlsplit(endpoint)
        try:
            https = {"http": False, "https": True}[url.scheme]
            port = url.port
        except (KeyError, ValueError) as exc:
            raise OracleTransportError(
                f"oracle endpoint must be an http: or https: URL, got {endpoint!r}"
            ) from exc
        if "@" in url.netloc:  # `hostname` drops them, and no header would carry them
            raise OracleTransportError("oracle endpoint must not hold credentials (user@host)")
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
        self.calls = 0
        self._lock = threading.Lock()
        # One keep-alive connection per thread that has queried.
        self._connections: dict[threading.Thread, _Connection] = {}
        # Opened by the first miss that is stored, closed by `close`.
        self._cache_file = None
        self._cache: dict[str, object] = {}
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

    def _request(self, key: str, op: str):
        """The checked answer to the ``op`` request whose sorted-key JSON text is ``key``."""
        # One dict read is atomic; the lock orders the writers in `_store`.
        if (value := self._cache.get(key)) is not None:
            return value
        body = key.encode()
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_SECONDS * 2 ** (attempt - 1))
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
            field, rule, name = _ANSWERS[op]
            try:
                value = rule(document.get(field), name)
            except (TypeError, ValueError) as exc:  # a field it rejects
                raise OracleDecodeError(str(exc)) from exc
            return self._store(key, value, line)
        raise OracleTransportError(
            f"oracle at {self.endpoint} failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def _store(self, key: str, value: object, line: bytes) -> object:
        """Keep ``value`` unless another thread kept an answer first; return the one kept."""
        with self._lock:
            if key in self._cache:  # another thread answered it first
                return self._cache[key]
            if self.cache_path:
                if self._cache_file is None:
                    self._cache_file = open(self.cache_path, "ab", buffering=0)
                written = self._cache_file.write(line)
                if written != len(line):
                    # A file-size limit or a full disk cut the line short: cut
                    # it off, so that the next append starts a line.
                    self._cache_file.truncate(self._cache_file.tell() - written)
                    raise OSError(
                        f"{self.cache_path}: wrote {written} of the {len(line)} bytes of a line"
                    )
            self._cache[key] = value
            return value

    def generate_premises(self, statement: str) -> list[str]:
        key = '{"op": "generate_premises", "statement": ' + _quote(canonicalize(statement)) + "}"
        return list(self._request(key, "generate_premises"))  # a copy, not the cached list

    def score_statement(self, statement: str) -> float:
        return self._request(
            '{"op": "score_statement", "statement": ' + _quote(canonicalize(statement)) + "}",
            "score_statement",
        )

    def score_entailment(self, premises: Sequence[str], hypothesis: str) -> float:
        quoted = ", ".join([_quote(canonicalize(p)) for p in premises])
        return self._request(
            '{"hypothesis": ' + _quote(canonicalize(hypothesis))
            + ', "op": "score_entailment", "premises": [' + quoted + "]}",
            "score_entailment",
        )

    def negate(self, statement: str) -> str:
        return self._request(
            '{"op": "negate", "statement": ' + _quote(canonicalize(statement)) + "}",
            "negate",
        )
