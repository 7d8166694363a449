"""RemoteOracle transport and cache mechanics against loopback stubs."""

import json
import socket
import sys
import threading
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from beliefgraph import MockOracle, oracle_client
from beliefgraph.oracle_client import (
    OracleDecodeError,
    OracleTransportError,
    RemoteOracle,
)
from conftest import serving

DEAD_ENDPOINT = "http://127.0.0.1:9/"


def _score(statement: str) -> float:
    """Stub answer for "fact <n>": distinct per statement."""
    return int(statement.rsplit(" ", 1)[1]) / 1000


class _CountingServer(ThreadingHTTPServer):
    """Threaded HTTP/1.1 stub that counts the connections it accepts."""

    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.connections = 0
        self.requests = 0

    def verify_request(self, request, client_address):
        self.connections += 1
        return True


class _ScoreHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without this each response
    # waits out the client's delayed ACK.
    disable_nagle_algorithm = True
    # Statuses to answer before answering 200; consumed one per request.
    statuses: list = []
    close_after_response = False

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests += 1
        status = self.statuses.pop(0) if self.statuses else 200
        body = json.dumps({"score": _score(request["statement"])}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        # Close without announcing it, as a server timing out an idle
        # keep-alive connection does.
        self.close_connection = self.close_after_response

    def log_message(self, *args):
        pass


@contextmanager
def serve(handler=_ScoreHandler):
    server = _CountingServer(handler)
    with serving(server) as url:
        yield server, url


def _record(statement: str) -> bytes:
    """One cache line as the client writes it."""
    key = json.dumps({"op": "score_statement", "statement": statement}, sort_keys=True)
    return (json.dumps([key, {"score": _score(statement)}], separators=(",", ":"))
            + "\n").encode()


class TestCacheFile:
    def test_each_miss_appends_one_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with serve() as (_, url), closing(RemoteOracle(url, cache_path=path)) as oracle:
            before = b""
            for i in range(12):
                oracle.score_statement(f"fact {i}")
                after = path.read_bytes()
                # Earlier bytes are never rewritten; the file grows by
                # exactly this miss's line.
                assert after[: len(before)] == before
                assert after[len(before):] == _record(f"fact {i}")
                before = after
            oracle.score_statement("fact 3")  # a hit appends nothing
            assert path.read_bytes() == before
        assert len(before) == sum(len(_record(f"fact {i}")) for i in range(12))

    def test_torn_last_line_is_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        complete = _record("fact 1") + _record("fact 2")
        path.write_bytes(complete + _record("fact 3")[:-9])
        oracle = RemoteOracle(DEAD_ENDPOINT, cache_path=path, backoff=0.01)
        assert oracle.score_statement("fact 1") == 0.001
        assert oracle.score_statement("fact 2") == 0.002
        assert oracle.calls == 0
        assert path.read_bytes() == complete
        with pytest.raises(OracleTransportError):
            oracle.score_statement("fact 3")

    @pytest.mark.parametrize("bad", [b'xx{"broken', b'{"k": 1}', b'["k"]', b"",
                                     pytest.param(b"[" * 100000 + b"]" * 100000, id="deep")])
    def test_corrupt_middle_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_record("fact 1") + bad + b"\n" + _record("fact 2"))
        with pytest.raises(OracleDecodeError, match=rf"cache\.jsonl: line 2\b"):
            RemoteOracle(DEAD_ENDPOINT, cache_path=path)

    def test_single_document_cache_is_rejected_untouched(self, tmp_path):
        path = tmp_path / "oracle_cache.json"
        key = json.dumps({"op": "score_statement", "statement": "fact 1"}, sort_keys=True)
        path.write_text(json.dumps({key: {"score": 0.001}}, sort_keys=True, indent=1))
        before = path.read_bytes()
        with pytest.raises(OracleDecodeError, match="line 1"):
            RemoteOracle(DEAD_ENDPOINT, cache_path=path)
        assert path.read_bytes() == before

    def test_shared_by_threads(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        threads_n, per_thread = 8, 25
        errors = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve() as (server, url), closing(RemoteOracle(url, cache_path=path)) as oracle:

                def work(t):
                    try:
                        for i in range(per_thread):
                            oracle.score_statement(f"fact {t * per_thread + i}")
                    except Exception as exc:  # surfaced by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert server.connections <= threads_n
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        total = threads_n * per_thread
        assert oracle.calls == total
        data = path.read_bytes()
        assert data.endswith(b"\n")
        assert sorted(data.splitlines(keepends=True)) == sorted(
            _record(f"fact {i}") for i in range(total)
        )
        fresh = RemoteOracle(DEAD_ENDPOINT, cache_path=path)
        assert [fresh.score_statement(f"fact {i}") for i in range(total)] == [
            i / 1000 for i in range(total)
        ]
        assert fresh.calls == 0


class _MockScoreHandler(_ScoreHandler):
    """Scores statements through a MockOracle, as a server built on one does:
    the statement it receives is canonicalized a second time."""

    oracle = MockOracle(statement_scores={"Alpha is a mammal": 0.9})

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps({"score": self.oracle.score_statement(request["statement"])}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.mark.parametrize("text", ["Alpha is a mammal. .", "alpha is a mammal . . "])
def test_remote_agrees_with_mock_behind_it(text):
    """The client sends canonical text; canonicalizing it again on the
    server must not change which table entry it reads."""
    with serve(_MockScoreHandler) as (_, url), closing(RemoteOracle(url)) as remote:
        assert remote.score_statement(text) == _MockScoreHandler.oracle.score_statement(text)


class TestTransport:
    def test_misses_share_one_keep_alive_connection(self):
        with serve() as (server, url), closing(RemoteOracle(url)) as oracle:
            for i in range(50):
                assert oracle.score_statement(f"fact {i}") == i / 1000
            assert server.connections == 1
            assert oracle.calls == 50

    def test_idle_close_resent_without_backoff(self, monkeypatch):
        class Closing(_ScoreHandler):
            close_after_response = True

        sleeps = []
        monkeypatch.setattr(oracle_client.time, "sleep", sleeps.append)
        with serve(Closing) as (server, url), closing(RemoteOracle(url)) as oracle:
            for i in range(20):
                assert oracle.score_statement(f"fact {i}") == i / 1000
            assert server.requests == 20
        assert sleeps == []
        assert oracle.calls == 20

    def test_server_error_retried_client_error_raised(self):
        class Flaky(_ScoreHandler):
            statuses = [503, 500, 200, 404]

        with serve(Flaky) as (server, url), closing(RemoteOracle(url, backoff=0.01)) as oracle:
            assert oracle.score_statement("fact 7") == 0.007
            assert oracle.calls == 3
            with pytest.raises(OracleTransportError, match="unexpected status 404"):
                oracle.score_statement("fact 8")
            assert oracle.calls == 4
            assert server.connections == 1

    def test_non_object_root_raises_decode_error(self):
        class ListRoot(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = b"[1, 2]"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with serve(ListRoot) as (_, url), closing(RemoteOracle(url)) as oracle:
            with pytest.raises(OracleDecodeError, match="root must be an object"):
                oracle.score_statement("fact 1")

    @pytest.mark.parametrize("body", [b"[" * 100000 + b"]" * 100000,
                                      b'{"score": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
                             ids=["root", "field"])
    def test_deeply_nested_response_raises_decode_error(self, tmp_path, body):
        class Deep(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        path = tmp_path / "cache.jsonl"
        with serve(Deep) as (_, url), closing(RemoteOracle(url, cache_path=path)) as oracle:
            with pytest.raises(OracleDecodeError, match="non-JSON oracle response: maximum"):
                oracle.score_statement("fact 1")
            assert oracle.calls == 1
        assert not path.exists()

    def test_response_too_deep_to_write_back_raises_decode_error(self, tmp_path):
        """Just inside the parser's limit a response parses, yet its cache
        line, one level deeper, cannot be written: a decode error as well."""
        nesting = {}

        class Nested(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                n = nesting["n"]
                body = b'{"score": 0.5, "x": ' + b"[" * n + b"]" * n + b"}"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        path = tmp_path / "cache.jsonl"
        answered, errors = [], []
        limit = sys.getrecursionlimit()
        with serve(Nested) as (_, url), closing(RemoteOracle(url, cache_path=path)) as oracle:
            for n in range(limit - 200, limit):
                nesting["n"] = n
                try:
                    oracle.score_statement(f"fact {n}")
                    answered.append(n)
                except OracleDecodeError as exc:
                    errors.append(str(exc))
                    if "while decoding" in str(exc):
                        break
        assert answered and answered == list(range(limit - 200, answered[-1] + 1))
        assert "while encoding" in errors[0] and "while decoding" in errors[-1]
        assert len(path.read_bytes().splitlines()) == len(answered)

    @pytest.mark.parametrize(
        "query, document",
        [
            ("negate", {"statement": None}),
            ("negate", {"statement": 5}),
            ("generate_premises", {"premises": "ab"}),
            ("generate_premises", {"premises": {"x": 1}}),
            ("generate_premises", {"premises": ["a", 5]}),
            ("score_statement", {"score": "0.9"}),
            ("score_statement", {"score": True}),
            ("score_statement", {}),
            ("score_entailment", {"score": "0.9"}),
            ("score_statement", {"score": 10**400}),
            ("score_entailment", {"score": 10**400}),
        ],
    )
    def test_mistyped_field_raises_decode_error(self, query, document):
        class Fixed(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = json.dumps(document).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with serve(Fixed) as (_, url), closing(RemoteOracle(url)) as oracle:
            ask = getattr(oracle, query)
            with pytest.raises(OracleDecodeError):
                ask(["fact 1"], "fact 2") if query == "score_entailment" else ask("fact 1")

    def test_timeout_applies_to_reads(self):
        # The kernel completes the handshake on a listening socket, but
        # nothing ever answers.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            oracle = RemoteOracle(
                f"http://127.0.0.1:{listener.getsockname()[1]}/", timeout=0.2, backoff=0.01
            )
            with pytest.raises(OracleTransportError, match="timed out"):
                oracle.score_statement("fact 1")
            assert oracle.calls == oracle_client.MAX_ATTEMPTS

    def test_scheme(self):
        with pytest.raises(OracleTransportError, match="http: or https:"):
            RemoteOracle("ftp://127.0.0.1/")
        # https: speaks TLS, which a plain-HTTP server cannot answer.
        with serving(HTTPServer(("127.0.0.1", 0), _ScoreHandler)) as url:
            oracle = RemoteOracle(url.replace("http:", "https:", 1), timeout=5, backoff=0.01)
            with pytest.raises(OracleTransportError):
                oracle.score_statement("fact 1")


@contextmanager
def serve_raw(reply, close=False):
    """Loopback server that answers each request with ``reply(body)`` verbatim.

    Yields a dict holding the connection count, each raw request, and the
    URL; with ``close`` the server closes the connection after each reply.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    seen = {"connections": 0, "requests": [],
            "url": f"http://127.0.0.1:{listener.getsockname()[1]}/"}
    stop = threading.Event()

    def handle(conn):
        try:
            with conn, conn.makefile("rb") as file:
                while True:
                    head = [file.readline()]
                    while head[-1] not in (b"\r\n", b""):
                        head.append(file.readline())
                    if not head[-1]:
                        return
                    length = next(int(h.split(b":")[1]) for h in head
                                  if h.lower().startswith(b"content-length:"))
                    body = file.read(length)
                    seen["requests"].append(b"".join(head) + body)
                    conn.sendall(reply(body))
                    if close:
                        return
        except OSError:  # the client gave up on a bad reply
            pass

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            seen["connections"] += 1
            threading.Thread(target=handle, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        yield seen
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
        assert not thread.is_alive()


def _answer(body: bytes) -> bytes:
    return json.dumps({"score": _score(json.loads(body)["statement"])}).encode()


def _sized(status_line: bytes, headers: bytes = b""):
    """Reply builder: ``status_line``, ``headers`` and a Content-Length body."""
    return lambda body: (status_line + headers + b"Content-Length: %d\r\n\r\n"
                         % len(_answer(body)) + _answer(body))


def _chunked(body: bytes) -> bytes:
    answer = _answer(body)
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"3\r\n" + answer[:3] + b"\r\n"
            + b"%x;name=value\r\n" % (len(answer) - 3) + answer[3:] + b"\r\n"
            + b"0\r\nX-Trailer: 1\r\n\r\n")


class TestFraming:
    @pytest.mark.parametrize(
        "reply, close, connections",
        [
            (_chunked, False, 1),
            (_sized(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"), False, 1),
            (_sized(b"HTTP/1.0 200 OK\r\n", b"Connection: Keep-Alive\r\n"), False, 1),
            (_sized(b"HTTP/1.1 200 OK\r\n", b"X-A: 1\r\nconnection: CLOSE\r\n"), False, 2),
            (lambda body: b"HTTP/1.0 200 OK\r\n\r\n" + _answer(body), True, 2),
        ],
        ids=["chunked", "interim-1xx", "http-1.0-keep-alive", "connection-close",
             "http-1.0-close-delimited"],
    )
    def test_response_framing(self, monkeypatch, reply, close, connections):
        sleeps = []
        monkeypatch.setattr(oracle_client.time, "sleep", sleeps.append)
        with serve_raw(reply, close) as seen, closing(RemoteOracle(seen["url"])) as oracle:
            assert oracle.score_statement("fact 1") == 0.001
            assert oracle.score_statement("fact 2") == 0.002
            # A closing response ends the connection at once, so the next
            # query reconnects rather than failing and being re-sent.
            assert seen["connections"] == connections
            assert len(seen["requests"]) == 2
        assert oracle.calls == 2
        assert sleeps == []

    @pytest.mark.parametrize(
        "reply, message",
        [
            (lambda body: b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + _answer(body),
             "truncated after"),
            (_sized(b"HTTP/1.1 200 OK\r\n", b"X-Big: " + b"a" * 70000 + b"\r\n"),
             "longer than 65536"),
            (_sized(b"HTTP/1.1 200 OK\r\n", b"X-Many: 1\r\n" * 101), "more than 100 header"),
            (_sized(b"HTTP/2 200\r\n"), "bad status line"),
            (lambda body: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n",
             "bad chunk size"),
        ],
        ids=["truncated-body", "long-header-line", "too-many-headers", "bad-status-line",
             "bad-chunk-size"],
    )
    def test_malformed_response_is_a_failed_attempt(self, reply, message):
        with serve_raw(reply, close=True) as seen:
            with closing(RemoteOracle(seen["url"], backoff=0.01)) as oracle:
                with pytest.raises(OracleTransportError, match=message):
                    oracle.score_statement("fact 1")
        assert oracle.calls == oracle_client.MAX_ATTEMPTS
        assert seen["connections"] == oracle_client.MAX_ATTEMPTS

    def test_request_carries_its_headers(self):
        with serve_raw(_sized(b"HTTP/1.1 200 OK\r\n")) as seen:
            url = seen["url"] + "ask?model=m1"
            with closing(RemoteOracle(url)) as oracle:
                oracle.score_statement("Fact 1.")
        host = url.split("/")[2].encode()  # 127.0.0.1:<port>
        body = json.dumps({"op": "score_statement", "statement": "fact 1"}).encode()
        assert seen["requests"] == [
            b"POST /ask?model=m1 HTTP/1.1\r\n"
            b"Host: " + host + b"\r\n"
            b"Content-Type: application/json\r\n"
            b"Accept-Encoding: identity\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        ]

    @pytest.mark.parametrize(
        "endpoint, host",
        [
            ("http://[::1]:8080/", b"[::1]:8080"),
            ("https://Example.org/v1", b"example.org"),
            ("http://bücher.example:81/", b"xn--bcher-kva.example:81"),
        ],
    )
    def test_host_field(self, endpoint, host):
        assert b"\r\nHost: " + host + b"\r\n" in RemoteOracle(endpoint)._head

    @pytest.mark.parametrize(
        "endpoint",
        [
            "http://127.0.0.1:9/a b",
            "http://127.0.0.1:9/a\tb",
            "http://127.0.0.1:9/a\r\nX-Injected: 1",
            "http://127.0.0.1:9/?q=a b",
            "http://127.0.0.1:9/\x7f",
            "http://127.0.0.1:9/ ",
            "http://127.0.0.1:9/é",
        ],
    )
    def test_bad_endpoint_rejected_up_front(self, endpoint):
        with pytest.raises(OracleTransportError, match="oracle endpoint"):
            RemoteOracle(endpoint)


class _CountingSocket:
    """A socket that counts the writes made on it."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(data)
        return self.sock.sendall(data)

    def send(self, data):  # pragma: no cover - a second kind of write fails the test
        self.writes.append(data)
        return self.sock.send(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


@pytest.fixture
def sockets(monkeypatch):
    """Every socket the client opens, each wrapped to count its writes."""
    opened = []
    connect = socket.create_connection

    def create_connection(*args, **kwargs):
        opened.append(_CountingSocket(connect(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(oracle_client.socket, "create_connection", create_connection)
    return opened


class TestConnectionLifetime:
    def test_one_write_per_request(self, sockets):
        with serve() as (server, url), closing(RemoteOracle(url)) as oracle:
            for i in range(10):
                oracle.score_statement(f"fact {i}")
            oracle.score_statement("fact 3")  # a hit writes nothing
        assert len(sockets) == 1
        assert len(sockets[0].writes) == 10
        assert all(w.startswith(b"POST / HTTP/1.1\r\n") for w in sockets[0].writes)

    def test_with_block_closes_sockets_and_cache_file(self, tmp_path, sockets):
        with serve() as (_, url):
            with RemoteOracle(url, cache_path=tmp_path / "cache.jsonl") as oracle:
                oracle.score_statement("fact 1")
                handle = oracle._cache_file
                assert [s.fileno() for s in sockets] != [-1] and not handle.closed
            assert handle.closed
            assert [s.fileno() for s in sockets] == [-1]

    def test_close_releases_sockets_and_cache_file(self, tmp_path, sockets):
        path = tmp_path / "cache.jsonl"
        with serve() as (server, url):
            oracle = RemoteOracle(url, cache_path=path)
            threads = [
                threading.Thread(target=oracle.score_statement, args=(f"fact {i}",))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            handle = oracle._cache_file
            assert len(sockets) == 3 and not handle.closed
            oracle.close()
            assert handle.closed
            assert [s.fileno() for s in sockets] == [-1, -1, -1]
            # A later miss reconnects and reopens the file.
            oracle.score_statement("fact 4")
            oracle.close()
            assert server.connections == 4
        assert path.read_bytes().endswith(_record("fact 4"))
        assert len(path.read_bytes().splitlines()) == 4
