"""Loopback stub of the oracle endpoint that `RemoteOracle` talks to.

Serves the documented wire protocol (see `beliefgraph.oracle_client`) from
a MockOracle fixture file, with no artificial delay:

    python3 perfbench/stub_server.py FIXTURE.json [--fail-ratio R]

It binds 127.0.0.1 on a free port and prints ``port <n>`` on its first
line of standard output.  ``GET /stats`` returns the number of oracle
requests served and the summed service time in milliseconds, so the
benchmark can split a miss into server time and client time.  With
``--fail-ratio R`` a fixed, hash-chosen share R of distinct requests is
answered with HTTP 500 every time, so retries cannot mask it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def _answer(oracle, request: dict) -> dict:
    op = request["op"]
    if op == "generate_premises":
        return {"premises": oracle.generate_premises(request["statement"])}
    if op == "score_statement":
        return {"score": oracle.score_statement(request["statement"])}
    if op == "score_entailment":
        return {"score": oracle.score_entailment(request["premises"], request["hypothesis"])}
    if op == "negate":
        return {"statement": oracle.negate(request["statement"])}
    raise KeyError(op)


def make_handler(oracle, fail_ratio: float):
    lock = threading.Lock()
    stats = {"requests": 0, "service_ms": 0.0}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this a delayed-ACK stall on every small response is
        # measured as oracle latency.
        disable_nagle_algorithm = True

        def _send(self, status: int, document: dict) -> None:
            body = json.dumps(document).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:
            start = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            digest = int.from_bytes(hashlib.sha256(body).digest()[:4], "big")
            if digest < fail_ratio * 2**32:
                self._send(500, {"error": "injected failure"})
            else:
                try:
                    document = _answer(oracle, json.loads(body))
                except (ValueError, KeyError, TypeError) as exc:
                    self._send(400, {"error": repr(exc)})
                else:
                    self._send(200, document)
            with lock:
                stats["requests"] += 1
                stats["service_ms"] += (time.perf_counter() - start) * 1000.0

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with lock:
                self._send(200, dict(stats))

        def log_message(self, *args) -> None:
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixture", help="MockOracle fixture JSON")
    parser.add_argument("--fail-ratio", type=float, default=0.0)
    args = parser.parse_args(argv)

    from beliefgraph.serialize import load_mock_oracle

    oracle = load_mock_oracle(args.fixture)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(oracle, args.fail_ratio))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
