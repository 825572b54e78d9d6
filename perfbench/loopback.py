"""A loopback HTTP server that serves one simulated web at a time.

The crawl workload needs real sockets between ``HttpFetcher`` and the
pages, but the server's own cost must stay out of the measurement as
far as an in-process server allows. So every response is rendered to
bytes before the op starts, and each one leaves in a single
``sendall`` with ``TCP_NODELAY`` set: a response split into a header
write and a body write, with Nagle on, waits ~40 ms per request for
the client's delayed ACK on a keep-alive connection.

Links in the simulated pages point at ``web{seed}.example.org``; the
server rewrites that origin to its own ``127.0.0.1:{port}`` when it
renders, and :func:`canonical_corpus` rewrites it back, so a corpus
digest does not depend on which port the server was given.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: A keep-alive connection idle this long is closed by the server,
    #: so no handler thread can wait forever on a client that vanished.
    timeout = 10

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        response = self.server.responses.get(self.path)
        if response is None:
            response = _NOT_FOUND
        self.wfile.write(response)


def _response(status: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: text/html; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


_NOT_FOUND = _response("404 Not Found", b"<html><body>no such page</body></html>")


class _Server(ThreadingHTTPServer):
    # Handler threads are joined by server_close(), so none outlives
    # the server.
    daemon_threads = False
    block_on_close = True


class LoopbackWeb:
    """Serve a :class:`~repro.discovery.web.SimulatedWeb` on 127.0.0.1."""

    def __init__(self) -> None:
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.responses = {}
        self.port = self._server.server_address[1]
        self.origin = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="perfbench-loopback",
            kwargs={"poll_interval": 0.05},
        )
        self._thread.start()

    def serve(self, web) -> str:
        """Render every page of ``web`` and serve it; returns the seed URL."""
        simulated = _simulated_origin(web)
        responses = {}
        for index in range(len(web)):
            html = web.fetch(web.url(index)).replace(simulated, self.origin)
            responses[f"/page/{index}"] = _response("200 OK", html.encode("utf-8"))
        self._server.responses = responses
        return f"{self.origin}/page/0"

    def canonical_corpus(self, web, pages) -> list[tuple[str, int, str]]:
        """The crawl corpus with this server's origin mapped back to the
        simulated one, as ``corpus_digest`` takes it."""
        simulated = _simulated_origin(web)
        return [
            (
                page.url.replace(self.origin, simulated),
                page.depth,
                page.html.replace(self.origin, simulated),
            )
            for page in pages
        ]

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()


def _simulated_origin(web) -> str:
    return web.url(0).rsplit("/page/", 1)[0]
