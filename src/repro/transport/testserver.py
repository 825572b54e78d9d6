"""A deterministic hostile HTTP server for transport testing.

Real networks fail in ways unit mocks don't reproduce — half-written
responses, RST mid-body, headers that lie about the charset, 429
storms. :class:`HostileHttpServer` brings those behaviors onto a
loopback socket under *script* control: each path owns an ordered
sequence of :class:`FaultStep`\\ s, the N-th request to that path gets
the N-th step, and the last step repeats forever.

Per-path scripting is the determinism trick: what a URL experiences
depends only on how many times *that URL* was requested, never on
global request order — so concurrent fetches, retries, and resumed
crawls all see the same fault ladder per URL, and a crawl over the
harness is digest-reproducible.

Step kinds (constructors below):

* ``ok`` — a well-formed 200.
* ``status`` — any status, optionally with ``Retry-After`` (429/503
  throttle storms).
* ``redirect`` — 3xx with ``Location`` (chains/loops).
* ``truncate`` — Content-Length larger than the body, clean close
  (client sees a short body).
* ``reset`` — SO_LINGER-0 close: an RST instead of a FIN, before any
  response byte (client sees a dead connection).
* ``slow`` — slow-loris: headers, a byte or two, then a stall longer
  than any sane read timeout.
* ``wrong_charset`` — the header declares one charset, the bytes are
  another (exercises the counted replacement-decode fallback).
* ``garbage`` — undecodable binary noise with an HTML content type.

:class:`HostilePair` builds the canonical two-site fixture used by the
integration tests and the CI ``transport-smoke`` job: one *healthy*
site that recovers from scripted transient faults, cross-linked to one
*doomed* site that never answers and must trip its circuit breaker.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional, Sequence

from repro.seeding import namespaced_rng

HTML_TYPE = "text/html; charset=utf-8"


@dataclass(frozen=True)
class FaultStep:
    """One scripted server behavior for one request."""

    kind: str
    status: int = 200
    body: bytes = b""
    content_type: str = HTML_TYPE
    headers: tuple[tuple[str, str], ...] = ()
    #: ``slow``: seconds to stall mid-body.
    delay_s: float = 0.0
    #: ``truncate``: bytes promised beyond what is sent.
    missing: int = 0


def ok(html: str, content_type: str = HTML_TYPE) -> FaultStep:
    return FaultStep("ok", body=html.encode("utf-8"), content_type=content_type)


def status(
    code: int, body: str = "", retry_after: Optional[str] = None
) -> FaultStep:
    headers = (("Retry-After", retry_after),) if retry_after is not None else ()
    return FaultStep(
        "status", status=code, body=body.encode("utf-8"), headers=headers
    )


def throttle(retry_after: Optional[str] = "1") -> FaultStep:
    """One shot of a 429 storm."""
    return status(429, "slow down", retry_after=retry_after)


def redirect(location: str, code: int = 302) -> FaultStep:
    return FaultStep("redirect", status=code, headers=(("Location", location),))


def truncate(html: str, missing: int = 64) -> FaultStep:
    return FaultStep("truncate", body=html.encode("utf-8"), missing=missing)


def reset() -> FaultStep:
    return FaultStep("reset")


def slow(html: str = "<html>never arrives</html>", delay_s: float = 60.0) -> FaultStep:
    return FaultStep("slow", body=html.encode("utf-8"), delay_s=delay_s)


def wrong_charset(text: str, declared: str = "utf-8", actual: str = "latin-1") -> FaultStep:
    """Bytes in ``actual``, header claiming ``declared``."""
    return FaultStep(
        "wrong_charset",
        body=text.encode(actual),
        content_type=f"text/html; charset={declared}",
    )


def garbage() -> FaultStep:
    return FaultStep("garbage", body=b"\xff\xfe\xfa\x01\x02\x80\x81\xff" * 8)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "HostileHTTP/1.0"
    # Headers and body go out as two writes; with Nagle on, every
    # keep-alive response would wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:  # noqa: D102 - silence stderr
        pass

    def _send_body(self, step: FaultStep, length: Optional[int] = None) -> None:
        self.send_response(step.status)
        self.send_header("Content-Type", step.content_type)
        self.send_header(
            "Content-Length", str(length if length is not None else len(step.body))
        )
        for name, value in step.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(step.body)
        self.wfile.flush()

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        harness: "HostileHttpServer" = self.server.harness  # type: ignore[attr-defined]
        step = harness._next_step(self.path)
        try:
            if step is None:
                missing = FaultStep("status", status=404, body=b"not found")
                self._send_body(missing)
            elif step.kind in ("ok", "status", "wrong_charset", "garbage"):
                self._send_body(step)
            elif step.kind == "redirect":
                self._send_body(step, length=0)
            elif step.kind == "truncate":
                # Promise more than is delivered, then close cleanly.
                self._send_body(step, length=len(step.body) + step.missing)
                self.close_connection = True
            elif step.kind == "reset":
                # SO_LINGER 0 turns close() into an RST — the client
                # sees ECONNRESET with no response bytes at all.
                self.connection.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                self.close_connection = True
            elif step.kind == "slow":
                # Slow-loris: real headers, two bytes of body, then a
                # stall far past any client read timeout.
                self.send_response(step.status)
                self.send_header("Content-Type", step.content_type)
                self.send_header("Content-Length", str(len(step.body)))
                self.end_headers()
                self.wfile.write(step.body[:2])
                self.wfile.flush()
                deadline = time.monotonic() + step.delay_s
                while time.monotonic() < deadline:
                    if harness._closing.is_set():
                        break
                    time.sleep(0.05)
                self.wfile.write(step.body[2:])
                self.close_connection = True
            else:  # pragma: no cover - scripts are built by this module
                raise ValueError(f"unknown fault step kind {step.kind!r}")
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up first (its timeout fired) — expected
            # for slow/reset scripts.
            self.close_connection = True


class HostileHttpServer:
    """One scripted server on a loopback port.

    ``script`` maps paths to fault-step sequences; requests to a path
    walk its sequence, the last step repeating. Unknown paths answer
    404 (which is how a site without a ``/robots.txt`` script exercises
    the allow-all robots path). Usable as a context manager.
    """

    def __init__(
        self,
        script: Optional[Mapping[str, Sequence[FaultStep]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._script: dict[str, tuple[FaultStep, ...]] = {}
        self._positions: dict[str, int] = {}
        self._lock = threading.Lock()
        self._closing = threading.Event()
        #: Requests served per path (script accounting for tests).
        self.requests: dict[str, int] = {}
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.harness = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self.root = f"http://{self.host}:{self.port}"
        self._thread: Optional[threading.Thread] = None
        if script:
            self.set_script(script)

    def set_script(self, script: Mapping[str, Sequence[FaultStep]]) -> None:
        with self._lock:
            self._script = {
                path: tuple(steps) for path, steps in script.items()
            }

    def url(self, path: str) -> str:
        return f"{self.root}{path}"

    def reset_positions(self) -> None:
        """Rewind every path's script to step 0 (and zero the request
        counters) — lets one server instance serve several comparison
        crawls on the same port, which digest equality requires (URLs
        embed the port)."""
        with self._lock:
            self._positions.clear()
            self.requests.clear()

    def _next_step(self, path: str) -> Optional[FaultStep]:
        path = path.split("?", 1)[0]
        with self._lock:
            self.requests[path] = self.requests.get(path, 0) + 1
            steps = self._script.get(path)
            if not steps:
                return None
            index = self._positions.get(path, 0)
            self._positions[path] = index + 1
            return steps[min(index, len(steps) - 1)]

    def start(self) -> "HostileHttpServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"hostile-http-{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "HostileHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _page(title: str, body: str, links: Sequence[str] = ()) -> str:
    anchors = "".join(f'<li><a href="{href}">{href}</a></li>' for href in links)
    return (
        "<html><head><title>{t}</title></head><body><h1>{t}</h1>"
        "<p>{b}</p><ul>{a}</ul></body></html>"
    ).format(t=title, b=body, a=anchors)


def healthy_script(doomed_root: str, seed: Optional[int] = None) -> dict:
    """The *healthy* site of the pair: a small deterministic link tree
    whose scripted faults are all transient (each path recovers on a
    retry), plus one robots-disallowed subtree, one mojibake page, and
    cross-links into the doomed site.

    The seeded rng only permutes which interior pages carry the
    transient faults — the page set and link graph are fixed, so every
    seed yields the same crawl *shape* with different fault placement.
    """
    rng = namespaced_rng("testserver:healthy", seed)
    interior = [f"/p/{i}" for i in range(1, 7)]
    faulted = rng.sample(interior, 3)
    script: dict = {
        "/robots.txt": [
            ok("User-agent: *\nDisallow: /private/\n", content_type="text/plain")
        ],
        "/": [
            ok(
                _page(
                    "home",
                    "hostile-harness healthy site",
                    links=[
                        "/p/1",
                        "/p/2",
                        "/private/secret",
                        "/mojibake",
                        f"{doomed_root}/x",
                        f"{doomed_root}/y",
                    ],
                )
            )
        ],
        "/p/1": [ok(_page("p1", "interior 1", links=["/p/3", "/p/4"]))],
        "/p/2": [ok(_page("p2", "interior 2", links=["/p/5", "/p/6"]))],
        "/p/3": [ok(_page("p3", "leaf 3"))],
        "/p/4": [ok(_page("p4", "leaf 4"))],
        "/p/5": [ok(_page("p5", "leaf 5"))],
        "/p/6": [ok(_page("p6", "leaf 6"))],
        "/private/secret": [ok(_page("secret", "robots must hide me"))],
        "/mojibake": [
            wrong_charset(
                "<html><body><p>café crème, déjà vu</p></body></html>",
                declared="utf-8",
                actual="latin-1",
            )
        ],
    }
    # Prepend one transient fault to three interior pages: a 500, a
    # Retry-After'd 429, and a truncated body — each recovers on the
    # next attempt, so retries (not the crawl) absorb them.
    transients = [
        status(500, "flaky"),
        throttle(retry_after="1"),
        truncate(_page("torn", "first answer is torn"), missing=128),
    ]
    for path, fault in zip(faulted, transients):
        script[path] = [fault, *script[path]]
    return script


def doomed_script() -> dict:
    """The *doomed* site: every path fails forever (reset or 503
    storm), so its circuit breaker must trip and stay quarantined."""
    return {
        "/x": [reset()],
        "/y": [status(503, "down for good", retry_after="2")],
    }


class HostilePair:
    """The two-site fixture: healthy + doomed, cross-linked.

    >>> with HostilePair(seed=7) as pair:  # doctest: +ELLIPSIS
    ...     pair.seeds
    ('http://127.0.0.1:.../',)
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        healthy_port: int = 0,
        doomed_port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.healthy = HostileHttpServer(host=host, port=healthy_port)
        self.doomed = HostileHttpServer(host=host, port=doomed_port)
        self.healthy.set_script(healthy_script(self.doomed.root, seed=seed))
        self.doomed.set_script(doomed_script())
        #: Seed the crawl at the healthy root; the doomed site is
        #: reached through cross-links, like any discovered dead host.
        self.seeds = (f"{self.healthy.root}/",)

    @property
    def doomed_site(self) -> str:
        """The netloc the crawl report should list as quarantined."""
        return f"{self.doomed.host}:{self.doomed.port}"

    def start(self) -> "HostilePair":
        self.healthy.start()
        self.doomed.start()
        return self

    def stop(self) -> None:
        self.healthy.stop()
        self.doomed.stop()

    def reset_positions(self) -> None:
        self.healthy.reset_positions()
        self.doomed.reset_positions()

    def __enter__(self) -> "HostilePair":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "HTML_TYPE",
    "FaultStep",
    "HostileHttpServer",
    "HostilePair",
    "doomed_script",
    "garbage",
    "healthy_script",
    "ok",
    "redirect",
    "reset",
    "slow",
    "status",
    "throttle",
    "truncate",
    "wrong_charset",
]
