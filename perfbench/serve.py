"""The serving probe of the ``ingest`` traced run: ``repro serve``
under a fixed request mix.

After the ingest passes, the traced run serves the checkpoint the last
pass wrote: ``python -m repro serve --from-checkpoint ck.npz --store DIR
--port 0 --quiet`` in its own process, with this process as the client
on at most two connections (one thread each; the server closes every
connection after one response).

Request mix, by global request index ``i``:

* routes go round-robin over the six servable routes;
* every fourth round of six carries ``If-None-Match`` with the
  artefact's ETag, so one request in four is answered 304 without
  touching the store;
* before every ``INVALIDATE_EVERY``-th request the client calls
  ``ResultStore(DIR).invalidate(analysis=...)`` (analyses in turn), so
  the next unconditional GET of that artefact misses, re-renders and
  writes.

The probe runs the mix as an open loop at ``OPEN_LOOP_RATE`` requests
per second for ``OPEN_LOOP_S``, each request timed from when it was
due, with how late the generator sent it recorded too. A second server,
bounded by ``--max-requests``, then answers one traced block of the mix
on one connection and writes its ``RunMetrics``, and the store calls are
timed in this process against a copy of the store.
"""

from __future__ import annotations

import http.client
import json
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from common import (
    Checks,
    artefact_digest,
    child_env,
    median,
    percentile,
)

ROUTE_ANALYSES = ("fig1", "fig2", "fig3", "table1", "headlines", "readout")
INVALIDATE_EVERY = 48
CONDITIONAL_EVERY = 4
CONNECTIONS = 2
#: Open-loop rate (requests/s). A closed loop on two connections served
#: 290-350 req/s on a 2-CPU VM, and one connection alone about 170; at
#: 150 req/s a short stall of one connection left a backlog that lasted
#: the whole phase, so the rate keeps a margin over one connection's
#: capacity.
OPEN_LOOP_RATE = 100.0
OPEN_LOOP_S = 4.0
#: Requests in the bounded server's traced sequential block.
SEQUENTIAL_BLOCK = 240
STORE_PROBE_ROUNDS = 5
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0


def route_path(analysis: str, study_id: str) -> str:
    if analysis.startswith("fig"):
        return f"/figures/{analysis}"
    if analysis == "table1":
        return "/tables/table1"
    if analysis == "headlines":
        return "/headlines"
    return f"/readouts/{study_id}"


class Server:
    """One ``repro serve`` process and where it listens."""

    def __init__(self, workdir: Path, store: Path, extra=()) -> None:
        self.log = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--from-checkpoint", str(workdir / "ck.npz"),
                "--store", str(store),
                "--port", "0",
                "--quiet",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(workdir),
            cwd=str(workdir),
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        # "serving study <id> on http://<host>:<port> (store: <dir>)"
        parts = line.split()
        if len(parts) < 5 or parts[:2] != ["serving", "study"]:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.study_id = parts[2]
        address = parts[4].rsplit("/", 1)[-1]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def wait(self, timeout: float) -> int:
        return self.proc.wait(timeout=timeout)

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _span(tracer, name: str):
    """A span when tracing, otherwise nothing at all."""
    return tracer.span(name) if tracer is not None else nullcontext()


def http_get(host: str, port: int, path: str, etag=None):
    """One GET on a fresh connection: (status, etag, body)."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path, headers={"If-None-Match": etag} if etag else {})
        response = conn.getresponse()
        body = response.read()
        return response.status, response.getheader("ETag"), body
    finally:
        conn.close()


class Mix:
    """The request mix and its schedule, shared by every phase."""

    def __init__(self, server: Server, store_dir: Path, etags: dict) -> None:
        from repro.store import ResultStore

        self.server = server
        self.etags = etags
        self.store = ResultStore(store_dir)
        self.paths = {a: route_path(a, server.study_id) for a in ROUTE_ANALYSES}
        self.next_index = 0
        self.lock = threading.Lock()
        self.records = []
        self.bodies = {a: set() for a in ROUTE_ANALYSES}
        self.seen_etags = {a: set() for a in ROUTE_ANALYSES}

    def claim(self) -> int:
        with self.lock:
            index = self.next_index
            self.next_index += 1
            return index

    def request(self, index: int, phase: str, due: float, tracer=None) -> dict:
        """Send request ``index`` of the mix and record its outcome."""
        analysis = ROUTE_ANALYSES[index % len(ROUTE_ANALYSES)]
        conditional = (index // len(ROUTE_ANALYSES)) % CONDITIONAL_EVERY == (
            CONDITIONAL_EVERY - 1
        )
        if index % INVALIDATE_EVERY == INVALIDATE_EVERY - 1:
            doomed = ROUTE_ANALYSES[(index // INVALIDATE_EVERY) % len(ROUTE_ANALYSES)]
            with _span(tracer, "repro.store:invalidate"):
                self.store.invalidate(analysis=doomed)
        start = time.perf_counter()
        status = etag = body = None
        error = None
        try:
            with _span(tracer, f"repro.store.server:GET {analysis}"):
                status, etag, body = http_get(
                    self.server.host, self.server.port, self.paths[analysis],
                    self.etags[analysis] if conditional else None,
                )
        except (OSError, http.client.HTTPException) as exc:
            error = repr(exc)
        end = time.perf_counter()
        ok = error is None and status == (304 if conditional else 200)
        if status == 200:
            self.bodies[analysis].add(body)
        if etag is not None:
            self.seen_etags[analysis].add(etag)
        record = {
            "phase": phase,
            "analysis": analysis,
            "conditional": conditional,
            "status": status,
            "ok": ok,
            "error": error,
            "due": due,
            "start": start,
            "end": end,
        }
        with self.lock:
            self.records.append(record)
        return record


def open_loop(mix: Mix, seconds: float, rate: float, tag: str) -> None:
    """Request j is due at ``start + j / rate``, whether or not earlier
    requests have finished."""
    start = time.perf_counter() + 0.05
    stop_at = start + seconds
    counter = {"j": 0}
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                j = counter["j"]
                counter["j"] += 1
            due = start + j / rate
            if due >= stop_at:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            mix.request(mix.claim(), tag, due)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop_numbers(records) -> dict:
    """Latency from the due time, by status and overall, and lateness."""
    latency = [(r["end"] - r["due"]) * 1e3 for r in records]
    late = [max(0.0, r["start"] - r["due"]) * 1e3 for r in records]
    by_status = {
        code: [(r["end"] - r["due"]) * 1e3 for r in records if r["status"] == code]
        for code in (200, 304)
    }
    return {
        "serve.p50_200_ms": percentile(by_status[200], 50) if by_status[200] else 0.0,
        "serve.p50_304_ms": percentile(by_status[304], 50) if by_status[304] else 0.0,
        "serve.p95_ms": percentile(latency, 95),
        "serve.p99_ms": percentile(latency, 99),
        "serve.late_ms": percentile(late, 95),
    }


def start_and_warm(ctx, store: Path):
    """Server start -> first 200 -> every route rendered once."""
    server = Server(ctx.workdir, store)
    try:
        status, _, _ = http_get(server.host, server.port, "/")
        if status != 200:
            raise RuntimeError(f"GET / answered {status}")
        etags = {}
        for analysis in ROUTE_ANALYSES:
            status, etag, _ = http_get(
                server.host, server.port, route_path(analysis, server.study_id)
            )
            if status != 200:
                raise RuntimeError(f"warm-up GET {analysis} answered {status}")
            etags[analysis] = etag
    except BaseException:
        server.stop()
        raise
    return server, etags


def probe(ctx, checks: Checks):
    """Serve the checkpoint in ``ctx.workdir`` and measure the store and
    the server; every response is checked into ``checks``.

    Returns the per-layer numbers, the requests made and the served
    artefacts' digests.
    """
    store = ctx.workdir / "store"
    server, etags = start_and_warm(ctx, store)
    try:
        mix = Mix(server, store, etags)
        open_loop(mix, OPEN_LOOP_S, OPEN_LOOP_RATE, "open")
    finally:
        server.stop()
    numbers, sequential = server_and_store(ctx, store, mix)
    numbers.update(open_loop_numbers(mix.records))
    mixes = [mix, sequential]
    digests = check(ctx, mixes, checks)
    return numbers, [r for m in mixes for r in m.records], digests


def check(ctx, mixes, checks: Checks) -> dict:
    """Every 200 body and every ETag against the checkpoint's own."""
    from repro.core.readout import readout_from_checkpoint
    from repro.store import render_analysis, store_key_for

    readout = readout_from_checkpoint(ctx.workdir / "ck.npz")
    digests = {}
    for analysis in ROUTE_ANALYSES:
        want = render_analysis(analysis, readout)
        bodies = set().union(*(m.bodies[analysis] for m in mixes))
        seen_etags = set().union(*(m.seen_etags[analysis] for m in mixes))
        checks.check(f"serve.{analysis} answered 200", bool(bodies))
        for body in bodies:
            checks.same_text(
                f"serve.{analysis} body == render_analysis",
                body.decode("utf-8", errors="replace"),
                want,
            )
        etag = store_key_for(readout, analysis).etag()
        checks.check(
            f"serve.{analysis} ETag == store_key_for().etag()",
            seen_etags == {etag},
            f"saw {sorted(seen_etags)}, want {etag}",
        )
        digests[f"served.{analysis}"] = artefact_digest(analysis, want)
    return digests


def server_and_store(ctx, store: Path, mix: Mix):
    """Server-side and store-side numbers.

    A second server, bounded by ``--max-requests``, answers one traced
    sequential block of the mix and writes its ``RunMetrics``; the store
    calls are then timed in this process against a copy of the store.
    Returns the numbers and the block's :class:`Mix`, whose responses
    are checked like the rest.
    """
    from repro.core.readout import readout_from_checkpoint
    from repro.store import ResultStore, render_analysis, store_key_for

    metrics_path = ctx.workdir / "serve_metrics.json"
    server = Server(
        ctx.workdir,
        store,
        ("--max-requests", str(SEQUENTIAL_BLOCK), "--metrics-json", str(metrics_path)),
    )
    try:
        seq = Mix(server, store, mix.etags)
        seq.next_index = mix.next_index
        with ctx.tracer.span("serve"):
            for _ in range(SEQUENTIAL_BLOCK):
                seq.request(seq.claim(), "seq", time.perf_counter(), ctx.tracer)
        server.wait(timeout=30)
    finally:
        server.stop()
    server_metrics = json.loads(metrics_path.read_text())
    stages = server_metrics["stages"]
    counters = server_metrics["counters"]
    requests = counters["serve.requests"]
    hits = counters.get("store.hits", 0)
    misses = counters.get("store.misses", 0)

    copy = ctx.workdir / "store_copy"
    shutil.copytree(store, copy)
    probe_store = ResultStore(copy)
    readout = readout_from_checkpoint(ctx.workdir / "ck.npz")
    keys = {a: store_key_for(readout, a) for a in ROUTE_ANALYSES}
    render = {a: (lambda a=a: render_analysis(a, readout).encode("utf-8")) for a in ROUTE_ANALYSES}
    get_ms, invalidate_ms, miss_ms = [], [], []
    tracer = ctx.tracer
    with tracer.span("store_probe"):
        for analysis in ROUTE_ANALYSES:
            probe_store.get_or_render(keys[analysis], render[analysis])
        for _ in range(STORE_PROBE_ROUNDS):
            for analysis in ROUTE_ANALYSES:
                started = time.perf_counter()
                with tracer.span("repro.store:get"):
                    found = probe_store.get(keys[analysis])
                get_ms.append((time.perf_counter() - started) * 1e3)
                if found is None:
                    raise RuntimeError(f"store probe missed warm {analysis}")
            for analysis in ROUTE_ANALYSES:
                started = time.perf_counter()
                with tracer.span("repro.store:invalidate"):
                    probe_store.invalidate(analysis=analysis)
                invalidate_ms.append((time.perf_counter() - started) * 1e3)
                started = time.perf_counter()
                with tracer.span("repro.store:get_or_render"):
                    probe_store.get_or_render(keys[analysis], render[analysis])
                miss_ms.append((time.perf_counter() - started) * 1e3)
    return {
        "store.get_hit_ms": median(get_ms),
        "store.miss_render_put_ms": median(miss_ms),
        "store.invalidate_ms": median(invalidate_ms),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.request_ms": stages["serve.request"]["seconds"] / requests * 1e3,
        "serve.requests": requests,
        "serve.not_modified_share": counters.get("serve.not_modified", 0) / requests,
    }, seq
