"""The load generator: line-JSON requests over TCP, in a closed or an
open loop.  Responses are kept as raw lines and checked after the
timed window, so checking costs the server nothing."""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from stats import Outcome

Request = Tuple[str, Optional[str]]


def request_line(request_id: int, kind: str, text: Optional[str]) -> bytes:
    if text is None:
        payload = {"op": kind, "id": request_id}
    else:
        payload = {"op": "query", "text": text, "id": request_id}
    return (json.dumps(payload) + "\n").encode()


class Connection:
    def __init__(self, address: Tuple[str, int], timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def exchange(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.reader.readline()

    def call(self, payload: dict) -> dict:
        response = self.exchange((json.dumps(payload) + "\n").encode())
        if not response:
            raise ConnectionError("server closed the connection")
        return json.loads(response)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def sequential(connection: Connection, requests: Sequence[Request], first_id: int) -> List[Outcome]:
    """Send each request once, one at a time (untimed priming)."""
    outcomes = []
    for index, (kind, text) in enumerate(requests, first_id):
        sent = time.perf_counter()
        response = connection.exchange(request_line(index, kind, text))
        outcomes.append(Outcome(index, kind, text, sent, sent, time.perf_counter(), response))
    return outcomes


def closed_loop(
    connection: Connection,
    requests: Sequence[Request],
    first_id: int,
    seconds: float,
    enough: Callable[[List[Outcome]], bool],
    limit: float,
) -> Tuple[List[Outcome], float, List[float]]:
    """One client cycling through ``requests``: send, wait for the
    answer, send the next.  Runs for ``seconds`` and past them until
    ``enough`` holds, never past ``limit`` seconds.  Returns the
    outcomes, the window start and, per request, how late the client
    sent it: the time from the previous answer to this send."""
    outcomes: List[Outcome] = []
    late: List[float] = []
    start = previous = time.perf_counter()
    deadline, cutoff = start + seconds, start + limit
    index = 0
    while True:
        now = time.perf_counter()
        if (now >= deadline and enough(outcomes)) or now >= cutoff:
            return outcomes, start, late
        kind, text = requests[index % len(requests)]
        late.append(now - previous)
        response = connection.exchange(request_line(first_id + index, kind, text))
        previous = time.perf_counter()
        outcomes.append(Outcome(first_id + index, kind, text, now, now, previous, response))
        index += 1


def open_loop(
    connections: Sequence[Connection],
    requests: Sequence[Request],
    due: Sequence[float],
    first_id: int,
    limit: float = 60.0,
) -> Tuple[List[Outcome], float, List[float]]:
    """Seeded arrivals: request ``i`` is due ``due[i]`` seconds after the
    window starts.  Each connection carries one request at a time and
    takes the next due request when it is free, so a request that waits
    for a free connection is charged that wait.  Returns the outcomes,
    the window start and, per request, how late its sender woke (the
    generator's own scheduling error, not waiting for a connection).
    Gives up ``limit`` seconds after the last request was due."""
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    wake_late = [0.0] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.05
    errors: List[BaseException] = []

    def worker(connection: Connection) -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                kind, text = requests[index]
                due_at = start + due[index]
                picked = time.perf_counter()
                if due_at > picked:
                    time.sleep(due_at - picked)
                sent = time.perf_counter()
                wake_late[index] = sent - max(due_at, picked)
                response = connection.exchange(request_line(first_id + index, kind, text))
                outcomes[index] = Outcome(first_id + index, kind, text, due_at, sent, time.perf_counter(), response)
        except BaseException as error:  # reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in connections]
    for thread in threads:
        thread.start()
    deadline = start + due[-1] + limit
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            raise RuntimeError("the open loop did not finish in time")
    if errors:
        raise errors[0]
    return list(outcomes), start, wake_late
