"""Loopback chat-completions server backed by the seeded Game of 24 responder.

Run as ``python3 bench/stub.py --seed N --delay-ms D``. It binds an
ephemeral port on 127.0.0.1, prints ``port <number>`` on one line, and
serves ``POST /v1/chat/completions`` until its standard input closes, so it
never outlives the process that started it.

One asyncio thread serves every connection: each request waits its fixed
delay without holding a thread, so any number of concurrent client calls
overlap their delays, while the stub itself uses one core at most. Each
response is written with a single send and TCP_NODELAY is set, so a
keep-alive client is not stalled by Nagle's algorithm meeting delayed ACKs.

``--fail-share`` answers HTTP 500 for that share of distinct requests,
chosen by request content so that retries of one request fail alike.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from responder import Game24Responder, unit_draw  # noqa: E402

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}


def response_bytes(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {REASONS[status]}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    ).encode("ascii")
    return head + body


class Stub:
    def __init__(self, seed: int, delay_s: float, fail_share: float):
        self.responder = Game24Responder(seed)
        self.seed = seed
        self.delay_s = delay_s
        self.fail_share = fail_share
        self.connections: set[asyncio.StreamWriter] = set()
        self.handlers: set[asyncio.Task] = set()

    def answer(self, path: str, body: bytes) -> tuple[int, dict]:
        if path != "/v1/chat/completions":
            return 404, {"error": f"no route {path}"}
        try:
            request = json.loads(body)
            prompt = request["messages"][0]["content"]
            temperature = float(request["temperature"])
            n = int(request.get("n", 1))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return 400, {"error": repr(exc)}
        if self.fail_share and unit_draw(self.seed, "fail", prompt, temperature) < self.fail_share:
            return 500, {"error": "injected failure"}
        choices = [
            {"index": i, "message": {"role": "assistant",
                                     "content": self.responder.complete(prompt, temperature, i)}}
            for i in range(n)
        ]
        words = len(prompt.split())
        usage = {"prompt_tokens": words, "completion_tokens": n, "total_tokens": words + n}
        return 200, {"choices": choices, "usage": usage}

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connections.add(writer)
        self.handlers.add(asyncio.current_task())
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                method, path, version = lines[0].split(" ", 2)
                headers = {}
                for line in lines[1:]:
                    if ":" in line:
                        name, value = line.split(":", 1)
                        headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                keep_alive = (version == "HTTP/1.1"
                              and headers.get("connection", "").lower() != "close")
                if method != "POST":
                    status, payload = 404, {"error": f"no route {method} {path}"}
                else:
                    status, payload = self.answer(path, body)
                if self.delay_s:
                    await asyncio.sleep(self.delay_s)
                writer.write(response_bytes(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        finally:
            self.connections.discard(writer)
            self.handlers.discard(asyncio.current_task())
            writer.close()

    async def stop(self) -> None:
        """Close idle keep-alive connections and let their handlers end."""
        for writer in list(self.connections):
            writer.close()
        await asyncio.gather(*self.handlers, return_exceptions=True)


async def serve(stub: Stub) -> None:
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0, backlog=128)
    port = server.sockets[0].getsockname()[1]
    print(f"port {port}", flush=True)
    loop = asyncio.get_running_loop()
    # Standard input reaching EOF is the signal to stop.
    await loop.run_in_executor(None, sys.stdin.read)
    server.close()
    await stub.stop()
    await server.wait_closed()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, default=0.0)
    parser.add_argument("--fail-share", type=float, default=0.0)
    args = parser.parse_args(argv)
    asyncio.run(serve(Stub(args.seed, args.delay_ms / 1000.0, args.fail_share)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
