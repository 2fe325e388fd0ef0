"""Loopback model endpoint for the ``remote_shared`` workload. Stdlib only.

Run as ``python3 perfbench/stub.py --oracle oracle.json --delay-ms 2``. It
binds a free port on 127.0.0.1 and prints that port as its first line of
output. ``POST /`` takes ``{"model": ..., "prompt": ...}`` and answers with
a JSON object of probabilities computed from the prompt text alone, with the
stub's own copy of the oracle's logistic formula, after a fixed delay.
``GET /count`` returns ``{"served": n}``, the number of POSTs answered.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

RESPONSE_KEYS = {
    "go_work": "go_work_prob",
    "discretionary_outings": "discretionary_outings_prob",
    "essentials": "essentials_prob",
    "transit_use": "transit_use_prob",
    "outdoor_leisure": "outdoor_leisure_prob",
    "stay_home": "stay_home_prob",
}


def parse_prompt(text: str) -> tuple[dict[str, str], float]:
    """Persona attributes and stringency from a prompt whose persona and
    situation sections hold ``- name: value`` lines."""
    attributes: dict[str, str] = {}
    stringency = None
    section = None
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith("- "):
            section = line[:-1]
            continue
        if not line.startswith("- ") or ": " not in line:
            continue
        name, value = line[2:].split(": ", 1)
        if section == "Persona":
            attributes[name] = value
        elif section == "Situation" and name == "stringency":
            stringency = float(value)
    if stringency is None:
        raise ValueError("prompt has no stringency line")
    return attributes, stringency


def answer(oracle: dict, attributes: dict[str, str], stringency: float) -> dict[str, float]:
    offset = sum(oracle["attribute_offsets"].get(a, {}).get(v, 0.0) for a, v in attributes.items())
    s = stringency / 100.0
    out = {}
    for key, a in oracle["intercepts"].items():
        z = a + oracle["slopes"][key] * s + offset
        out[RESPONSE_KEYS[key]] = 1.0 / (1.0 + math.exp(-z))
    return out


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, oracle: dict, delay_s: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.oracle = oracle
        self.delay_s = delay_s
        self.served = 0
        self.lock = threading.Lock()


class StubHandler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/count":
            self._reply(404, {"error": "not found"})
            return
        with self.server.lock:
            served = self.server.served
        self._reply(200, {"served": served})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        try:
            request = json.loads(self.rfile.read(length))
            attributes, stringency = parse_prompt(request["prompt"])
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        time.sleep(self.server.delay_s)
        payload = answer(self.server.oracle, attributes, stringency)
        with self.server.lock:
            self.server.served += 1
        self._reply(200, payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--oracle", required=True, help="JSON file with the oracle surface")
    parser.add_argument("--delay-ms", type=float, default=2.0)
    args = parser.parse_args(argv)
    with open(args.oracle, encoding="utf-8") as fh:
        oracle = json.load(fh)
    server = StubServer(oracle, args.delay_ms / 1000.0)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
