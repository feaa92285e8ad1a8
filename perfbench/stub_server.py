"""Local chat-completion stub that answers prompts from a ground-truth table.

Usage: python3 stub_server.py TABLES_JSON

TABLES_JSON maps a query text to {"<construct>|<args>": score}. The stub
expects the benchmark's pinned prompt template, whose first three lines
are the query text, the construct name and the entity ids joined by
" and ". It serves on 127.0.0.1 from one thread with HTTP/1.1
keep-alive, prints its port on stdout and exits when stdin closes.
Each reply goes out in a single send: a separate header and body write
would stall every call on delayed ACK. No artificial latency is added.
"""

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            prompt = json.loads(body)["messages"][0]["content"]
            query, construct, args = prompt.split("\n")[:3]
            value = self.server.tables[query][f"{construct}|{args}"]
        except (ValueError, KeyError, IndexError):
            self._reply(404, b'{"error": "unknown question"}')
            return
        self._reply(200, json.dumps({"choices": [{"message": {
            "role": "assistant", "content": repr(value)}}]}).encode())

    def _reply(self, status: int, payload: bytes) -> None:
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode()
        self.wfile.write(head + payload)

    def log_message(self, *args):
        pass


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        tables = json.load(fh)
    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.tables = tables

    def exit_on_stdin_close():
        sys.stdin.read()
        os._exit(0)

    threading.Thread(target=exit_on_stdin_close, daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
