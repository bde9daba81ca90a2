"""Process and daemon helpers of the perfbench benchmark."""

import json
import os
import socket
import subprocess
import time
from collections import namedtuple

Finished = namedtuple("Finished", "wall_s returncode maxrss_mb")


def wait_rusage(proc, timeout_s=None):
    """Wait for proc; returns (returncode, peak RSS in MiB).

    With a timeout the process is killed once it expires.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        flags = 0 if deadline is None else os.WNOHANG
        pid, status, usage = os.wait4(proc.pid, flags)
        if pid == proc.pid:
            break
        if time.monotonic() >= deadline:
            proc.kill()
            deadline = None
            continue
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_timed(cmd, cwd, log_path, timeout_s=170):
    """Run cmd to completion; its wall time, exit code and peak RSS."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        try:
            returncode, maxrss_mb = wait_rusage(proc, timeout_s)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    return Finished(wall, returncode, maxrss_mb)


class Client:
    """One connection to a `loas_cli serve` daemon (NDJSON lines)."""

    def __init__(self, path, timeout_s=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """A `loas_cli serve` process on a unix socket, stopped on exit."""

    # Daemons not yet stopped, so an aborted run can still stop them.
    live = set()

    def __init__(self, cli, socket_path, threads, log_path):
        # The socket path is relative to the working directory, which
        # the daemon shares: sun_path holds only about 100 bytes.
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self.socket_path = socket_path
        self.started = time.perf_counter()
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [cli, "serve", "--socket", socket_path,
             "--engine-threads", str(threads)],
            stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=self.log)
        self.maxrss_mb = None
        Daemon.live.add(self)

    def connect(self, timeout_s=60.0):
        """A client, once the daemon accepts connections."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with code %d"
                                   % self.proc.returncode)
            try:
                return Client(self.socket_path)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)

    def stop(self):
        """Drain and stop the daemon; returns its exit code."""
        if self.proc.returncode is None:
            try:
                client = Client(self.socket_path, timeout_s=30.0)
                client.call({"cmd": "shutdown"})
                client.close()
            except (OSError, ValueError):
                self.proc.terminate()
            _, self.maxrss_mb = wait_rusage(self.proc, timeout_s=60)
        self.log.close()
        Daemon.live.discard(self)
        return self.proc.returncode

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
