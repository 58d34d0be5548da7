"""Starts the program's processes for run.py and reports their rusage.

A child's ru_maxrss counts the pages it shared with the process that forked
it, so a program started straight from run.py, which holds its corpora in
memory, would report run.py's memory as its own. This small process forks
every program process instead.

One JSON request per line on stdin, one JSON reply per line on stdout:
{"argv", "env", "cwd", "stdout", "stderr", "timeout", "pin"} ->
{"wall", "cpu", "maxrss_kib", "returncode", "probes"}. Exits at end of input.

The host this was written on runs each CPU at one of two speeds about 2x
apart, switching within a second as often as every few minutes. "probes"
holds, per CPU the program ran on, the mean CPU time of a fixed pure-Python
loop timed on that CPU every SAMPLE_INTERVAL_S while the program ran;
run.py scales each operation's times by them.
"""

import json
import os
import select
import subprocess
import sys
import threading
import time


# Fixed pure-Python work that times the host's current speed: about 0.45 ms
# of CPU time in a fast phase and 0.9 ms in a slow one on the 2-vCPU Xeon it
# was tuned on.
PROBE_ITERATIONS = 2_000
# One probe per CPU every this many seconds: about 3% of each CPU.
SAMPLE_INTERVAL_S = 0.025


def _probe_once() -> float:
    """CPU seconds of one probe loop; time spent waiting for the CPU is not counted."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        total += len(str(i))
    return time.thread_time() - t0


class Sampler:
    """A forked process that times the probe on each of `cpus` until stopped.

    It shares those CPUs with the program, so it sees the speed the program
    gets. stop() returns the mean probe time per CPU, in sorted CPU order;
    every CPU is probed at least once. The sampler also stops when the
    process that started it exits.
    """

    def __init__(self, cpus: set[int]):
        self.probes = None
        stop_r, self.stop_w = os.pipe()
        self.out_r, out_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self.stop_w)
                os.close(self.out_r)
                _sample(sorted(cpus), stop_r, out_w)
            finally:
                os._exit(1)
        os.close(stop_r)
        os.close(out_w)

    def stop(self) -> list[float]:
        """Stop the sampler (once) and return its probe times."""
        if self.probes is None:
            os.close(self.stop_w)
            with os.fdopen(self.out_r, "rb") as f:
                data = f.read()
            os.waitpid(self.pid, 0)
            self.probes = json.loads(data)
        return self.probes


def _sample(cpus: list[int], stop_fd: int, out_fd: int) -> None:
    sums = [0.0] * len(cpus)
    rounds = 0
    while True:
        for i, cpu in enumerate(cpus):
            os.sched_setaffinity(0, {cpu})
            sums[i] += _probe_once()
        rounds += 1
        if select.select([stop_fd], [], [], SAMPLE_INTERVAL_S)[0]:
            break
    os.write(out_fd, json.dumps([s / rounds for s in sums]).encode())
    os._exit(0)


def run(req: dict) -> dict:
    """Start one program process, wait for it, and sample the probe meanwhile.

    A single-process program ("pin") runs on one CPU and the probe times
    that CPU; otherwise the probe times every CPU this process may use.
    """
    allowed = os.sched_getaffinity(0)
    cpus = {max(allowed)} if req["pin"] else allowed
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        try:
            os.sched_setaffinity(0, cpus)  # inherited by the child
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        finally:
            os.sched_setaffinity(0, allowed)
        sampler = Sampler(cpus)  # forked before the timer thread starts
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        probes = sampler.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "maxrss_kib": ru.ru_maxrss,
            "returncode": proc.returncode, "probes": probes}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
