"""Fixed reference work that measures how fast this core is right now.

    python3 perfbench/calibrate.py python|processes

Prints the best of three timings of one kind of work, in seconds.  The
work never changes and never touches ontoprof, so the benchmark can
express a wall time in reference seconds, wall * REFERENCE_S[kind] /
measured, and so cancel the speed swings of a shared host.  "python" is
allocation, hashing, formatting and sorting in the interpreter, like the
parser and the feature walks; "processes" is fork-and-pipe round trips,
like the runner's per-file worker.  It runs in a fresh process so the
cost of a fork does not depend on the caller's heap.
"""

import multiprocessing
import sys
import time

# Timings on an unloaded core of the machine the benchmark was defined on;
# they only fix the scale of reference seconds.
REFERENCE_S = {"python": 0.040, "processes": 0.020}


def python_work() -> int:
    rows, index = [], {}
    for i in range(40000):
        key = f"k{i % 4093}"
        row = (key, i, i * 7 % 13)
        rows.append(row)
        index.setdefault(key, []).append(row)
    rows.sort(key=lambda r: (r[2], r[0]))
    return len(index) + len(rows)


def _reply(conn) -> None:
    conn.send(None)
    conn.close()


def process_work() -> int:
    ctx = multiprocessing.get_context("fork")
    for _ in range(8):
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_reply, args=(sender,))
        proc.start()
        sender.close()
        receiver.recv()
        receiver.close()
        proc.join()
    return 8


WORK = {"python": python_work, "processes": process_work}


def best_of_three(kind: str) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        WORK[kind]()
        best = min(best, time.perf_counter() - started)
    return best


if __name__ == "__main__":
    print(best_of_three(sys.argv[1]))
