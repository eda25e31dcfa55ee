"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE TIMEOUT_S ARGV...

Linux counts the RSS of the process a child was forked from in the
child's peak RSS, so the benchmark starts each measured command from this
small process rather than from its own, larger one.  The command runs in
its own process group and is killed whole after TIMEOUT_S.  The peak RSS
is the maximum over the command and every descendant it waited for
(`os.wait4`), which covers the runner's forked workers.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> None:
    stdout_path, stderr_path, timeout = sys.argv[1], sys.argv[2], float(sys.argv[3])
    argv = sys.argv[4:]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, start_new_session=True)

        def kill_tree():
            os.killpg(proc.pid, signal.SIGKILL)

        killer = threading.Timer(timeout, kill_tree)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_tree()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_mib": usage.ru_maxrss / 1024,
                      "code": proc.returncode}))


if __name__ == "__main__":
    main()
