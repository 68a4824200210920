"""Starts the benchmark's commands one at a time and reports on each.

On Linux a child's peak resident set counts the memory of the process
that started it, and the harness grows as it checks outputs. Commands are
therefore started from this small process, whose own few megabytes stay
far below any ``ganens`` command. It reads one JSON request per line on
standard input and writes one JSON reply per line on standard output.
"""
import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], env=request["env"],
                                    stdout=sink, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        reply = {"wall": wall, "exit_code": os.waitstatus_to_exitcode(status),
                 "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
