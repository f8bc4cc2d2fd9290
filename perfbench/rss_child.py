"""Run a list of CLI calls in this fresh process and print its peak RSS in KiB.

Usage: python3 perfbench/rss_child.py OPS.json   (thermark on PYTHONPATH)
OPS.json holds a list of argv lists for ``thermark.cli.main``.

The peak is VmHWM from /proc/self/status, which belongs to this process's
own address space. ru_maxrss would not do: Linux carries the parent's
high-water mark into a child across fork and exec.
"""

import json
import sys

from thermark import cli

for argv in json.loads(open(sys.argv[1]).read()):
    if cli.main(argv) != 0:
        sys.exit(f"op failed: {argv[0]}")
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
