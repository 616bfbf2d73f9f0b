"""Set-up probe, run by run.py in a fresh interpreter to time the set-up.

Usage: python3 bench/setup_probe.py SRC_DIR CLI_ARG...

Imports the package from SRC_DIR and runs ``cli.main(CLI_ARG...)`` with
stdout captured, sampling the reference slice meanwhile, and reads
CLOCK_MONOTONIC (system-wide, so comparable with the parent's reading at the
spawn) when ready. After that it times a few more slices and prints one JSON
line: the exit code, the ready time, the time spent in the sampling handler
(to be taken off the set-up's wall time) and every slice time, which run.py
uses to calibrate the set-up.
"""
import contextlib
import io
import json
import sys
import time

from refwork import Sampler

sampler = Sampler()
with sampler.during():
    sys.path.insert(0, sys.argv[1])
    from untrusted_noma import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
sampler.bracket()
print(json.dumps({"code": code, "ready": ready, "paused": sampler.paused, "samples": sampler.samples}))
