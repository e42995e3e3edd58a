"""Cold-start probe: a fresh process imports phaseirls and runs one unit.

``run.py`` starts this script and measures set-up time from just before the
start to the ``t_end`` it reports (``time.monotonic`` is system-wide on Linux),
minus ``load_s``, the time spent reading the benchmark's own input file.

    python3 perfbench/cold.py direct <input.npy> <output.npy>
    python3 perfbench/cold.py cli '<json list of phaseirls CLI arguments>'
"""

import json
import resource
import sys
import time

import numpy as np


def main(argv):
    load_s = 0.0
    if argv[0] == "cli":
        from phaseirls import cli

        rc = cli.main(json.loads(argv[1]))
        u = None
    else:
        t0 = time.monotonic()
        x = np.load(argv[1])
        load_s = time.monotonic() - t0
        from phaseirls.irls import unwrap

        rc = 0
        u = unwrap(x).u
    t_end = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if u is not None:
        np.save(argv[2], u)
    print(json.dumps({"t_end": t_end, "load_s": load_s, "rc": rc, "maxrss_kb": maxrss_kb}))


if __name__ == "__main__":
    main(sys.argv[1:])
