"""Set-up probe for a library workload: import, model build, spectrum and the
first log Z, in a fresh interpreter.  Prints one line as soon as the first
log Z exists; the parent times spawn-to-line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED   (with src on PYTHONPATH)
"""

import sys

import polymermc as pm

from workloads import WORKLOADS, build_model

wl = WORKLOADS[sys.argv[1]]
curve = pm.beta_sweep(build_model(pm, wl), [max(wl.betas)], [min(wl.horizons)], 2,
                      int(sys.argv[2]))
print(f"first log Z {curve.all_points[0].log_zs[0]!r}", flush=True)
