"""<a^dag a> of Kerr steady states, for the flux identity check.

usage: python3 perfbench/photon_number.py IN_JSON OUT_JSON

IN_JSON holds {"params": {delta, u, kappa}, "points": [[N, eps, n_max], ...]}.
The steady state comes from the package's Liouvillian and solver at the
cutoff the run used; the photon number is summed here from the diagonal of
rho, not through ``fock_algebra``, so the check does not share the code
that filled the flux columns.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    import numpy as np
    from wehrlflux.liouvillian import KerrParams, build_kerr_liouvillian, steady_state

    in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    p = spec["params"]
    out = []
    for n, eps, n_max in spec["points"]:
        params = KerrParams(p["delta"], p["u"], p["kappa"], eps, n)
        rho = steady_state(build_kerr_liouvillian(params, n_max, enforce_cutoff=False))
        out.append(float(np.dot(np.arange(n_max), np.diag(rho.entries).real)))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
