"""Set-up probe: a fresh interpreter imports gatesynth and finishes one verified op.

    python3 perfbench/probe.py <src dir> <request.json>

The request holds either a target and entangler matrix (synthesize through
the public API, which verifies its result) or two CLI argument lists
(synth, then verify). Exits 0 only if the op succeeded.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import gatesynth  # noqa: E402  (the import is part of what is timed)


def _matrix(text: str):
    import numpy as np
    return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])


def main() -> int:
    with open(sys.argv[2]) as fh:
        request = json.load(fh)
    if "cli" in request:
        from gatesynth import cli
        synth, verify = request["cli"]
        return cli.main(synth) or cli.main(verify)
    gatesynth.synthesize(_matrix(request["target"]), _matrix(request["entangler"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
