"""Write ``reference.json``: the output digests of every workload at the pinned seed.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are the reference, as version 0.1.0's are;
``checks.py`` then fails every operation whose output differs from them.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import SRC, Run

sys.path.insert(0, str(SRC))
from checks import PINNED_SEED, REFERENCE, reference_digests  # noqa: E402
from workloads import SHAPES  # noqa: E402


def main() -> int:
    reference = {}
    for workload in sorted(SHAPES):
        r = Run(workload, PINNED_SEED, tiny=False)
        try:
            r.generate()
            done = r.run_pass()
        finally:
            shutil.rmtree(r.out, ignore_errors=True)
        if not done.ok:
            print(f"make_reference: {workload} failed", file=sys.stderr)
            return 1
        reference[workload] = reference_digests(workload, done.files)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
