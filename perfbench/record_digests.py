"""Record the sha256 digests of every exact benchmark output.

    python3 perfbench/record_digests.py

Runs every case of every workload once (seed 0; digested outputs do not
depend on the seed) and writes ``perfbench/digests.json``.  An output that
fails its own check is not recorded, nor is a solve that ends without a
certificate.  Re-record only for a change that is meant to alter the
library's exact output, and say so in that change.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cases import WORKLOADS, build, canonical_digest  # noqa: E402
from unitycert.maxent import NoInteriorCertificateError  # noqa: E402


def main() -> int:
    logging.getLogger("unitycert").addHandler(logging.NullHandler())
    digests, problems = {}, []
    for workload in WORKLOADS:
        for cases in build(workload, 0).values():
            for case in cases:
                if case.digest is None:
                    continue
                try:
                    output = case.call()
                    case.check(output)
                except NoInteriorCertificateError:
                    print(f"skipped, no certificate: {workload}/{case.id}")
                    continue
                except Exception as exc:  # report every bad case, record none
                    problems.append(f"{workload}/{case.id}: {type(exc).__name__}: {exc}")
                    continue
                digests[case.id] = canonical_digest(case.digest(output))
    for problem in problems:
        print("not recorded:", problem, file=sys.stderr)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
