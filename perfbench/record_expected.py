"""Record the stdout digest and exit code of every construct and enumerate job.

    python3 perfbench/record_expected.py

writes ``perfbench/expected.json``, the output-correctness gate of
``run.py``.  Outputs are meant to stay byte-identical, so re-record only
when a job is added, never to accept a changed output.
"""

from __future__ import annotations

import hashlib
import io
import json

import run
import workloads


def main() -> None:
    fl = run.import_flowerlab()
    expected = {}
    for mode in ("full", "smoke"):
        expected[mode] = {}
        for name in ("construct", "enumerate"):
            for argv in workloads.JOBS[name][mode]:
                fl.flowerpoly.clear_cache()
                out, err = io.StringIO(), io.StringIO()
                code = fl.cli.run(argv, out, err)
                expected[mode][" ".join(argv)] = {
                    "exit": code,
                    "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                }
    run.EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
